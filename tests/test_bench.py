import dataclasses

import numpy as np
import pytest

import divshap.graph as graph_mod
from divshap.bench import (
    ExperimentReport,
    baseline_1nn,
    raw_elm_accuracy,
    run_experiment,
    sweep_csv,
)
from divshap.elm import ELMConfig
from divshap.errors import EmptyInputError
from divshap.mining import MiningConfig
from divshap.pipeline import EvalConfig, PipelineConfig, fit, mine_graph, predict_pipeline

from conftest import bump_dataset


def planar(points, labels):
    """Rows and labels as baseline_1nn takes them."""
    return np.asarray(points, dtype=float), np.asarray(labels)


def test_1nn_training_point_maps_to_itself():
    train = planar([[0, 0], [4, 4]], [1, 2])
    test = planar([[4, 4]], [2])
    assert baseline_1nn(*train, *test) == 1.0


def test_1nn_single_training_instance():
    train = planar([[1, 1]], [7])
    test = planar([[0, 0], [9, 9]], [7, 7])
    assert baseline_1nn(*train, *test) == 1.0


def test_1nn_without_training_rows_rejected():
    with pytest.raises(EmptyInputError):
        baseline_1nn(np.zeros((0, 2)), np.zeros(0, dtype=int), *planar([[0, 0]], [1]))


def test_1nn_hand_enumerated_planar_toy():
    # train: class 1 around the origin, class 2 around (10, 10)
    train = planar([[0, 0], [1, 0], [10, 10], [11, 10]], [1, 1, 2, 2])
    test = planar(
        [[0, 1], [2, 0], [9, 10], [10, 11], [5, 5], [6, 6]],
        [1, 1, 2, 2, 1, 2],
    )
    # nearest neighbors by hand: 1, 1, 2, 2, then (5,5)->(1,0) class 1 and
    # (6,6)->(10,10) class 2
    assert baseline_1nn(*train, *test) == 1.0


def test_1nn_tie_goes_to_lower_training_index():
    train = planar([[0, 0], [2, 0]], [1, 2])
    test = planar([[1, 0]], [1])  # equidistant
    assert baseline_1nn(*train, *test) == 1.0


def test_1nn_feature_matrices():
    assert baseline_1nn(np.array([[0.0], [1.0]]), np.array([1, 2]), np.array([[0.9]]), np.array([2])) == 1.0


def test_raw_elm_runs(toy_train, toy_test):
    acc = raw_elm_accuracy(toy_train, toy_test, ELMConfig(seed=0))
    assert 0.0 <= acc <= 1.0


def fast_cfg():
    return PipelineConfig(
        mining=MiningConfig(min_len=4, max_len=6), evaluation=EvalConfig(repeats=2)
    )


def test_run_experiment_compare_fields(toy_train, toy_test):
    report, model = run_experiment(toy_train, toy_test, fast_cfg())
    assert set(report.accuracies) == {"divshap_elm", "raw_elm", "raw_1nn", "transformed_1nn"}
    for v in report.accuracies.values():
        assert 0.0 <= v <= 1.0
    for key in ("candidate_selection", "diversified_selection", "classify"):
        assert report.timings[key] >= 0.0
    assert 1 <= report.selected_k <= 9
    fitted = fit(toy_train, fast_cfg())
    assert report.selected_k == fitted.selected_k
    assert [s.id for s in model.shapelets] == [s.id for s in fitted.shapelets]
    assert report.accuracies["divshap_elm"] == predict_pipeline(fitted, toy_test)[1]


def test_run_experiment_scans_the_mined_graph_once(toy_train, toy_test, monkeypatch):
    """One greedy scan of the mined graph, then only the kappa pool's own
    pairs when the sweep takes its pool again."""
    cfg = fast_cfg()
    calls = []
    real = graph_mod.similar

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(graph_mod, "similar", counted)
    pool = graph_mod.div_topk(mine_graph(toy_train, cfg)[1], cfg.kappa)
    scan = len(calls)
    calls.clear()
    run_experiment(toy_train, toy_test, cfg)
    assert len(pool) == cfg.kappa
    assert len(calls) == scan + cfg.kappa * (cfg.kappa - 1) // 2


def test_run_experiment_deterministic_accuracies(toy_train, toy_test):
    r1, _ = run_experiment(toy_train, toy_test, fast_cfg())
    r2, _ = run_experiment(toy_train, toy_test, fast_cfg())
    assert r1.accuracies == r2.accuracies
    assert r1.selected_k == r2.selected_k


def test_run_experiment_total_covers_phases(toy_train, toy_test):
    report, _ = run_experiment(toy_train, toy_test, fast_cfg())
    phases = sum(v for k, v in report.timings.items() if k != "total")
    assert report.timings["total"] >= phases - 0.05


def test_run_experiment_znormalize_series_flag(toy_train, toy_test):
    cfg = dataclasses.replace(fast_cfg(), znormalize_series=True)
    report, model = run_experiment(toy_train, toy_test, cfg)
    assert 0.0 <= report.accuracies["divshap_elm"] <= 1.0
    assert model.config.znormalize_series


def test_sweep_csv_one_row_per_k(toy_train):
    model = fit(toy_train, fast_cfg())
    lines = sweep_csv(model).strip().splitlines()
    assert lines[0] == "k,mean_accuracy,n_shapelets"
    assert len(lines) - 1 == len(model.k_sweep_report)
    ks = [int(line.split(",")[0]) for line in lines[1:]]
    assert ks == sorted(set(ks))


def test_report_serialization_roundtrip(toy_train, toy_test):
    report, _ = run_experiment(toy_train, toy_test, fast_cfg())
    blob = report.to_json()
    assert '"divshap_elm"' in blob
    csv = report.accuracy_csv()
    assert csv.startswith("dataset,")
    table = report.table()
    assert "selected_k" in table
