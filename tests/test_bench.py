import dataclasses
import json
import warnings

import numpy as np
import pytest

import divshap.bench as bench_mod
import divshap.graph as graph_mod
import divshap.pipeline as pipeline_mod
from divshap.bench import (
    ExperimentReport,
    baseline_1nn,
    raw_elm_accuracy,
    run_experiment,
    sweep_csv,
)
from divshap.distance import DistanceConfig
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


def test_transformed_1nn_does_not_overflow_on_squared_distance_features():
    """Without window normalization the features are squared distances up
    to 4 L max|x|^2, which the 1NN squares again; at X*1e80 those squares
    overflowed and the accuracy fell to chance."""
    train, test = bump_dataset(seed=0, per_class=4, m=40), bump_dataset(seed=1, per_class=20, m=40)
    cfg = dataclasses.replace(
        fast_cfg(),
        mining=MiningConfig(min_len=4, max_len=8),
        distance=DistanceConfig(normalize_windows=False),
    )

    def accuracy(scale):
        scaled = [dataclasses.replace(d, X=d.X * scale) for d in (train, test)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report, _ = run_experiment(*scaled, cfg)
        return report.accuracies["transformed_1nn"]

    at_one = accuracy(1.0)
    assert at_one > 0.5
    assert accuracy(1e80) == at_one and accuracy(1e100) == at_one


def test_run_experiment_on_an_empty_test_set_reports_no_accuracy():
    """Every accuracy of an empty test split is None, as predict_pipeline
    reports its own: no NaN in the report's JSON or CSV, and no warning."""
    train = bump_dataset(0, 6, 24)
    test = dataclasses.replace(train, X=np.zeros((0, 24)), y=np.zeros(0, dtype=np.int64))

    def no_constants(name):
        raise AssertionError(f"{name} in the report's JSON")

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report, _ = run_experiment(train, test, PipelineConfig(kappa=3))
    assert report.accuracies == dict.fromkeys(["divshap_elm", "raw_elm", "raw_1nn", "transformed_1nn"])
    assert json.loads(report.to_json(), parse_constant=no_constants)["accuracies"] == report.accuracies
    assert report.accuracy_csv().splitlines()[1] == f"{report.dataset},,,,,{report.selected_k}"


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
    """One greedy scan of the mined graph, then one of the kappa pool alone
    when the sweep takes its pool again; both batched, with no scalar pair
    check."""
    cfg = fast_cfg()
    scans = []
    real = graph_mod.batch_div_topk

    def recorded(g, k):
        scans.append((list(g.vertices), real(g, k)))
        return scans[-1][1]

    monkeypatch.setattr(bench_mod, "batch_div_topk", recorded)
    monkeypatch.setattr(pipeline_mod, "batch_div_topk", recorded)
    pool = graph_mod.div_topk(mine_graph(toy_train, cfg)[1], cfg.kappa)
    monkeypatch.setattr(graph_mod, "similar", lambda *args: pytest.fail("scalar pair check"))
    report, _ = run_experiment(toy_train, toy_test, cfg)
    (mined, first), (again, second) = scans
    assert len(pool) == cfg.kappa and len(mined) == report.notes["n_candidates"]
    assert [s.id for s in first] == [s.id for s in pool]
    assert again == first and second == first


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
