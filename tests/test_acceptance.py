"""Acceptance suite: one test per criterion, one pass/fail line each.

Criteria over the named UCR datasets need the flat files on disk (see
tests/conftest.py: data/ucr/ or DIVSHAP_UCR_DIR); without them those tests
skip with an explicit message rather than fabricating data.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from divshap import elm
from divshap.bench import (
    baseline_1nn,
    raw_elm_accuracy,
    sweep_csv,
)
from divshap.cli import main as cli_main
from divshap.dataset import Dataset, write_ucr
from divshap.distance import subsequence_dist
from divshap.graph import build_graph, div_topk, similar
from divshap.mining import MiningConfig, best_split, mine_shapelets, orderline
from divshap.pipeline import EvalConfig, PipelineConfig, _fit_from_graph, fit as pipeline_fit
from divshap.transform import Scaling, apply_scaling, transform

from conftest import bump_dataset, load_ucr_split, time_predict, xor_dataset
from test_distance import naive_subsequence_dist
from test_mining import brute_force_split


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except Exception:
        print(f"[criterion {num:2d}] FAIL  {desc}")
        raise
    print(f"[criterion {num:2d}] PASS  {desc}")


def corpus_entry(train, cfg):
    mining = MiningConfig(
        min_len=cfg.mining.min_len,
        max_len=cfg.mining.max_len,
        normalize=cfg.distance,
    )
    mined = mine_shapelets(train, mining)
    graph = build_graph(mined, cfg.distance, same_class_only=cfg.same_class_only)
    model = _fit_from_graph(graph, train, cfg)
    return train, cfg, graph, model


@pytest.fixture(scope="module")
def synthetic_corpus():
    cfg = PipelineConfig()
    return [
        corpus_entry(bump_dataset(seed=0), cfg),
        corpus_entry(xor_dataset(seed=0), cfg),
        corpus_entry(bump_dataset(seed=2, per_class=2, m=24, name="tiny"), cfg),
    ]


def test_criterion_1_split_scoring_oracle():
    with criterion(1, "best_split matches exhaustive-threshold brute force on 200 datasets"):
        rng = np.random.default_rng(2024)
        t0 = time.perf_counter()
        for trial in range(200):
            n = int(rng.integers(4, 13))
            m = int(rng.integers(8, 25))
            n_classes = int(rng.integers(2, 4))
            y = rng.integers(0, n_classes, size=n)
            y[:n_classes] = np.arange(n_classes)
            d = Dataset(X=rng.normal(size=(n, m)), y=y)
            L = int(rng.integers(3, m // 2 + 1))
            src = int(rng.integers(n))
            start = int(rng.integers(m - L + 1))
            ol = orderline(d.X[src, start : start + L], d)
            thr, gain, _ = best_split(ol)
            othr, ogain, _ = brute_force_split(ol)
            dists = sorted(p[0] for p in ol)
            assert [x <= thr for x in dists] == [x <= othr for x in dists], f"trial {trial}"
            assert abs(gain - ogain) <= 1e-12, f"trial {trial}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_subsequence_distance_oracle():
    with criterion(2, "early-abandoning distance equals the naive scan on 500 pairs"):
        rng = np.random.default_rng(7)
        t0 = time.perf_counter()
        for trial in range(500):
            t = rng.normal(size=int(rng.integers(10, 80)))
            s = rng.normal(size=int(rng.integers(3, min(16, len(t)) + 1)))
            if trial % 5 == 0:
                t[2:7] = t[2]  # exercise flat windows
            want = naive_subsequence_dist(t, s)
            got = subsequence_dist(t, s)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12), f"trial {trial}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_criterion_3_independence_invariant(synthetic_corpus):
    with criterion(3, "selected sets are pairwise dissimilar; div_topk(k) prefixes div_topk(k+1)"):
        for train, cfg, graph, model in synthetic_corpus:
            sel = model.shapelets
            for i in range(len(sel)):
                for j in range(i + 1, len(sel)):
                    assert not similar(sel[i], sel[j], cfg.distance, cfg.same_class_only)
            prev = None
            for k in range(1, min(cfg.kappa, graph.n) + 1):
                cur = div_topk(graph, k)
                if prev is not None:
                    assert cur[: len(prev)] == prev
                prev = cur
            assert sel == prev[: len(sel)]


def test_criterion_4_elm_interpolation():
    with criterion(4, "width-N ridgeless ELM reproduces one-hot targets on >=95% of trials"):
        for n in (5, 20, 50):
            ok = 0
            detected = 0
            for seed in range(100):
                rng = np.random.default_rng(seed)
                X = rng.normal(size=(n, 4))
                y = np.arange(n) % 2
                try:
                    model = elm.train(X, y, elm.ELMConfig(n_hidden=n, seed=seed, ridge=0.0))
                except elm.NumericalFailureError:
                    detected += 1
                    continue
                T = (y[:, None] == model.codebook[None, :]).astype(float)
                err = np.abs(elm.decision_values(model, X) - T).max()
                if err <= 1e-4:
                    ok += 1
                else:
                    detected += 1  # measurable over-tolerance, not a silent pass
            assert ok + detected == 100
            assert ok >= 95, f"N={n}: only {ok}/100 within tolerance"


def test_criterion_5_pseudoinverse_contract():
    with criterion(5, "normal equations hold to 1e-8; no perturbation improves the residual"):
        rng = np.random.default_rng(55)
        for trial in range(100):
            N = int(rng.integers(4, 13))
            cols = int(rng.integers(2, N + 1))
            c = int(rng.integers(2, 5))
            H = rng.normal(size=(N, cols))
            T = rng.normal(size=(N, c))
            beta = elm.pinv_solve(H, T)
            res = np.abs(H.T @ H @ beta - H.T @ T).max()
            assert res <= 1e-8, f"trial {trial}: residual {res:.2e}"
            base = np.linalg.norm(H @ beta - T)
            for _ in range(20):
                step = rng.normal(size=beta.shape)
                step *= 1e-3 / np.linalg.norm(step)
                assert np.linalg.norm(H @ (beta + step) - T) >= base - 1e-10


@pytest.fixture(scope="module")
def ucr_cache():
    """One mining pass per available UCR dataset, shared across criteria."""
    cache = {}

    def get(*names):
        for name in names:
            if name in cache:
                return cache[name]
        for name in names:
            pair = load_ucr_split(name)
            if pair is not None:
                train, test = pair
                cfg = PipelineConfig()
                mined = mine_shapelets(train, MiningConfig(normalize=cfg.distance))
                graph = build_graph(mined, cfg.distance)
                cache[names[0]] = (train, test, cfg, graph)
                return cache[names[0]]
        return None

    return get


SONY_NAMES = ("SonyAIBORobot", "SonyAIBORobotSurface1", "SonyAIBORobotSurface")


def test_criterion_6_transformed_1nn_on_ucr(ucr_cache):
    with criterion(6, "Coffee transformed 1NN >= 0.90; Sony transformed 1NN >= raw 1NN - 0.02"):
        checked = []
        coffee = ucr_cache("Coffee")
        sony = ucr_cache(*SONY_NAMES)
        if coffee is None and sony is None:
            pytest.skip(
                "UCR Coffee and SonyAIBORobot files not available offline: place "
                "<name>_TRAIN/<name>_TEST under data/ucr/ or set DIVSHAP_UCR_DIR"
            )
        for name, entry in (("Coffee", coffee), ("SonyAIBORobot", sony)):
            if entry is None:
                continue
            train, test, cfg, graph = entry
            t0 = time.perf_counter()
            pool = div_topk(graph, cfg.kappa)
            tr = transform(train, pool, cfg.distance).X
            te = transform(test, pool, cfg.distance).X
            acc = baseline_1nn(tr, train.y, te, test.y)
            raw = baseline_1nn(train.X, train.y, test.X, test.y)
            elapsed = time.perf_counter() - t0
            assert elapsed < 300.0, f"{name}: transform+1NN took {elapsed:.0f}s"
            if name == "Coffee":
                assert acc >= 0.90, f"Coffee transformed 1NN {acc:.3f}"
            else:
                assert acc >= raw - 0.02, f"Sony transformed {acc:.3f} vs raw {raw:.3f}"
            checked.append(f"{name}: transformed={acc:.3f} raw={raw:.3f}")
        print("; ".join(checked))


ELM_IMPROVE_SETS = (
    ("Coffee",),
    ("ECGFiveDays",),
    SONY_NAMES,
    ("TwoLeadECG",),
)


def test_criterion_7_elm_improvement_on_ucr(ucr_cache):
    with criterion(7, "DivShapELM beats raw-series ELM (median of 5 seeds) on >= 3 of 4 datasets"):
        available = []
        for names in ELM_IMPROVE_SETS:
            entry = ucr_cache(*names)
            if entry is not None:
                available.append((names[0], entry))
        if len(available) < 3:
            pytest.skip(
                f"criterion needs >= 3 of {[s[0] for s in ELM_IMPROVE_SETS]}; only "
                f"{[n for n, _ in available]} available offline (see data/ucr/)"
            )
        improved = 0
        for name, (train, test, cfg, graph) in available:
            div_accs, raw_accs = [], []
            for seed in range(5):
                scfg = PipelineConfig(
                    elm=elm.ELMConfig(seed=seed),
                    evaluation=EvalConfig(seed=seed),
                )
                model = _fit_from_graph(graph, train, scfg)
                te = transform(test, model.shapelets, scfg.distance)
                pred = elm.predict(model.elm_model, apply_scaling(te, model.scaling).X)
                div_accs.append(float((pred == test.y).mean()))
                raw_accs.append(raw_elm_accuracy(train, test, elm.ELMConfig(seed=seed)))
            if np.median(div_accs) > np.median(raw_accs):
                improved += 1
            print(
                f"{name}: divshap median {np.median(div_accs):.3f} "
                f"vs raw ELM median {np.median(raw_accs):.3f}"
            )
        assert improved >= 3, f"improved on {improved}/{len(available)}"


def test_criterion_8_k_selection_bound(synthetic_corpus, ucr_cache):
    with criterion(8, "selected_k in [1, 9] under default kappa; sweep CSV has one row per k"):
        models = [(m, cfg) for _, cfg, _, m in synthetic_corpus]
        coffee = ucr_cache("Coffee")
        if coffee is not None:
            train, _, cfg, graph = coffee
            models.append((_fit_from_graph(graph, train, cfg), cfg))
        for model, cfg in models:
            assert cfg.kappa == 9
            assert 1 <= model.selected_k <= 9
            lines = sweep_csv(model).strip().splitlines()
            ks = [int(line.split(",")[0]) for line in lines[1:]]
            assert ks == [r["k"] for r in model.k_sweep_report]
            assert len(ks) == len(set(ks))


def test_criterion_9_classification_time_direction():
    with criterion(9, "ELM predict on <=9 features is no slower than on raw m>=128 series"):
        m = 128
        train = bump_dataset(seed=0, per_class=20, m=m, name="timing")
        test = bump_dataset(seed=1, per_class=200, m=m, name="timing_test")
        cfg = PipelineConfig(
            mining=MiningConfig(min_len=12, max_len=24, position_stride=2),
            evaluation=EvalConfig(repeats=2),
        )
        model = pipeline_fit(train, cfg)
        assert model.selected_k <= 9
        feats = apply_scaling(transform(test, model.shapelets, cfg.distance), model.scaling).X
        raw_scaling = Scaling.fit(train.X)
        raw_te = raw_scaling.apply(test.X)
        raw_model = elm.train(raw_scaling.apply(train.X), train.y, elm.ELMConfig(seed=0))

        reps = 120
        t_feat = time_predict(model.elm_model, feats, repetitions=reps)
        t_raw = time_predict(raw_model, raw_te, repetitions=reps)
        print(f"predict time over {reps} reps: transformed {t_feat:.4f}s vs raw {t_raw:.4f}s")
        assert t_feat <= t_raw


def test_time_predict_positive(toy_train):
    model = elm.train(toy_train.X, toy_train.y, elm.ELMConfig(seed=0))
    assert time_predict(model, toy_train.X, repetitions=5) > 0.0


def test_criterion_10_compare_determinism(tmp_path):
    with criterion(10, "two identical compare runs emit byte-identical accuracies and selected_k"):
        train = bump_dataset(seed=0)
        test = bump_dataset(seed=1)
        train_path = tmp_path / "toy_TRAIN.txt"
        test_path = tmp_path / "toy_TEST.txt"
        for d, p in ((train, train_path), (test, test_path)):
            with open(p, "w") as fh:
                write_ucr(d, fh)
        csvs, accs, ks = [], [], []
        for run in range(2):
            prefix = tmp_path / f"run{run}"
            rc = cli_main(
                [
                    "compare",
                    "--train",
                    str(train_path),
                    "--test",
                    str(test_path),
                    "--out-prefix",
                    str(prefix),
                    "--min-len",
                    "4",
                    "--max-len",
                    "6",
                    "--eval-repeats",
                    "2",
                    "--seed",
                    "3",
                ]
            )
            assert rc == 0
            csvs.append((tmp_path / f"run{run}.csv").read_bytes())
            blob = json.loads((tmp_path / f"run{run}.json").read_text())
            accs.append(json.dumps(blob["accuracies"], sort_keys=True))
            ks.append(blob["selected_k"])
        assert csvs[0] == csvs[1]
        assert accs[0] == accs[1]
        assert ks[0] == ks[1]
