import dataclasses
import io
import json
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from divshap import elm
from divshap.dataset import Dataset, stratified_folds
from divshap.distance import DistanceConfig
from divshap.errors import (
    DivshapError,
    EmptyInputError,
    FlatTrainingSetError,
    InvalidConfigError,
    LeaveOneOutFoldsWarning,
    LengthMismatchError,
    ModelFormatError,
    NoUsableFoldsWarning,
    SingleClassTrainingError,
    ValueRangeError,
)
from divshap.graph import DiversityGraph, build_graph, similar
from divshap.mining import MiningConfig, mine_shapelets
from divshap.pipeline import (
    EvalConfig,
    PipelineConfig,
    _sweep_elm_seed,
    accuracy,
    fit,
    load_pipeline,
    predict_pipeline,
    save_pipeline,
    select_k,
)
from divshap.transform import Scaling, apply_scaling, transform

from conftest import bump_dataset, xor_dataset

FAST = dict(mining=MiningConfig(min_len=4, max_len=6), evaluation=EvalConfig(repeats=2))


def small_cfg(**kw):
    args = dict(FAST)
    args.update(kw)
    return PipelineConfig(**args)


@pytest.fixture(scope="module")
def fitted(request):
    return fit(bump_dataset(seed=0), small_cfg())


def test_perfect_single_shapelet_prefers_k1(fitted):
    # one bump shapelet separates the toy classes; ties go to smaller k
    report = fitted.k_sweep_report
    top = max(r["mean_accuracy"] for r in report)
    first_best = next(r["k"] for r in report if r["mean_accuracy"] == top)
    assert fitted.selected_k == first_best


def test_kappa_one_selects_one(toy_train):
    model = fit(toy_train, small_cfg(kappa=1))
    assert model.selected_k == 1
    assert len(model.k_sweep_report) == 1


def test_two_shapelet_boundary_selects_k2():
    d = xor_dataset(seed=0)
    cfg = PipelineConfig(
        mining=MiningConfig(min_len=6, max_len=10), evaluation=EvalConfig(repeats=3)
    )
    model = fit(d, cfg)
    assert model.selected_k == 2
    by_k = {r["k"]: r["mean_accuracy"] for r in model.k_sweep_report}
    assert by_k[1] < by_k[2]
    # independent re-evaluation of the sweep rows through the public pieces
    mined = mine_shapelets(d, MiningConfig(min_len=6, max_len=10, normalize=cfg.distance))
    graph = build_graph(mined, cfg.distance)
    _, _, report = select_k(graph, d, cfg)
    assert [r["mean_accuracy"] for r in report] == [
        r["mean_accuracy"] for r in model.k_sweep_report
    ]


def test_fit_deterministic(toy_train):
    a = fit(toy_train, small_cfg())
    b = fit(toy_train, small_cfg())
    assert a.selected_k == b.selected_k
    assert np.array_equal(a.elm_model.beta, b.elm_model.beta)
    assert a.shapelets == b.shapelets
    assert a.k_sweep_report == b.k_sweep_report


def test_fit_two_series_per_class_completes():
    d = bump_dataset(seed=2, per_class=2, m=24)
    model = fit(d, small_cfg())
    assert 1 <= model.selected_k <= 9


def test_fit_single_class_rejected():
    d = Dataset(X=np.random.default_rng(0).normal(size=(4, 16)), y=np.zeros(4, dtype=int))
    with pytest.raises(SingleClassTrainingError):
        fit(d, small_cfg())


def test_accuracy_is_the_float_mean_of_agreements_bit_for_bit():
    """A count of agreements over n has the bits of the float64 mean of the
    bool array, at every size and share; no rows give None."""
    rng = np.random.default_rng(0)
    for n in [*range(1, 130), *rng.integers(130, 2001, size=60).tolist(), 2000]:
        y = rng.integers(0, 3, size=n)
        pred = np.where(rng.random(n) < rng.random(), y, rng.integers(0, 3, size=n))
        got, want = accuracy(pred, y), float((pred == y).mean())
        assert isinstance(got, float) and np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64), n
    assert accuracy(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)) is None


def test_fit_beats_majority_baseline(toy_train):
    model = fit(toy_train, small_cfg())
    _, acc = predict_pipeline(model, toy_train)
    majority = np.bincount(toy_train.y).max() / toy_train.n
    assert acc >= majority


def test_predict_on_train_matches_elm_training_accuracy(fitted):
    train = bump_dataset(seed=0)
    _, acc = predict_pipeline(fitted, train)
    feats = apply_scaling(
        transform(train, fitted.shapelets, fitted.config.distance), fitted.scaling
    )
    want = float((elm.predict(fitted.elm_model, feats.X) == train.y).mean())
    assert acc == want


def test_predict_empty_test(fitted):
    train = bump_dataset(seed=0)
    empty = Dataset(X=np.empty((0, train.m)), y=np.empty(0, dtype=int))
    labels, acc = predict_pipeline(fitted, empty)
    assert len(labels) == 0
    assert acc is None


def test_predict_length_mismatch(fitted):
    bad = Dataset(X=np.zeros((2, 99)), y=np.array([1, 2]))
    with pytest.raises(LengthMismatchError):
        predict_pipeline(fitted, bad)


def test_model_roundtrip_identical_predictions(fitted, toy_test):
    buf = io.StringIO()
    save_pipeline(fitted, buf)
    buf.seek(0)
    loaded = load_pipeline(buf)
    a, acc_a = predict_pipeline(fitted, toy_test)
    b, acc_b = predict_pipeline(loaded, toy_test)
    assert np.array_equal(a, b)
    assert acc_a == acc_b
    assert loaded.shapelets == fitted.shapelets
    assert loaded.config == fitted.config


def _saved_blob(model):
    buf = io.StringIO()
    save_pipeline(model, buf)
    return json.loads(buf.getvalue())


def _load_blob(blob):
    return load_pipeline(io.StringIO(json.dumps(blob)))


def _with_evaluation(blob, **fields):
    config = blob["config"]
    return {**blob, "config": {**config, "evaluation": {**config["evaluation"], **fields}}}


def _with_elm_config(blob, **fields):
    config = blob["config"]
    return {**blob, "config": {**config, "elm": {**config["elm"], **fields}}}


def _with_shapelet(blob, **fields):
    """blob with fields of its first shapelet replaced."""
    first, *rest = blob["shapelets"]
    return {**blob, "shapelets": [{**first, **fields}, *rest]}


def test_load_ignores_keys_of_removed_options(fitted, toy_test):
    """Files written by versions with since-removed mining options carry
    extra keys in the mining config; they load and predict unchanged."""
    blob = _saved_blob(fitted)
    blob["config"]["mining"]["removed_flag"] = False
    blob["config"]["mining"]["removed_section"] = {"word_length": 8, "seed": 0}
    loaded = _load_blob(blob)
    assert loaded.config == fitted.config
    assert np.array_equal(predict_pipeline(loaded, toy_test)[0], predict_pipeline(fitted, toy_test)[0])


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda b: {"format": b["format"], "version": b["version"]},
        lambda b: {**b, "format": "other"},
        lambda b: {**b, "version": 99},
        lambda b: {**b, "config": {k: v for k, v in b["config"].items() if k != "kappa"}},
        lambda b: {**b, "shapelets": b["shapelets"][1:]},
        lambda b: {**b, "scaling": {"mins": [], "maxs": []}},
        lambda b: {**b, "elm": {**b["elm"], "codebook": [0]}},
        lambda b: {**b, "shapelets": 3},
        lambda b: _with_evaluation(b, mode="CV"),
        lambda b: _with_evaluation(b, repeats=0),
        lambda b: [],
        lambda b: _with_shapelet(b, values=[math.nan] + b["shapelets"][0]["values"][1:]),
        lambda b: {**b, "elm": {**b["elm"], "beta": [[math.nan] + b["elm"]["beta"][0][1:], *b["elm"]["beta"][1:]]}},
        lambda b: {**b, "scaling": {**b["scaling"], "mins": [math.nan] + b["scaling"]["mins"][1:]}},
        lambda b: _with_shapelet(b, length=b["shapelets"][0]["length"] + 1),
        lambda b: _with_shapelet(b, values=[], length=0),
        lambda b: _with_shapelet(b, values=[0.0] * (b["trained_m"] + 1), length=b["trained_m"] + 1),
        lambda b: {**b, "elm": {**b["elm"], "activation": "relu"}},
        lambda b: {**b, "elm": {**b["elm"], "b": b["elm"]["b"][1:]}},
        lambda b: {**b, "scaling": {"mins": 0.0, "maxs": 0.0}},
        lambda b: {**b, "elm": {**b["elm"], "codebook": 1}},
        lambda b: _with_elm_config(b, ridge=-1.0),
        lambda b: _with_elm_config(b, ridge=math.nan),
        lambda b: _with_elm_config(b, ridge=math.inf),
        lambda b: {**b, "config": {**b["config"], "kappa": 0}},
        lambda b: {**b, "config": {**b["config"], "kappa": 2.5}},
        lambda b: _with_evaluation(b, repeats=2.5),
        lambda b: _with_evaluation(b, seed=-1),
        lambda b: _with_elm_config(b, seed=-1),
        lambda b: {**b, "config": {**b["config"], "mining": {**b["config"]["mining"], "min_len": 4.5}}},
    ],
)
def test_load_rejects_malformed_model(fitted, corrupt):
    with pytest.raises(ModelFormatError):
        _load_blob(corrupt(_saved_blob(fitted)))


def test_load_rejects_non_json():
    with pytest.raises(ModelFormatError):
        load_pipeline(io.StringIO("not json"))


def test_selected_set_is_pairwise_dissimilar(fitted):
    cfg = fitted.config
    for i in range(len(fitted.shapelets)):
        for j in range(i + 1, len(fitted.shapelets)):
            assert not similar(
                fitted.shapelets[i], fitted.shapelets[j], cfg.distance, cfg.same_class_only
            )


def test_sweep_report_invariants(fitted):
    report = fitted.k_sweep_report
    ks = [r["k"] for r in report]
    assert ks == list(range(1, len(report) + 1))
    best = max(r["mean_accuracy"] for r in report)
    selected_row = next(r for r in report if r["k"] == fitted.selected_k)
    assert selected_row["mean_accuracy"] == best
    for r in report:
        assert len(r["per_repeat"]) == fitted.config.evaluation.repeats
        assert sum(r["class_counts"].values()) == r["k"]


def test_sweep_seeds_fixed_per_cell():
    assert _sweep_elm_seed(0, 3, 1) == _sweep_elm_seed(0, 3, 1)
    assert _sweep_elm_seed(0, 3, 1) != _sweep_elm_seed(0, 3, 2)
    assert _sweep_elm_seed(0, 3, 1) != _sweep_elm_seed(0, 4, 1)


@pytest.mark.parametrize(
    "bad",
    [
        dict(mode="CV"),
        dict(mode="loo"),
        dict(repeats=0),
        dict(repeats=-2),
        dict(folds=1),
        dict(repeats=2.5),
        dict(folds=2.5),
        dict(repeats=True),
        dict(seed=-1),
        dict(seed=0.5),
    ],
)
def test_eval_config_rejects_unknown_mode_and_repeats_below_one(bad):
    """Before, repeats=0 fitted a model with no selected k, any mode but
    "cv" scored training accuracy, and folds=1 was clamped to 2. A
    fractional repeat count ended in a TypeError, fractional folds were
    accepted and a negative seed ended in numpy's ValueError."""
    with pytest.raises(InvalidConfigError) as info:
        EvalConfig(**bad)
    assert isinstance(info.value, DivshapError)


@pytest.mark.parametrize("kappa", [0, -3, 2.5, True, np.float64(3.0)])
def test_pipeline_config_rejects_kappa_below_one(kappa):
    """Before, kappa=0 was clamped to 1 and silently swept k=1, and
    kappa=2.5 swept every k the greedy pool reached, since the scan never
    kept exactly 2.5 shapelets."""
    with pytest.raises(InvalidConfigError):
        PipelineConfig(kappa=kappa)


@pytest.mark.parametrize("workers", [0, -1, 2.5, True])
def test_fit_rejects_a_worker_count_below_one_before_mining(workers, monkeypatch):
    """Before, each of these mined: 0 and -1 silently ran one thread, and
    2.5 and True were read as numbers."""
    import divshap.mining

    def mined(*args, **kwargs):
        raise AssertionError("candidates generated")

    monkeypatch.setattr(divshap.mining, "generate_candidates", mined)
    d = Dataset(X=np.random.default_rng(0).normal(size=(8, 12)), y=np.repeat([0, 1], 4))
    with pytest.raises(InvalidConfigError, match="workers"):
        fit(d, workers=workers)


@pytest.mark.parametrize(
    "build",
    [
        lambda: DistanceConfig(normalize_windows="false"),
        lambda: DistanceConfig(length_normalize=1),
        lambda: PipelineConfig(same_class_only="no"),
        lambda: PipelineConfig(znormalize_series="no"),
        lambda: PipelineConfig(znormalize_series=None),
    ],
)
def test_configs_reject_flags_that_are_not_bools(build):
    """Before, each was accepted and read as its truth value: the string
    "false" z-normalized windows, and "no" kept same-class edges only and
    z-normalized every series."""
    with pytest.raises(InvalidConfigError, match="True or False"):
        build()


def test_configs_accept_numpy_bools():
    assert not DistanceConfig(normalize_windows=np.bool_(False)).normalize_windows
    assert PipelineConfig(same_class_only=np.bool_(True), znormalize_series=False).same_class_only


def test_configs_accept_numpy_integers():
    ev = EvalConfig(folds=np.int32(3), repeats=np.int64(2), seed=np.int64(0))
    cfg = PipelineConfig(kappa=np.int64(3), evaluation=ev)
    assert cfg.kappa == 3 and cfg.evaluation.folds == 3
    assert elm.ELMConfig(n_hidden=np.int64(4), seed=np.uint32(7)).seed == 7


def test_large_scale_fits_as_scale_one_or_raises_when_built():
    """Below the overflow bound a scaled set selects the same shapelets and
    scores the same accuracy, with no RuntimeWarning. Above it, building the
    Dataset raises: before, squares overflowed in the window statistics and
    accuracy fell to 0.475 (1e154) or 0.5 (1e200, 1e300) with only numpy
    RuntimeWarnings as a sign."""
    train, test = bump_dataset(seed=0, per_class=4, m=40), bump_dataset(seed=1, per_class=20, m=40)
    cfg = small_cfg(mining=MiningConfig(min_len=4, max_len=8))
    base = fit(train, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scaled = fit(Dataset(X=train.X * 1e152, y=train.y), cfg)
        acc = predict_pipeline(scaled, Dataset(X=test.X * 1e152, y=test.y))[1]
    assert [s.id for s in scaled.shapelets] == [s.id for s in base.shapelets]
    assert acc == predict_pipeline(base, test)[1]
    for scale in (1e154, 1e200, 1e300):
        with pytest.raises(ValueRangeError):
            Dataset(X=train.X * scale, y=train.y)


def test_small_scale_fits_as_scale_one_or_raises_when_flat():
    """Flat windows are judged by an absolute bound (FLAT_STD), so a set
    scaled by 1e-9 reads as flat everywhere: every gain was 0 and held-out
    accuracy 0.5, with no sign. Now mining raises when every candidate
    window is flat; 1e-7 still fits as scale 1 does."""
    train, test = bump_dataset(seed=0, per_class=4, m=40), bump_dataset(seed=1, per_class=20, m=40)
    cfg = small_cfg(mining=MiningConfig(min_len=4, max_len=8))
    base = fit(train, cfg)
    scaled = fit(Dataset(X=train.X * 1e-7, y=train.y), cfg)
    assert [s.id for s in scaled.shapelets] == [s.id for s in base.shapelets]
    assert predict_pipeline(scaled, Dataset(X=test.X * 1e-7, y=test.y))[1] == predict_pipeline(base, test)[1]
    for X in (train.X * 1e-9, train.X * 1e-12, np.full_like(train.X, 3.0)):
        with pytest.raises(FlatTrainingSetError):
            fit(Dataset(X=X, y=train.y), cfg)


def test_select_k_on_empty_graph_raises_empty_input(toy_train):
    with pytest.raises(EmptyInputError):
        select_k(DiversityGraph([]), toy_train, small_cfg())


def test_training_accuracy_eval_mode(toy_train):
    cfg = small_cfg(evaluation=EvalConfig(mode="train", repeats=2))
    model = fit(toy_train, cfg)
    assert 1 <= model.selected_k <= 9


def test_short_greedy_pool_skips_larger_k():
    # every same-class candidate pair is similar: huge thresholds force a
    # clique per class, so the pool holds at most one shapelet per class and
    # the sweep stops there instead of running to kappa
    d = bump_dataset(seed=3, per_class=3, m=16)
    cfg = small_cfg(mining=MiningConfig(min_len=4, max_len=5))
    mined = mine_shapelets(d, cfg.mining)
    boosted = [dataclasses.replace(s, split_threshold=1e9) for s in mined]
    graph = build_graph(boosted, cfg.distance)
    k, shapelets, report = select_k(graph, d, cfg)
    assert len(report) <= 2
    assert [r["k"] for r in report] == list(range(1, len(report) + 1))
    assert 1 <= k <= len(report)
    assert len(shapelets) == k


def test_cv_without_usable_folds_warns_once_and_scores_training_accuracy():
    """One series per class leaves every fold's fit side with one class, so
    the sweep falls back to training accuracy for the whole sweep."""
    d = bump_dataset(seed=0, per_class=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cv = fit(d, small_cfg())
    assert [str(w.message) for w in caught].count("no usable CV folds; falling back to training accuracy") == 1
    train = fit(d, small_cfg(evaluation=EvalConfig(mode="train", repeats=2)))
    assert cv.k_sweep_report == train.k_sweep_report


def test_fold_warnings_each_raise_their_own_category():
    """One series per class gives both warnings: stratified_folds' leave-
    one-out fallback for each class, then _eval_splits' fallback to
    training accuracy. Each is a UserWarning of its own category, so a
    reader can count the fold fallbacks alone."""
    d = bump_dataset(seed=0, per_class=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit(d, small_cfg())
    kinds = Counter(w.category for w in caught)
    assert kinds[NoUsableFoldsWarning] == 1 and kinds[LeaveOneOutFoldsWarning] == 2, kinds
    for w in caught:
        no_folds = str(w.message).startswith("no usable CV folds")
        assert w.category is (NoUsableFoldsWarning if no_folds else LeaveOneOutFoldsWarning)
    assert not issubclass(NoUsableFoldsWarning, LeaveOneOutFoldsWarning)
    assert not issubclass(LeaveOneOutFoldsWarning, NoUsableFoldsWarning)
    with pytest.warns(LeaveOneOutFoldsWarning):
        stratified_folds(d, 2, seed=0)


@pytest.mark.parametrize("mode, splits", [("cv", 5), ("train", 1)])
def test_sweep_scales_each_split_once(monkeypatch, toy_train, mode, splits):
    """Scaling is fitted once per evaluation split and once for the final
    model; an ELM is trained per (k, repeat, split) cell and once more."""
    calls = Counter()
    scaling_fit, elm_train = Scaling.fit.__func__, elm.train

    def counting_fit(cls, X):
        calls["Scaling.fit"] += 1
        return scaling_fit(cls, X)

    def counting_train(*args, **kwargs):
        calls["elm.train"] += 1
        return elm_train(*args, **kwargs)

    monkeypatch.setattr(Scaling, "fit", classmethod(counting_fit))
    monkeypatch.setattr(elm, "train", counting_train)
    model = fit(toy_train, small_cfg(evaluation=EvalConfig(mode=mode, repeats=2)))
    assert calls["Scaling.fit"] == splits + 1
    assert calls["elm.train"] == len(model.k_sweep_report) * 2 * splits + 1
