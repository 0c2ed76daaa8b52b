import tracemalloc

import numpy as np
import pytest

from divshap.dataset import FLAT_STD, Dataset, znormalize
from divshap.distance import DistanceConfig, SeriesSums, Windows, nearest_window_dists
from divshap.errors import ShapeletLongerThanSeriesError
from divshap.mining import MiningConfig, Shapelet, generate_candidates
from divshap.pipeline import EvalConfig, PipelineConfig, fit
from divshap.transform import (
    FeatureMatrix,
    Scaling,
    apply_scaling,
    fit_scaling,
    transform,
)

from conftest import bump_dataset, xor_dataset
from test_distance import naive_subsequence_dist, series_with_flat_stretches


def make_shapelet(values, label=0, idx=0, start=0):
    return Shapelet(
        values=np.asarray(values, dtype=float),
        source_series=idx,
        start=start,
        length=len(values),
        class_label=label,
    )


def test_transform_self_containment_zero(toy_train):
    s = make_shapelet(toy_train.X[3, 2:8], idx=3, start=2)
    fm = transform(toy_train, [s])
    assert fm.X[3, 0] == 0.0


def test_transform_shape_single_column(toy_train):
    fm = transform(toy_train, [make_shapelet(toy_train.X[0, :5])])
    assert fm.X.shape == (toy_train.n, 1)


def test_transform_matches_entrywise_recomputation():
    rng = np.random.default_rng(21)
    d = Dataset(X=rng.normal(size=(5, 18)), y=rng.integers(0, 2, size=5))
    shapelets = [make_shapelet(rng.normal(size=L)) for L in (4, 6, 6)]
    fm = transform(d, shapelets)
    for i in range(d.n):
        for j, s in enumerate(shapelets):
            want = naive_subsequence_dist(d.X[i], s.values)
            assert fm.X[i, j] == pytest.approx(want, rel=1e-9, abs=1e-12)


def assert_matches_naive_scan(X, shapelets):
    d = Dataset(X=X, y=np.arange(len(X)) % 2)
    fm = transform(d, shapelets)
    for i in range(d.n):
        for j, s in enumerate(shapelets):
            want = naive_subsequence_dist(X[i], s.values)
            assert fm.X[i, j] == pytest.approx(want, rel=1e-9, abs=1e-12), (i, j)


def edge_queries(rng, X, lengths):
    """Random queries, a rescaled and shifted copy of a window of X, and a
    flat query, for each length."""
    out = []
    for L in lengths:
        out += [make_shapelet(rng.normal(size=L)) for _ in range(2)]
        out.append(make_shapelet(3.0 * X[0, 2 : 2 + L] - 7.0))
        out.append(make_shapelet(np.full(L, 4.0)))
    return out


def all_constant_row(rng, n, m):
    X = series_with_flat_stretches(rng, n, m)
    X[-1] = 2.5
    return X


EDGE_SERIES = {
    "offset+1e3": lambda rng, n, m: rng.normal(size=(n, m)) + 1e3,
    "offset-1e3": lambda rng, n, m: rng.normal(size=(n, m)) - 1e3,
    "offset+1e6": lambda rng, n, m: rng.normal(size=(n, m)) + 1e6,
    "scale1e-3": lambda rng, n, m: 1e-3 * rng.normal(size=(n, m)),
    "flat-stretches": all_constant_row,
    "drift-walk": lambda rng, n, m: np.cumsum(rng.normal(100.0, 1.0, size=(n, m)), axis=1),
}


@pytest.mark.parametrize("kind", sorted(EDGE_SERIES))
def test_transform_pick_matches_naive_scan_on_edge_series(kind):
    rng = np.random.default_rng(sorted(EDGE_SERIES).index(kind))
    X = EDGE_SERIES[kind](rng, 5, 36)
    assert_matches_naive_scan(X, edge_queries(rng, X, (3, 8, 17)))


@pytest.mark.parametrize("offset", [-1e3, 1e3, 1e6])
def test_offset_series_windows_take_their_std_from_prefix_sums(offset):
    """Prefix sums of the mean-centred series keep full precision under a
    large offset, so no window falls back to direct z-normalization (which
    sets its scale to exactly 1)."""
    X = np.random.default_rng(34).normal(size=(5, 36)) + offset
    for L in (3, 8, 17):
        scale = SeriesSums.of(X).windows(L).scale
        assert np.count_nonzero(scale == 1.0) == 0, L


def test_transform_pick_single_series_full_length_query():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(1, 14))
    shapelets = edge_queries(rng, X, (5, 14)) + [make_shapelet(X[0])]
    assert_matches_naive_scan(X, shapelets)
    assert transform(Dataset(X=X, y=np.array([0])), shapelets).X[0, -1] == 0.0


@pytest.mark.parametrize("n, lengths", [(1, (1, 2, 3)), (3, (1,))])
def test_transform_direct_windows_in_a_window_view(n, lengths):
    """With one series, or with L = 1, the centred windows are a read-only
    view of the series; flat windows, z-normalized directly, still go in."""
    rng = np.random.default_rng(35)
    X = rng.normal(size=(n, 80))
    X[:, 10:20] = 1.5
    X[:, 40:42] = X[:, 40:41] + 1e-10
    shapelets = [make_shapelet(rng.normal(size=L)) for L in lengths]
    for L in lengths:
        assert np.count_nonzero(SeriesSums.of(X).windows(L).scale == 1.0) > 0, L
    assert_matches_naive_scan(X, shapelets)


def test_transform_near_flat_window_in_offset_series():
    """A window whose std sits just above FLAT_STD, inside a series offset
    by 1e3, is a shape and not a flat window. Its variance from prefix sums
    is lost in their rounding (about 1e-14 against 2e-16), so the pick must
    z-normalize it directly."""
    rng = np.random.default_rng(32)
    L, start = 12, 10
    shape = znormalize(rng.normal(size=L))
    X = 1e3 + rng.normal(size=(3, 40))
    X[1, start : start + L] = 1e3 + 1.5e-8 * shape
    X[2, start : start + L] = 1e3 + 0.5e-8 * shape
    assert FLAT_STD < X[1, start : start + L].std() < 2 * FLAT_STD
    assert X[2, start : start + L].std() < FLAT_STD
    wcount = X.shape[1] - L + 1
    offset = SeriesSums.of(X).windows(L).offset
    assert offset[wcount + start] == L / 2 and offset[2 * wcount + start] == 0.0
    query = make_shapelet(shape + 0.3 * rng.normal(size=L))
    assert_matches_naive_scan(X, [query, make_shapelet(rng.normal(size=L))])
    # the query is nearer the near-flat window than a flat window could be
    assert transform(Dataset(X=X, y=np.arange(3) % 2), [query]).X[1, 0] < 0.5


@pytest.mark.parametrize("make", [bump_dataset, xor_dataset])
def test_transform_equals_znormalized_window_kernel_bit_for_bit(make):
    cfg = PipelineConfig(mining=MiningConfig(min_len=5, max_len=12), evaluation=EvalConfig(repeats=2))
    model = fit(make(seed=0), cfg)
    for d in (make(seed=0), make(seed=1)):
        got = transform(d, model.shapelets, cfg.distance).X
        for L in {s.length for s in model.shapelets}:
            cols = [j for j, s in enumerate(model.shapelets) if s.length == L]
            Q = np.array([znormalize(model.shapelets[j].values) for j in cols])
            want = nearest_window_dists(Q, Windows.of_series(d.X, L), cfg.distance)
            assert np.array_equal(got[:, cols], want.T), L


def test_transform_peak_memory_within_window_copy_budget():
    d = xor_dataset(seed=5, per_cell=125, m=80)
    lengths = (10, 15, 21, 26, 26, 27)
    shapelets = [make_shapelet(d.X[j, 3 : 3 + L], start=3) for j, L in enumerate(lengths)]
    n, m, k = d.n, d.m, len(shapelets)
    assert n == 500
    transform(d, shapelets)  # warm up
    tracemalloc.start()
    try:
        transform(d, shapelets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one length's plain window copy, plus the prefix sums and a few series-
    # and score-sized arrays; z-normalizing every window would add about two
    # more window copies
    budget = 8 * (max(n * (m - L + 1) * L for L in lengths) + 6 * n * m + 2 * k * n * m)
    assert peak < budget, (peak, budget)


def test_transform_without_window_normalization_matches_naive_scan():
    rng = np.random.default_rng(33)
    d = Dataset(X=series_with_flat_stretches(rng, 4, 20), y=np.arange(4) % 2)
    shapelets = edge_queries(rng, d.X, (4, 20))
    for cfg in (DistanceConfig(normalize_windows=False), DistanceConfig(False, False)):
        fm = transform(d, shapelets, cfg)
        for i in range(d.n):
            for j, s in enumerate(shapelets):
                want = naive_subsequence_dist(d.X[i], s.values, False, cfg.length_normalize)
                assert fm.X[i, j] == pytest.approx(want, rel=1e-9, abs=1e-12), (i, j)


def test_transform_column_independence():
    rng = np.random.default_rng(22)
    d = Dataset(X=rng.normal(size=(4, 16)), y=rng.integers(0, 2, size=4))
    a = [make_shapelet(rng.normal(size=5)) for _ in range(2)]
    b = [make_shapelet(rng.normal(size=7)) for _ in range(3)]
    combined = transform(d, a + b)
    separate = np.hstack([transform(d, a).X, transform(d, b).X])
    assert np.array_equal(combined.X, separate)


def test_transform_rejects_long_shapelet(toy_train):
    s = make_shapelet(np.zeros(toy_train.m + 1))
    with pytest.raises(ShapeletLongerThanSeriesError):
        transform(toy_train, [s])


def test_transform_entries_nonnegative_finite(toy_train):
    cands = generate_candidates(toy_train, MiningConfig(min_len=4, max_len=5))[:6]
    fm = transform(toy_train, cands)
    assert np.isfinite(fm.X).all()
    assert (fm.X >= 0).all()


def _fm(cols):
    X = np.asarray(cols, dtype=float).T
    return FeatureMatrix(X=X)


def test_scaling_example_column():
    fm = _fm([[0.0, 2.0, 4.0]])
    scaled = apply_scaling(fm, fit_scaling(fm))
    assert scaled.X[:, 0].tolist() == [0.0, 0.5, 1.0]


def test_scaling_constant_column_to_zero():
    fm = _fm([[3.0, 3.0, 3.0]])
    scaled = apply_scaling(fm, fit_scaling(fm))
    assert scaled.X[:, 0].tolist() == [0.0, 0.0, 0.0]


def test_scaling_clamps_out_of_range():
    train = _fm([[0.0, 4.0]])
    scaling = fit_scaling(train)
    test = _fm([[9.0, -1.0]])
    scaled = apply_scaling(test, scaling)
    assert scaled.X[:, 0].tolist() == [1.0, 0.0]


def test_scaling_train_maps_into_unit_interval():
    rng = np.random.default_rng(5)
    fm = _fm([rng.uniform(-10, 10, size=12) for _ in range(4)])
    scaled = apply_scaling(fm, fit_scaling(fm))
    assert (scaled.X >= 0).all() and (scaled.X <= 1).all()
