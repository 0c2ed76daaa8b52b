import tracemalloc

import numpy as np
import pytest

import divshap.distance as distance_mod
import divshap.mining as mining_mod
import divshap.pipeline as pipeline_mod
from divshap.dataset import FLAT_STD, Dataset, znorm_rows, znormalize
from divshap.distance import (
    RUNNING_VAR_MARGIN,
    DistanceConfig,
    SeriesSums,
    Windows,
    band_tiles,
    nearest_window_dists,
    znorm_offset,
)
from divshap.errors import ShapeletLongerThanSeriesError
from divshap.mining import MiningConfig, Shapelet, generate_candidates
from divshap.pipeline import EvalConfig, PipelineConfig, fit, predict_pipeline
from divshap.transform import (
    FeatureMatrix,
    Scaling,
    apply_scaling,
    fit_scaling,
    transform,
)

from conftest import REPO_ROOT, bump_dataset, xor_dataset
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
    """With one series, or with L = 1, flat windows, z-normalized
    directly, still go in (they once crashed a read-only window view)."""
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
    offset = window_offsets(SeriesSums.of(X).windows(L))
    assert offset[1, start] == L / 2 and offset[2, start] == 0.0
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


def window_copy_pick(Q, X):
    """The pick before the banded product, kept as its oracle: (nearest
    starts, distances, scale, offset, direct, zdirect) from a copy of every
    centred window, its product with the z-normalized queries Q, x scale -
    offset, and the rows zdirect of the windows z-normalized directly
    written into the copy. scale, offset and the mask direct are (series,
    start) arrays, and zdirect lists its rows in (series, start) order. The
    prefix sums of the centred series and of their squares are its own,
    one per array, so it reads nothing of SeriesSums."""
    k, L = Q.shape
    n, m = X.shape
    wcount = m - L + 1
    centered = X - X.mean(axis=1, keepdims=True)
    zero = np.zeros((n, 1))
    s1 = np.concatenate([zero, np.cumsum(centered, axis=1)], axis=1)
    s2 = np.concatenate([zero, np.cumsum(centered * centered, axis=1)], axis=1)
    mean = (s1[:, L:] - s1[:, :wcount]) / L
    var = (s2[:, L:] - s2[:, :wcount]) / L - mean * mean
    bound = 3 * m * np.finfo(np.float64).eps * s2[:, -1:] * np.sqrt(m / L) / L
    direct = var < np.maximum(RUNNING_VAR_MARGIN * bound, (2 * FLAT_STD) ** 2)
    view = np.lib.stride_tricks.sliding_window_view
    scan = view(centered, L, axis=1).copy()
    scale = 1.0 / np.sqrt(np.where(direct, 1.0, var))
    offset = np.full((n, wcount), 0.5 * L)
    scan[direct] = znorm_rows(view(X, L, axis=1)[direct])
    offset[direct] = znorm_offset(scan[direct])
    score = (Q @ scan.reshape(n * wcount, L).T).reshape(k, n, wcount)
    score *= scale
    score -= offset
    nearest = score.argmax(axis=2)
    picked = view(X, L, axis=1)[np.arange(n), nearest].reshape(k * n, L)
    diff = znorm_rows(picked).reshape(k, n, L) - Q[:, None]
    dist = np.einsum("ijk,ijk->ij", diff, diff) / L
    return nearest, dist, scale, offset, direct, scan[direct]


def window_offsets(windows):
    """(series, start) array of the offset every z-normalized window of
    windows scores with: windows.offset, or that of its row in zdirect when
    it is z-normalized directly."""
    offset = np.full(windows.scale.shape, windows.offset)
    offset[windows.direct] = znorm_offset(windows.zdirect)
    return offset


def assert_pick_matches_window_copy(X, Q):
    """The banded pick gives the oracle's starts, scale, offsets, directly
    z-normalized windows and distances bit for bit, and keeps the offset
    L/2 of the other windows as one number."""
    L = Q.shape[1]
    want_nearest, want, scale, offset, direct, zdirect = window_copy_pick(Q, np.asarray(X, dtype=np.float64))
    windows = SeriesSums.of(X).windows(L)
    assert np.array_equal(windows.scale, scale)
    assert np.ndim(windows.offset) == 0 and windows.offset == 0.5 * L
    assert np.array_equal(windows.direct, np.nonzero(direct))
    assert np.array_equal(windows.zdirect, zdirect)
    assert np.array_equal(window_offsets(windows), offset)
    assert np.array_equal(windows.scores(Q).argmax(axis=2), want_nearest)
    assert np.array_equal(nearest_window_dists(Q, windows), want)


RAW = DistanceConfig(normalize_windows=False)


def assert_raw_pick_matches_window_copy(X, Q):
    """The banded pick of raw windows gives the window copy's offsets,
    picked windows and distances bit for bit, with and without length
    normalization; it reads no prefix sums and z-normalizes no window.

    A start may differ only between windows of equal values: the copy
    scores those exactly alike, while the band sums each window's products
    in an order set by its place in the tile, so they may score a rounding
    apart (a flat query against a flat stretch does)."""
    L = Q.shape[1]
    copy = Windows.of_series(X, L, RAW)
    sums = SeriesSums.of(X, RAW)
    windows = sums.windows(L)
    assert sums.s1 is None and windows.scale is None
    assert len(windows.direct[0]) == len(windows.direct[1]) == len(windows.zdirect) == 0
    assert np.array_equal(windows.offset, copy.scan[:, :, L])
    picked = windows.measured(windows.scores(Q).argmax(axis=2))
    assert np.array_equal(picked, copy.measured(copy.scores(Q).argmax(axis=2)))
    for cfg in (RAW, DistanceConfig(False, False)):
        assert np.array_equal(nearest_window_dists(Q, windows, cfg), nearest_window_dists(Q, copy, cfg))


def raw_queries(shapelets, L):
    return np.array([s.values for s in shapelets if s.length == L])


def znormalized_queries(shapelets, L):
    return znorm_rows(raw_queries(shapelets, L))


@pytest.mark.parametrize("tile_starts", [distance_mod.TILE_STARTS, 8, 1])
@pytest.mark.parametrize("kind", sorted(EDGE_SERIES))
def test_banded_pick_equals_window_copy_on_edge_series(monkeypatch, kind, tile_starts):
    """Four queries of each length against 80 series: in one tile, in tiles
    narrowed so that the band stays within them, in tiles of 8 or more
    starts with a ragged last one, and in tiles of L starts."""
    monkeypatch.setattr(distance_mod, "TILE_STARTS", tile_starts)
    rng = np.random.default_rng(sorted(EDGE_SERIES).index(kind))
    X = EDGE_SERIES[kind](rng, 80, 36)
    shapelets = edge_queries(rng, X, (1, 3, 8, 17, 36))
    for L in (1, 3, 8, 17, 36):
        assert_pick_matches_window_copy(X, znormalized_queries(shapelets, L))


@pytest.mark.parametrize("tile_starts", [distance_mod.TILE_STARTS, 8, 1])
@pytest.mark.parametrize("kind", sorted(EDGE_SERIES))
def test_raw_banded_pick_equals_window_copy_on_edge_series(monkeypatch, kind, tile_starts):
    """The tiles of the test above, for raw windows: the band multiplies
    the series themselves."""
    monkeypatch.setattr(distance_mod, "TILE_STARTS", tile_starts)
    rng = np.random.default_rng(sorted(EDGE_SERIES).index(kind))
    X = EDGE_SERIES[kind](rng, 80, 36)
    shapelets = edge_queries(rng, X, (1, 3, 8, 17, 36))
    for L in (1, 3, 8, 17, 36):
        assert_raw_pick_matches_window_copy(X, raw_queries(shapelets, L))


@pytest.mark.parametrize(
    "m, L, n, k, tiles, B",
    [
        (10, 4, 8, 1, 1, 7),  # fewer windows than one tile
        (43, 4, 4, 1, 5, 8),  # a whole number of tiles
        (45, 4, 4, 1, 5, 9),  # a ragged last tile
        (40, 1, 4, 1, 5, 8),
        (40, 40, 1, 4, 1, 1),
        (45, 4, 1, 1, 7, 6),  # one series: tiles narrowed to bound the band
        (40, 4, 1, 4, 13, 3),  # and narrower for more queries
        (10, 8, 1, 4, 3, 1),  # more queries than windows
    ],
)
def test_banded_pick_tiles(monkeypatch, m, L, n, k, tiles, B):
    monkeypatch.setattr(distance_mod, "TILE_STARTS", 8)
    assert band_tiles(n, k, L, m - L + 1) == (tiles, B)
    assert k * (B + L - 1) * B <= max(n * tiles * (B + L - 1), k * L)
    rng = np.random.default_rng(m + L + n)
    X = series_with_flat_stretches(rng, n, m)
    raw = np.vstack([rng.normal(size=(k - 1, L)), X[:1, m - L :]])
    assert_pick_matches_window_copy(X, znorm_rows(raw))
    assert_raw_pick_matches_window_copy(X, raw)


def test_banded_pick_on_read_only_and_integer_series():
    rng = np.random.default_rng(36)
    X = rng.integers(-3, 4, size=(4, 30))
    Q = znorm_rows(rng.normal(size=(2, 6)))
    frozen = X.astype(np.float64)
    frozen.flags.writeable = False
    for series in (X, frozen):
        assert_pick_matches_window_copy(series, Q)
        # integer queries tie exactly, so the first maximum must be kept
        assert_raw_pick_matches_window_copy(series, np.vstack([Q, X[1, 3:9], np.ones(6)]))
    assert np.array_equal(X, frozen)


def test_banded_pick_on_walk_rows_mixed_with_noise_rows():
    """Drifting-walk rows, whose short windows go direct, interleaved with
    white-noise rows, whose windows here do not: at L = 4 the batch takes
    the direct path for walk rows only; at L = 10 and 32, and for the noise
    rows alone, it has no direct window and gathers none. Every case gives
    the window copy's pick bit for bit."""
    rng = np.random.default_rng(38)
    X = rng.normal(size=(8, 128))
    X[::2] = np.cumsum(rng.normal(100.0, 1.0, size=(4, 128)), axis=1)
    for L in (4, 10, 32):
        Q = znorm_rows(rng.normal(size=(3, L)))
        for batch, direct in ((X, L == 4), (X[1::2], False)):
            windows = SeriesSums.of(batch).windows(L)
            series = np.unique(windows.direct[0])
            if direct:
                assert np.array_equal(series, [0, 2, 4, 6]), L
            else:
                assert len(series) == len(windows.direct[1]) == len(windows.zdirect) == 0, L
                assert windows.zdirect.shape == (0, L)
            assert_pick_matches_window_copy(batch, Q)


def test_shapelet_caches_its_znormalized_values_read_only():
    rng = np.random.default_rng(39)
    for values in (3.0 * rng.normal(size=9) + 2.0, np.full(5, 4.0), rng.normal(size=1)):
        s = make_shapelet(values)
        z = s.znormed
        assert z is s.znormed
        assert not z.flags.writeable
        assert z.tobytes() == znorm_rows(values[None])[0].tobytes()
        with pytest.raises(ValueError):
            z[0] = 1.0


def test_predict_without_direct_windows_znormalizes_once_per_length(monkeypatch):
    """After a first predict has cached the model's queries, a predict of a
    batch with no direct window runs znorm_rows only on each length's
    picked windows: once per length, as each length is one slice."""
    model = fit(bump_dataset(seed=0), PipelineConfig(mining=MiningConfig(min_len=5, max_len=12), evaluation=EvalConfig(repeats=2)))
    lengths = {s.length for s in model.shapelets}
    test = bump_dataset(seed=1)
    for L in lengths:
        assert len(SeriesSums.of(test.X).windows(L).zdirect) == 0, L
    predict_pipeline(model, test)
    calls = []

    def counted(w, out=None):
        calls.append(w.shape)
        return znorm_rows(w, out=out)

    for module in (distance_mod, mining_mod, pipeline_mod):
        monkeypatch.setattr(module, "znorm_rows", counted)
    predict_pipeline(model, test)
    assert len(calls) == len(lengths), calls


def test_banded_pick_rejects_long_query():
    with pytest.raises(ShapeletLongerThanSeriesError):
        SeriesSums.of(np.zeros((2, 5))).windows(6)


@pytest.mark.parametrize("workload", ["fit-long", "fit-wide", "predict-batch"])
def test_banded_pick_equals_window_copy_on_serving_batches(monkeypatch, workload):
    """Every seed-0 to seed-2 predict batch of a serving model at the smoke
    test's sizes, every shapelet length of the model."""
    monkeypatch.syspath_prepend(str(REPO_ROOT / "benchmark"))
    from workloads import TINY

    wl = TINY[workload]
    model = fit(wl.model_data()[0], PipelineConfig())
    for seed in range(3):
        for j in range(wl.draws):
            X = wl.batch(seed, j).X
            for L in {s.length for s in model.shapelets}:
                assert_pick_matches_window_copy(X, znormalized_queries(model.shapelets, L))
                assert_raw_pick_matches_window_copy(X, raw_queries(model.shapelets, L))


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


@pytest.mark.parametrize("normalize", [True, False])
def test_transform_peak_memory_without_a_window_copy(normalize):
    """The set of the test above, within its budget less the window copy:
    the banded product reads the series (centred, for z-normalized windows)
    in place, plus its band. Raw windows were once copied with their
    offsets (12.4 MB peak)."""
    d = xor_dataset(seed=5, per_cell=125, m=80)
    lengths = (10, 15, 21, 26, 26, 27)
    shapelets = [make_shapelet(d.X[j, 3 : 3 + L], start=3) for j, L in enumerate(lengths)]
    n, m, k = d.n, d.m, len(shapelets)
    cfg = DistanceConfig(normalize_windows=normalize)
    transform(d, shapelets, cfg)  # warm up
    tracemalloc.start()
    try:
        transform(d, shapelets, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    band = 0
    for L in set(lengths):
        B = band_tiles(n, lengths.count(L), L, m - L + 1)[1]
        band = max(band, 8 * lengths.count(L) * (B + L - 1) * B)
    budget = 8 * (6 * n * m + 2 * k * n * m) + band
    assert peak < budget, (peak, budget)


def test_transform_one_long_series_within_window_copy_budget():
    """Nine long queries against one series: the tiles narrow, so the band
    stays within the window copy it replaces, and the features are the
    oracle's."""
    rng = np.random.default_rng(37)
    d = Dataset(X=rng.normal(size=(1, 1100)), y=np.array([0]))
    L, k = 512, 9
    shapelets = [make_shapelet(d.X[0, 60 * j : 60 * j + L], start=60 * j) for j in range(k)]
    n, m = d.n, d.m
    transform(d, shapelets)  # warm up
    tracemalloc.start()
    try:
        got = transform(d, shapelets).X
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the budget of test_transform_peak_memory_within_window_copy_budget
    budget = 8 * (n * (m - L + 1) * L + 6 * n * m + 2 * k * n * m)
    assert peak < budget, (peak, budget)
    Q = znorm_rows(np.array([s.values for s in shapelets]))
    assert np.array_equal(got.T, window_copy_pick(Q, d.X)[1])


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


def test_scaling_apply_matches_the_clip_and_where_expression_bit_for_bit():
    """apply clamps in place; on values inside, at and far outside the
    training range, zeros of either sign, and constant columns (one held
    at zero, one elsewhere), it gives the bits of
    where(span > 0, clip((X - mins) / where(span > 0, span, 1), 0, 1), 0),
    and leaves X as it was."""
    rng = np.random.default_rng(6)
    train = rng.uniform(-3.0, 5.0, size=(20, 6))
    train[:, 2] = 7.5
    train[:, 4] = 0.0
    train[0, 5] = 0.0
    train[1:, 5] = np.abs(train[1:, 5])
    X = np.vstack([rng.uniform(-40.0, 40.0, size=(30, 6)), train, np.zeros((1, 6)), np.full((1, 6), -0.0)])
    for scaling in (Scaling.fit(train), Scaling.fit(train[:, [0, 1, 3, 5]])):
        cols = X[:, : len(scaling.mins)].copy()
        span = scaling.maxs - scaling.mins
        want = np.clip((cols - scaling.mins) / np.where(span > 0, span, 1.0), 0.0, 1.0)
        want = np.where(span > 0, want, 0.0)
        before = cols.copy()
        assert scaling.apply(cols).tobytes() == want.tobytes()
        assert np.array_equal(cols, before)


def test_scaling_train_maps_into_unit_interval():
    rng = np.random.default_rng(5)
    fm = _fm([rng.uniform(-10, 10, size=12) for _ in range(4)])
    scaled = apply_scaling(fm, fit_scaling(fm))
    assert (scaled.X >= 0).all() and (scaled.X <= 1).all()


@pytest.mark.parametrize("normalize", [True, False])
def test_series_sums_of_non_contiguous_series_give_a_contiguous_copy_s_distances(normalize):
    """SeriesSums reads its windows as a strided view of C-contiguous
    series, so a Fortran-ordered batch, or the first columns of a wider
    one, must give the distances of a contiguous copy."""
    cfg = DistanceConfig(normalize_windows=normalize)
    rng = np.random.default_rng(8)
    wide = np.cumsum(rng.normal(size=(9, 50)), axis=1)
    for X in (np.asfortranarray(wide[:, :40]), wide[:, :40], wide[::2, 3:43]):
        copy = np.array(X, order="C")
        for L in (1, 5, 17, 40):
            Q = rng.normal(size=(4, L))
            if normalize:
                znorm_rows(Q, out=Q)
            got = nearest_window_dists(Q, SeriesSums.of(X, cfg).windows(L), cfg)
            assert np.array_equal(got, nearest_window_dists(Q, SeriesSums.of(copy, cfg).windows(L), cfg)), L
