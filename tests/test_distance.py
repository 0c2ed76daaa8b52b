import itertools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import divshap.distance as distance_mod
import divshap.graph as graph_mod
from divshap.distance import (
    DistanceConfig,
    SeriesSums,
    Windows,
    nearest_window_dists,
    nearest_window_scores,
    pair_dists,
    shapelet_dist,
    subsequence_dist,
    znorm_offset,
)
from divshap.dataset import SQUARE_CHUNK, Dataset, znorm_rows, znorm_rows_flat, znormalize
from divshap.errors import DimensionMismatchError, LengthMismatchError, ShapeletLongerThanSeriesError
from divshap.graph import div_topk
from divshap.mining import MiningConfig, orderline
from divshap.pipeline import PipelineConfig, mine_graph

from conftest import bump_dataset, sliding_window_dists


def naive_znorm(v):
    """Independent z-normalization in pure python."""
    n = len(v)
    mu = sum(v) / n
    sd = math.sqrt(sum((x - mu) ** 2 for x in v) / n)
    if sd < 1e-8:
        return [0.0] * n
    return [(x - mu) / sd for x in v]


def naive_windows(X, L, cfg):
    """Every length-L window of every row of X, in (row, start) order, each
    z-normalized by znormalize when cfg.normalize_windows."""
    X = np.asarray(X, dtype=np.float64)
    W = np.array([row[s : s + L] for row in X for s in range(X.shape[1] - L + 1)])
    return np.array([znormalize(w) for w in W]) if cfg.normalize_windows else W


def naive_subsequence_dist(t, s, normalize=True, length_normalize=True):
    """Two-loop reference scan with no early abandoning."""
    L = len(s)
    q = naive_znorm(s) if normalize else list(s)
    best = math.inf
    for start in range(len(t) - L + 1):
        w = list(t[start : start + L])
        if normalize:
            w = naive_znorm(w)
        total = 0.0
        for a, b in zip(w, q):
            total += (a - b) ** 2
        best = min(best, total)
    return best / L if length_normalize else best


def test_subsequence_exact_window_is_zero():
    assert subsequence_dist([1, 2, 3, 4, 5], [2, 3]) == 0.0


def test_subsequence_flat_series_nonflat_query():
    # flat windows z-normalize to zeros, query to [-1, 1]: (1 + 1) / 2
    assert subsequence_dist([5, 5, 5, 5], [1, 2]) == pytest.approx(1.0)


def test_subsequence_query_too_long():
    with pytest.raises(ShapeletLongerThanSeriesError):
        subsequence_dist([1, 2], [1, 2, 3])


@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("length_normalize", [True, False])
def test_subsequence_matches_naive_scan(normalize, length_normalize):
    rng = np.random.default_rng(42)
    cfg = DistanceConfig(normalize_windows=normalize, length_normalize=length_normalize)
    for _ in range(60):
        t = rng.normal(size=20)
        s = rng.normal(size=5)
        want = naive_subsequence_dist(t, s, normalize, length_normalize)
        got = subsequence_dist(t, s, cfg)
        assert got == pytest.approx(want, rel=1e-9)
        assert shapelet_dist(t, s, cfg) == pytest.approx(want, rel=1e-9)


def series_with_flat_stretches(rng, n, m):
    """Random series, each with a constant stretch long enough to hold flat
    windows of every length the kernel tests use."""
    X = rng.normal(size=(n, m))
    for row in X:
        start = int(rng.integers(0, m - 8))
        row[start : start + 8] = row[start]
    return X


@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("length_normalize", [True, False])
def test_nearest_window_dists_matches_naive_scan(normalize, length_normalize):
    rng = np.random.default_rng(3)
    cfg = DistanceConfig(normalize_windows=normalize, length_normalize=length_normalize)
    X = series_with_flat_stretches(rng, 6, 24)
    for L in (3, 5, 8):
        queries = np.vstack([rng.normal(size=(4, L)), np.full((1, L), 2.5), X[2, 4 : 4 + L]])
        windows = Windows.of_series(X, L, cfg)
        got = nearest_window_dists(naive_windows(queries, L, cfg), windows, cfg)
        assert got.shape == (len(queries), len(X))
        for j, q in enumerate(queries):
            for i, t in enumerate(X):
                want = naive_subsequence_dist(t, q, normalize, length_normalize)
                assert got[j, i] == pytest.approx(want, rel=1e-9, abs=1e-12), (L, j, i)


@pytest.mark.parametrize("normalize", [True, False])
def test_nearest_window_dists_window_query_is_exactly_zero(normalize):
    rng = np.random.default_rng(11)
    cfg = DistanceConfig(normalize_windows=normalize)
    X = series_with_flat_stretches(rng, 5, 30)
    for L in (4, 9):
        W = naive_windows(X, L, cfg)
        rows = np.arange(0, len(W), 7)
        got = nearest_window_dists(W[rows], Windows.of_series(X, L, cfg), cfg)
        series = rows // (X.shape[1] - L + 1)
        assert (got[np.arange(len(rows)), series] == 0.0).all()


@pytest.mark.parametrize("normalize", [True, False])
def test_windows_of_series_is_window_matrix_and_offset_column(normalize):
    rng = np.random.default_rng(13)
    cfg = DistanceConfig(normalize_windows=normalize)
    X = series_with_flat_stretches(rng, 4, 30)
    for L in (4, 9, 30):
        W = naive_windows(X, L, cfg)
        shape = (len(X), X.shape[1] - L + 1)
        scan = Windows.of_series(X, L, cfg).scan
        assert np.array_equal(scan[:, :, :L], W.reshape(*shape, L))
        offset = znorm_offset(W) if normalize else 0.5 * np.einsum("ij,ij->i", W, W)
        assert np.array_equal(scan[:, :, L], offset.reshape(shape))


def test_windows_of_series_takes_its_flat_rows_from_the_znormalization():
    """The offsets come from the rows znorm_rows_flat zeroed, not from a
    second read of every window; the scan is byte for byte the window
    matrix z-normalized by znorm_rows with znorm_offset's offsets. The rows
    mix flat windows (a constant stretch, and variation far below FLAT_STD)
    with windows of variation just above FLAT_STD and ordinary ones."""
    rng = np.random.default_rng(21)
    X = series_with_flat_stretches(rng, 5, 40)
    X[1, 10:22] = 3.0 + 1e-12 * rng.normal(size=12)
    X[2, 5:17] = 1.0 + 3e-8 * np.sign(rng.normal(size=12))
    for L in (3, 8, 12):
        W = sliding_window_view(X, L, axis=1).reshape(-1, L).copy()
        z, flat = znorm_rows_flat(W.copy())
        assert z.tobytes() == znorm_rows(W).tobytes()
        assert np.array_equal(flat, ~z.any(axis=1))
        assert 0 < flat.sum() < len(flat), L
        want = np.concatenate([z, znorm_offset(z)[:, None]], axis=1)
        assert Windows.of_series(X, L).scan.tobytes() == want.tobytes(), L


def test_nearest_window_dists_batch_equals_single_queries():
    rng = np.random.default_rng(12)
    X = series_with_flat_stretches(rng, 7, 40)
    for cfg in (DistanceConfig(), DistanceConfig(normalize_windows=False, length_normalize=False)):
        W = naive_windows(X, 6, cfg)
        windows = Windows.of_series(X, 6, cfg)
        Q = np.vstack([naive_windows(rng.normal(size=(9, 6)), 6, cfg), W[::25]])
        batch = nearest_window_dists(Q, windows, cfg)
        single = np.vstack([nearest_window_dists(Q[j : j + 1], windows, cfg) for j in range(len(Q))])
        assert np.array_equal(batch, single)


def test_sliding_window_dists_match_scan():
    rng = np.random.default_rng(5)
    t = rng.normal(size=30)
    s = rng.normal(size=7)
    d = sliding_window_dists(t, s, DistanceConfig())
    assert len(d) == 24
    for start in range(24):
        want = naive_subsequence_dist(t[start : start + 7], s)
        assert d[start] == pytest.approx(want, rel=1e-9)


CONFIGS = [DistanceConfig(*flags) for flags in itertools.product([True, False], repeat=2)]
CONFIG_IDS = ["norm-len", "norm", "len", "raw"]


WINDOW_KINDS = {
    "Windows": lambda X, L, cfg: Windows.of_series(X, L, cfg),
    "ScaledWindows": lambda X, L, cfg: SeriesSums.of(X, cfg).windows(L),
}


@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
@pytest.mark.parametrize("kind", sorted(WINDOW_KINDS))
def test_nearest_window_dists_in_slices_of_one_query_give_the_same_bits(monkeypatch, kind, cfg):
    """The kernel scores, picks and measures its queries a slice at a
    time. With SQUARE_CHUNK at one byte every query is a slice of its own,
    and every distance keeps its bits. One series against twelve queries
    narrows the band's tiles to one start (band_tiles), against six for a
    single query; the other sets have flat stretches, a query as long as
    the series, no series, or no query."""
    rng = np.random.default_rng(24)
    scored = []
    cls = getattr(distance_mod, kind)
    score = cls.scores
    monkeypatch.setattr(cls, "scores", lambda self, q: scored.append(len(q)) or score(self, q))
    for n, m, L, k in ((6, 24, 5, 9), (1, 40, 4, 12), (2, 30, 30, 5), (0, 12, 4, 3), (5, 12, 4, 0)):
        X = series_with_flat_stretches(rng, n, m)
        windows = WINDOW_KINDS[kind](X, L, cfg)
        # a third of the queries are windows of the series, when there are any
        picks = [X[j % n, j % (m - L + 1) :][:L] for j in range(k // 3 if n else 0)]
        raw = np.vstack([rng.normal(size=(k - len(picks), L)), *picks])
        Q = naive_windows(raw, L, cfg) if k else raw
        scored.clear()
        monkeypatch.setattr(distance_mod, "SQUARE_CHUNK", 2**40)
        whole = nearest_window_dists(Q, windows, cfg)
        monkeypatch.setattr(distance_mod, "SQUARE_CHUNK", 1)
        sliced = nearest_window_dists(Q, windows, cfg)
        assert scored == [k] * (k > 0) + [1] * k, (n, m, L, k)
        assert whole.shape == sliced.shape == (k, n)
        assert np.array_equal(whole.view(np.uint64), sliced.view(np.uint64)), (n, m, L, k)


@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
@pytest.mark.parametrize("kind", sorted(WINDOW_KINDS))
def test_nearest_window_scores_are_the_largest_scores_whole_and_in_slices(monkeypatch, kind, cfg):
    """Each query's largest pick score per series: the maximum of the
    windows.scores of its slice, bit for bit, whether all queries are one
    slice or each is its own; the sets have flat stretches, a query as long
    as the series, no series, or no query."""
    rng = np.random.default_rng(27)
    for n, m, L, k in ((6, 24, 5, 9), (1, 40, 4, 12), (2, 30, 30, 5), (0, 12, 4, 3), (5, 12, 4, 0)):
        X = series_with_flat_stretches(rng, n, m)
        windows = WINDOW_KINDS[kind](X, L, cfg)
        Q = naive_windows(rng.normal(size=(k, L)), L, cfg) if k else np.empty((0, L))
        for chunk, rows in ((2**40, [slice(0, k)] if k else []), (1, [slice(j, j + 1) for j in range(k)])):
            want = np.vstack([np.empty((0, n))] + [windows.scores(Q[r]).max(axis=2, initial=-np.inf) for r in rows])
            monkeypatch.setattr(distance_mod, "SQUARE_CHUNK", chunk)
            got = nearest_window_scores(Q, windows)
            assert got.shape == (k, n) and np.array_equal(got.view(np.uint64), want.view(np.uint64)), (n, m, L, k)


def test_nearest_window_dists_holds_one_square_chunk_of_scores():
    """A block of fit-wide's size: 700 queries of length 12 against the
    windows of 60 series of length 48. Its scores (12.4 MB) were once held
    whole; the call now holds its output, and at most one SQUARE_CHUNK of
    scores or of picked windows at a time, with a slice's picks."""
    rng = np.random.default_rng(25)
    n, m, L, k = 60, 48, 12, 700
    windows = Windows.of_series(rng.normal(size=(n, m)), L)
    Q = windows.scan[rng.integers(0, n, k), rng.integers(0, m - L + 1, k), :L].copy()
    nearest_window_dists(Q, windows)  # warm up
    tracemalloc.start()
    try:
        nearest_window_dists(Q, windows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 8 * k * n * (m - L + 1) > 5 * SQUARE_CHUNK
    assert peak <= 8 * k * n + 8 * k * n * L + SQUARE_CHUNK, peak


def oracle_dist(a, b, cfg) -> float:
    """The distance of a and b from sliding_window_dists: the shorter slid
    along the longer."""
    t, s = (a, b) if len(a) >= len(b) else (b, a)
    return sliding_window_dists(t, s, cfg).min()


@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
def test_pair_dists_equal_sliding_window_form_on_every_scanned_pair(cfg, monkeypatch):
    """Every pair div_topk decides, of either class, gets the distance of
    sliding_window_view and numpy's mean/std, bit for bit, from one pair
    and from one call over every pair."""
    pcfg = PipelineConfig(mining=MiningConfig(min_len=3, max_len=9), distance=cfg)
    _, g = mine_graph(bump_dataset(seed=2), pcfg)
    pairs, similar = [], graph_mod.similar

    def recorded(a, b, *args):
        pairs.append((a, b))
        return similar(a, b, *args)

    monkeypatch.setattr(graph_mod, "similar", recorded)
    div_topk(g, pcfg.kappa)
    assert len(pairs) > 50
    want = np.array([oracle_dist(a.values, b.values, cfg) for a, b in pairs])
    together = np.diag(pair_dists([a for a, _ in pairs], [b for _, b in pairs], cfg))
    assert np.array_equal(together.view(np.uint64), want.view(np.uint64))
    for (a, b), d in zip(pairs, want):
        assert shapelet_dist(a, b, cfg) == d == shapelet_dist(b, a, cfg)


@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
def test_pair_dists_read_any_sequence_as_its_contiguous_float_copy(cfg):
    """The windows are a strided view of a contiguous float64 buffer, so a
    strided, read-only or integer sequence, on either side, must give what
    its copy gives, and the sequence itself is left as it was."""
    rng = np.random.default_rng(11)
    s = rng.normal(size=7)
    strided = rng.normal(size=80)[::2]
    read_only = rng.normal(size=40)
    read_only.flags.writeable = False
    integer = rng.integers(-50, 50, size=40)
    integer[10:20] = 3  # flat windows
    for t in (strided, read_only, integer):
        before = t.copy()
        copy = np.array(t, dtype=np.float64)
        want = sliding_window_dists(copy, s, cfg).min()
        assert pair_dists([t], [s], cfg)[0, 0] == pair_dists([s], [t], cfg)[0, 0] == want
        assert pair_dists([copy], [s], cfg)[0, 0] == want
        assert np.array_equal(t, before)
    assert pair_dists([strided], [s[:1]], cfg)[0, 0] == sliding_window_dists(strided, s[:1], cfg).min()
    assert pair_dists([strided], [strided], cfg)[0, 0] == 0.0


def test_contained_window_affine_invariance():
    # a rescaled+shifted copy of a window still matches at distance ~0
    rng = np.random.default_rng(9)
    t = rng.normal(size=40)
    s = 3.5 * t[10:18] + 2.0
    assert subsequence_dist(t, s) <= 1e-18


def test_shapelet_dist_identity_and_containment():
    assert shapelet_dist([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert shapelet_dist([1.0, 2.0, 3.0, 4.0], [2.0, 3.0]) == 0.0


def test_shapelet_dist_symmetric():
    rng = np.random.default_rng(17)
    for _ in range(40):
        a = rng.normal(size=int(rng.integers(3, 12)))
        b = rng.normal(size=int(rng.integers(3, 12)))
        assert shapelet_dist(a, b) == shapelet_dist(b, a)


def test_shapelet_dist_empty():
    with pytest.raises(LengthMismatchError):
        shapelet_dist([], [1.0])


def pair_set(rng, n, lengths):
    """n value arrays of the given lengths (cycled): random walks, some at a
    large or tiny scale, and some with a flat stretch, so that flat windows
    z-normalize to zeros."""
    out = []
    for j in range(n):
        L = lengths[j % len(lengths)]
        v = np.cumsum(rng.normal(size=L)) * (1e3, 1.0, 1e-3)[j % 3]
        if j % 4 == 1:
            v[: max(2, L // 2)] = 1.5
        out.append(v)
    return out


@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
def test_pair_dists_row_equals_sliding_window_oracle_bit_for_bit(cfg):
    """Longer, shorter and equal-length vs, flat windows and a flat u."""
    rng = np.random.default_rng(20)
    for L in (2, 5, 8, 13, 24):
        for u in pair_set(rng, 2, [L]) + [np.full(L, 3.0)]:
            vs = pair_set(rng, 40, [2, L - 1 or 1, L, L + 1, 3 * L, 7, 9, 17, 40])
            got = pair_dists([u], vs, cfg)[0]
            want = np.array([oracle_dist(v, u, cfg) for v in vs])
            assert got.dtype == np.float64 and np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
def test_pair_dists_equal_shapelet_dist_bit_for_bit(cfg):
    rng = np.random.default_rng(21)
    us = pair_set(rng, 9, [4, 11, 11, 30, 6])
    vs = pair_set(rng, 60, [3, 4, 5, 11, 12, 30, 31, 45])
    want = np.array([[shapelet_dist(v, u, cfg) for v in vs] for u in us])
    assert np.array_equal(pair_dists(us, vs, cfg).view(np.uint64), want.view(np.uint64))
    assert pair_dists(us, [], cfg).shape == (9, 0) and pair_dists([], vs, cfg).shape == (0, 60)


def test_pair_dists_in_small_batches_give_the_same_bits(monkeypatch):
    """A batch of windows and one of differences each hold at most
    SQUARE_CHUNK bytes, or one sequence's windows; at 256 bytes every
    sequence is a batch of its own, and nothing changes."""
    rng = np.random.default_rng(22)
    us = pair_set(rng, 5, [6, 20, 33])
    vs = pair_set(rng, 30, [4, 6, 9, 20, 41])
    want = pair_dists(us, vs)
    monkeypatch.setattr(distance_mod, "SQUARE_CHUNK", 256)
    assert np.array_equal(pair_dists(us, vs).view(np.uint64), want.view(np.uint64))


def test_empty_query_raises_length_mismatch():
    series = Dataset(X=np.arange(12.0).reshape(2, 6) ** 2, y=np.array([1, 2]))
    calls = [
        lambda: subsequence_dist(series.X[0], []),
        lambda: shapelet_dist([], series.X[0]),
        lambda: shapelet_dist(series.X[0], np.array([])),
        lambda: orderline([], series),
        lambda: pair_dists([np.ones(3)], [np.ones(4), np.array([])]),
        lambda: pair_dists([np.array([])], [np.ones(4)]),
    ]
    for call in calls:
        with pytest.raises(LengthMismatchError):
            call()


def test_query_not_1d_raises_dimension_mismatch():
    series = Dataset(X=np.arange(12.0).reshape(2, 6) ** 2, y=np.array([1, 2]))
    square = [[1.0, 2.0], [3.0, 4.0]]
    calls = [
        lambda: subsequence_dist(series.X[0], square),
        lambda: shapelet_dist(square, series.X[0]),
        lambda: shapelet_dist(series.X[0], np.float64(2.0)),
        lambda: orderline(square, series),
        lambda: pair_dists([np.ones(3)], [np.ones(4), np.ones((1, 3))]),
    ]
    for call in calls:
        with pytest.raises(DimensionMismatchError):
            call()


@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
def test_orderline_is_the_per_series_minimum_of_the_sliding_window_oracle(cfg):
    """Bit for bit, for queries shorter than the series, one with a flat
    stretch, and one as long as the series; one series has flat windows."""
    X = bump_dataset(seed=6, per_class=5, m=20).X.copy()
    X[2, 5:15] = 1.0
    d = Dataset(X=X, y=np.repeat([1, 2], 5))
    for s in (d.X[3, 4:11], np.r_[np.full(4, 2.0), d.X[7, :5]], d.X[8]):
        got = orderline(s, d, cfg)
        want = sorted(zip((sliding_window_dists(t, s, cfg).min() for t in d.X), d.y.tolist()), key=lambda p: p[0])
        assert [(x.hex(), y) for x, y in got] == [(float(x).hex(), y) for x, y in want]
    with pytest.raises(ShapeletLongerThanSeriesError):
        orderline(np.ones(21), d, cfg)
