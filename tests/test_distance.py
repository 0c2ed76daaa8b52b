import itertools
import math

import numpy as np
import pytest

import divshap.distance as distance_mod
import divshap.graph as graph_mod
from divshap.distance import (
    DistanceConfig,
    Windows,
    nearest_window_dists,
    pair_dists,
    shapelet_dist,
    shapelet_dists,
    subsequence_dist,
    window_distances,
    znorm_offset,
)
from divshap.dataset import znormalize
from divshap.errors import LengthMismatchError, ShapeletLongerThanSeriesError
from divshap.graph import div_topk
from divshap.mining import MiningConfig
from divshap.pipeline import PipelineConfig, mine_graph

from conftest import bump_dataset, sliding_window_distances


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
        fast = window_distances(t, s, cfg).min()
        assert fast == pytest.approx(want, rel=1e-9)


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


def test_window_distances_matches_scan():
    rng = np.random.default_rng(5)
    t = rng.normal(size=30)
    s = rng.normal(size=7)
    d = window_distances(t, s)
    assert len(d) == 24
    for start in range(24):
        want = naive_subsequence_dist(t[start : start + 7], s)
        assert d[start] == pytest.approx(want, rel=1e-9)


CONFIGS = [DistanceConfig(*flags) for flags in itertools.product([True, False], repeat=2)]
CONFIG_IDS = ["norm-len", "norm", "len", "raw"]


@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
def test_window_distances_equal_sliding_window_form_on_every_scanned_pair(cfg, monkeypatch):
    """Every pair div_topk decides, of either class, gets the distances of
    sliding_window_view and numpy's mean/std, bit for bit."""
    pcfg = PipelineConfig(mining=MiningConfig(min_len=3, max_len=9), distance=cfg)
    _, g = mine_graph(bump_dataset(seed=2), pcfg)
    pairs, similar = [], graph_mod.similar

    def recorded(a, b, *args):
        pairs.append((a, b))
        return similar(a, b, *args)

    monkeypatch.setattr(graph_mod, "similar", recorded)
    div_topk(g, pcfg.kappa)
    assert len(pairs) > 50
    for a, b in pairs:
        t, s = (a.values, b.values) if a.length >= b.length else (b.values, a.values)
        want = sliding_window_distances(t, s, cfg)
        assert np.array_equal(window_distances(t, s, cfg), want)
        assert shapelet_dist(a, b, cfg) == want.min() == shapelet_dist(b, a, cfg)


@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
def test_window_distances_read_any_series_as_its_contiguous_float_copy(cfg):
    """The windows are a strided view of a contiguous float64 buffer, so a
    strided, read-only or integer series must give what its copy gives, and
    the series itself is left as it was."""
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
        assert np.array_equal(window_distances(t, s, cfg), window_distances(copy, s, cfg))
        assert np.array_equal(window_distances(t, s, cfg), sliding_window_distances(copy, s, cfg))
        assert np.array_equal(t, before)
    assert len(window_distances(strided, s[:1], cfg)) == 40
    assert len(window_distances(strided, strided, cfg)) == 1


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
def test_shapelet_dists_equal_shapelet_dist_bit_for_bit(cfg):
    """Longer, shorter and equal-length vs, flat windows and a flat u."""
    rng = np.random.default_rng(20)
    for L in (2, 5, 8, 13, 24):
        for u in pair_set(rng, 2, [L]) + [np.full(L, 3.0)]:
            vs = pair_set(rng, 40, [2, L - 1 or 1, L, L + 1, 3 * L, 7, 9, 17, 40])
            got = shapelet_dists(u, vs, cfg)
            want = np.array([shapelet_dist(v, u, cfg) for v in vs])
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


def test_shapelet_dists_reject_empty_values():
    with pytest.raises(LengthMismatchError):
        shapelet_dists(np.ones(3), [np.ones(4), np.array([])])
    with pytest.raises(LengthMismatchError):
        shapelet_dists(np.array([]), [np.ones(4)])
