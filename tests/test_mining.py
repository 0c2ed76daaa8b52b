import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from divshap import mining
from divshap.dataset import SQUARE_CHUNK, Dataset
from divshap.errors import BandEmptyError, FlatTrainingSetError, InvalidConfigError
from divshap.graph import build_graph, div_topk
from divshap.mining import (
    SCORING_BUDGET,
    SPLIT_ROWS,
    ClassCounts,
    MiningConfig,
    Shapelet,
    _batch_best_split,
    _corner_max,
    _gain_bound,
    _gain_table,
    _order_keys,
    best_split,
    entropy,
    generate_candidates,
    mine_shapelets,
    orderline,
)
from divshap.distance import DistanceConfig, Windows, subsequence_dist
from divshap.pipeline import EvalConfig, PipelineConfig, fit

from conftest import REPO_ROOT, bump_dataset, xor_dataset

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def scalar_candidates(train, cfg):
    """Per-window oracle for generate_candidates: (source, start, length) of
    the first occurrence of each distinct window, in (length, series, start)
    order."""
    lo, hi = cfg.band(train.m)
    seen: set[bytes] = set()
    out = []
    for L in range(lo, hi + 1, cfg.length_stride):
        for i in range(train.n):
            for start in range(0, train.m - L + 1, cfg.position_stride):
                key = train.X[i, start : start + L].tobytes()
                if key not in seen:
                    seen.add(key)
                    out.append((i, start, L))
    return out


def brute_force_split(pairs):
    """Exhaustive-threshold oracle for best_split, in pure python.

    Evaluates the gain at every midpoint between consecutive distinct
    distances and applies the same tie-break chain: gain desc, gap desc,
    threshold asc.
    """
    pairs = sorted(pairs, key=lambda p: p[0])
    dists = [p[0] for p in pairs]
    labels = [p[1] for p in pairs]
    classes = sorted(set(labels))
    n = len(pairs)

    def ent(counts):
        total = sum(counts)
        out = 0.0
        for c in counts:
            if c:
                p = c / total
                out -= p * math.log2(p)
        return out

    if len(classes) == 1:
        return (dists[0] + dists[-1]) / 2, 0.0, 0.0
    h0 = ent([labels.count(c) for c in classes])
    best = None
    for i in range(n - 1):
        if dists[i + 1] <= dists[i]:
            continue
        thr = (dists[i] + dists[i + 1]) / 2
        left = [labels[j] for j in range(n) if dists[j] <= thr]
        right = [labels[j] for j in range(n) if dists[j] > thr]
        gain = (
            h0
            - (len(left) / n) * ent([left.count(c) for c in classes])
            - (len(right) / n) * ent([right.count(c) for c in classes])
        )
        gap = sum(dists[len(left) :]) / len(right) - sum(dists[: len(left)]) / len(left)
        key = (gain, gap, -thr)
        if best is None or key > best[0]:
            best = (key, thr, gain, gap)
    if best is None:
        return (dists[0] + dists[-1]) / 2, 0.0, 0.0
    return best[1], best[2], best[3]


def motif_dataset(sizes, m=20, seed=0):
    """Up to four classes, class k of sizes[k] series. Classes 0-2 carry
    their own motif at a random offset; class 3 carries none."""
    rng = np.random.default_rng(seed)
    bump = np.array([0.0, 1.5, 2.5, 1.5, 0.0])
    motifs = (bump, -bump, np.array([0.0, 2.0, 0.0, -2.0, 0.0]), np.zeros(5))
    y = np.repeat(np.arange(len(sizes)), sizes)
    X = rng.normal(0.0, 0.2, (len(y), m))
    for row, label in zip(X, y):
        off = rng.integers(2, m - 7)
        row[off : off + 5] += motifs[label]
    return Dataset(X=X, y=y)


def float_split_gains(dist, y):
    """Every split's gain as _batch_best_split computed it before its table:
    one-hot class counts summed as floats, and entropies from log2 over the
    (candidates, splits, classes) class proportions."""
    classes = np.unique(y)
    onehot = (y[:, None] == classes[None, :]).astype(np.float64)
    h0 = entropy(onehot.sum(axis=0))
    n = dist.shape[1]
    order = np.argsort(dist, axis=1, kind="stable")
    left = np.cumsum(onehot[order], axis=1)[:, :-1, :]
    right = onehot.sum(axis=0)[None, None, :] - left
    nl = np.arange(1, n, dtype=np.float64)
    nr = n - nl

    def ent(counts, sizes):
        p = counts / sizes[None, :, None]
        return -(p * np.log2(np.where(p > 0, p, 1.0))).sum(axis=2)

    return h0 - (nl / n) * ent(left, nl) - (nr / n) * ent(right, nr)


def random_orderline(rng, n_max=12, n_classes=2):
    n = int(rng.integers(2, n_max + 1))
    dists = np.round(rng.uniform(0, 4, size=n), 2)  # rounding forces ties
    labels = rng.integers(0, n_classes, size=n)
    if len(set(labels.tolist())) == 1:
        labels[0] = (labels[0] + 1) % n_classes
    return [(float(d), int(c)) for d, c in zip(dists, labels)]


def test_band_defaults_m110():
    lo, hi = MiningConfig().band(110)
    assert (lo, hi) == (10, 55)


def test_band_small_m_floor():
    assert MiningConfig().band(24) == (3, 12)


def test_band_empty():
    with pytest.raises(BandEmptyError):
        MiningConfig(min_len=6, max_len=5).band(24)


def test_generate_enumeration():
    d = Dataset(X=np.array([[1.0, 2.0, 3.0]]), y=np.array([0, ]), label_names={0: "0"})
    # needs two classes only for training; candidate generation is fine
    cands = generate_candidates(d, MiningConfig(min_len=2, max_len=2))
    assert [c.values.tolist() for c in cands] == [[1.0, 2.0], [2.0, 3.0]]
    assert [(c.source_series, c.start, c.length) for c in cands] == [(0, 0, 2), (0, 1, 2)]


def test_generate_counting_formula():
    rng = np.random.default_rng(2)
    n, m = 2, 8
    d = Dataset(X=rng.normal(size=(n, m)), y=np.array([0, 1]))
    cfg = MiningConfig(min_len=3, max_len=6)
    cands = generate_candidates(d, cfg)
    expected = n * sum(m - L + 1 for L in range(3, 7))
    assert len(cands) == expected


def test_generate_dedups_exact_duplicates():
    X = np.array([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]])
    d = Dataset(X=X, y=np.array([0, 1]))
    cands = generate_candidates(d, MiningConfig(min_len=2, max_len=3))
    # second series contributes nothing: all its subsequences already seen
    assert all(c.source_series == 0 for c in cands)


def test_band_rejects_stride_below_one():
    """MiningConfig checks its strides when built, as the other configs do."""
    for bad in (dict(length_stride=0), dict(position_stride=-1), dict(length_stride=1.5), dict(position_stride=True)):
        with pytest.raises(InvalidConfigError, match="stride"):
            MiningConfig(**bad).band(24)


def test_band_rejects_min_len_below_two_and_max_len_above_m():
    """A fractional bound ended in range()'s TypeError before."""
    for bad in (dict(min_len=1), dict(min_len=4.5), dict(min_len=4.0)):
        with pytest.raises(InvalidConfigError, match="min_len"):
            MiningConfig(**bad).band(24)
    for bad in (dict(max_len=25), dict(max_len=8.5), dict(max_len=1)):
        with pytest.raises(InvalidConfigError, match="max_len"):
            MiningConfig(**bad).band(24)
    assert MiningConfig(min_len=np.int64(4), max_len=np.int32(8)).band(24) == (4, 8)


def test_generate_matches_scalar_oracle(monkeypatch):
    # a three-letter alphabet repeats short windows within and across series,
    # and most windows share their first, middle and last value with others,
    # so they are compared in full; series 3 copies a stretch of series 0,
    # and -0.0 differs from 0.0 in bytes. A budget of a few rows splits the
    # comparisons into many chunks of whole groups.
    rng = np.random.default_rng(7)
    X = rng.integers(0, 3, size=(5, 14)).astype(np.float64)
    X[3, 2:11] = X[0, 4:13]
    X[4, 0] = -0.0
    d = Dataset(X=X, y=np.array([0, 1, 0, 1, 0]))
    full = MiningConfig(min_len=2, max_len=7)
    assert len(scalar_candidates(d, full)) < d.n * sum(d.m - L + 1 for L in range(2, 8))
    for budget in (SCORING_BUDGET, 8 * 8 * 2 * 3):
        monkeypatch.setattr(mining, "SCORING_BUDGET", budget)
        for ls, ps in ((1, 1), (2, 1), (1, 2), (3, 2), (2, 3), (3, 3)):
            for band in ((2, 7), (4, 4)):
                cfg = MiningConfig(min_len=band[0], max_len=band[1], length_stride=ls, position_stride=ps)
                table = generate_candidates(d, cfg)
                got = list(zip(*(c.tolist() for c in table.columns[:3])))
                assert got == scalar_candidates(d, cfg), (budget, ls, ps, band)


def test_table_builds_each_row_once(toy_train):
    mined = mine_shapelets(toy_train, MiningConfig(min_len=4, max_len=6))
    n = len(mined)
    assert mined[3] is mined[3]
    assert mined[-1] is mined[n - 1]
    assert all(a is mined[i] for a, i in zip(mined[10:2:-3], (10, 7, 4)))
    assert all(a is mined[i] for a, i in zip(mined[-2:], (n - 2, n - 1)))
    assert [s is mined[i] for i, s in enumerate(mined)] == [True] * n
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            mined[bad]


def test_fit_builds_only_the_scanned_prefix(monkeypatch):
    d = bump_dataset(seed=0, per_class=6, m=48)
    cfg = PipelineConfig(evaluation=EvalConfig(repeats=1))
    built = []
    post_init = Shapelet.__post_init__

    def counting(self):
        built.append(self.id)
        post_init(self)

    monkeypatch.setattr(Shapelet, "__post_init__", counting)
    fit(d, cfg)
    n_built = len(built)

    mined = mine_shapelets(d, MiningConfig(normalize=cfg.distance))
    pool = div_topk(build_graph(mined, cfg.distance), cfg.kappa)
    assert len(pool) == cfg.kappa
    scan_depth = next(i for i in range(len(mined)) if mined[i] is pool[-1]) + 1
    assert n_built <= scan_depth < len(mined) / 10


def test_entropy_examples():
    assert entropy([4, 4]) == pytest.approx(1.0)
    assert entropy([8, 0]) == 0.0
    assert entropy([1, 1, 1, 1]) == pytest.approx(2.0)


def test_orderline_self_containment(toy_train):
    cands = generate_candidates(toy_train, MiningConfig(min_len=5, max_len=5))
    s = cands[0]
    ol = orderline(s, toy_train)
    dists = dict()
    for dist, label in ol:
        dists.setdefault(label, []).append(dist)
    assert min(d for ds in dists.values() for d in ds) == 0.0
    assert [p[0] for p in ol] == sorted(p[0] for p in ol)
    assert len(ol) == toy_train.n


def test_orderline_matches_per_series_recomputation(toy_train):
    rng = np.random.default_rng(0)
    s = rng.normal(size=6)
    ol = orderline(s, toy_train)
    recomputed = sorted(
        subsequence_dist(toy_train.X[i], s) for i in range(toy_train.n)
    )
    assert np.allclose(sorted(p[0] for p in ol), recomputed, rtol=1e-9)


def test_best_split_perfect_binary():
    ol = [(1.0, 0), (2.0, 0), (3.0, 1), (4.0, 1)]
    thr, gain, gap = best_split(ol)
    assert thr == 2.5
    assert gain == pytest.approx(1.0)
    assert gap == pytest.approx(3.5 - 1.5)


def test_best_split_degenerate_single_class():
    thr, gain, gap = best_split([(1.0, 0), (3.0, 0)])
    assert gain == 0.0
    assert thr == 2.0


def test_best_split_all_distances_equal():
    thr, gain, gap = best_split([(2.0, 0), (2.0, 1), (2.0, 0)])
    assert gain == 0.0
    assert thr == 2.0


def test_best_split_matches_exhaustive_oracle():
    rng = np.random.default_rng(123)
    for trial in range(300):
        ol = random_orderline(rng, n_classes=int(rng.integers(2, 4)))
        thr, gain, gap = best_split(ol)
        othr, ogain, ogap = brute_force_split(ol)
        dists = sorted(p[0] for p in ol)
        # same partition, not necessarily the same float threshold
        partition = [d <= thr for d in dists]
        opartition = [d <= othr for d in dists]
        assert partition == opartition, f"trial {trial}"
        assert abs(gain - ogain) <= 1e-12


def test_mine_top_candidate_attains_max_gain(toy_train):
    cfg = MiningConfig(min_len=4, max_len=6)
    mined = mine_shapelets(toy_train, cfg)
    # full enumeration oracle: score every candidate through the scalar path
    best = max(
        best_split(orderline(c, toy_train))[1]
        for c in generate_candidates(toy_train, cfg)
    )
    assert mined[0].gain == pytest.approx(best, abs=1e-9)


def test_mine_batch_scores_match_scalar_path():
    d = bump_dataset(seed=5, per_class=4, m=16)
    cfg = MiningConfig(min_len=4, max_len=5)
    mined = mine_shapelets(d, cfg)
    for s in mined[::7]:
        thr, gain, gap = best_split(orderline(s, d))
        assert s.gain == pytest.approx(gain, abs=1e-9)
        assert s.gap == pytest.approx(gap, abs=1e-9)
        assert s.split_threshold == pytest.approx(thr, abs=1e-9)


def assert_mined_equal_scalar_path(d, cfg):
    """Every mined (threshold, gain, gap) is best_split(orderline(c)), and
    the mined order is the scalar path's (gain desc, gap desc, then length
    and provenance): distances are measured as orderline measures them, and
    both take the gap from one cumulative sum."""
    mined = mine_shapelets(d, cfg)
    scalar = [best_split(orderline(s, d, cfg.normalize)) for s in mined]
    for s, want in zip(mined, scalar):
        assert (s.split_threshold, s.gain, s.gap) == want, s.id
    keys = [(-g, -gap, s.length, s.source_series, s.start) for s, (_, g, gap) in zip(mined, scalar)]
    assert keys == sorted(keys)
    return mined


@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("length_normalize", [True, False])
def test_mine_thresholds_and_gains_equal_scalar_path_exactly(normalize, length_normalize):
    """Every DistanceConfig flag pair: raw windows take their own branch of
    Windows.of_series, and each length_normalize its own distances."""
    d = bump_dataset(seed=3, per_class=4, m=24)
    dist_cfg = DistanceConfig(normalize_windows=normalize, length_normalize=length_normalize)
    cfg = MiningConfig(min_len=3, max_len=8, normalize=dist_cfg)
    assert len(assert_mined_equal_scalar_path(d, cfg)) > 500


@pytest.mark.parametrize("sizes", [(4, 4, 4), (2, 5, 3, 6)])
def test_mine_multiclass_scores_equal_scalar_path_exactly(sizes):
    d = motif_dataset(sizes, seed=len(sizes))
    mined = assert_mined_equal_scalar_path(d, MiningConfig(min_len=3, max_len=6))
    assert len(mined) == 66 * sum(sizes)


def random_split_block(n_classes, rows=400):
    """Labels of 21 + n_classes series, each class present, and a block of
    distances to them with ties, three rows of which hold no split."""
    rng = np.random.default_rng(n_classes)
    y = np.concatenate([np.arange(n_classes), rng.integers(0, n_classes, size=21)])
    dist = rng.integers(0, 9, size=(rows, len(y))) / 7
    dist[:3] = 1.0
    return dist, y


@pytest.mark.parametrize("n_classes", [1, 2, 3, 4, 7])
def test_batch_best_split_gains_equal_float_formula(n_classes):
    # the table's terms are the float formula's, added in the same class
    # order (numpy adds fewer than eight terms in order)
    dist, y = random_split_block(n_classes)
    gain = _batch_best_split(dist, ClassCounts.of(y))[1]
    sd = np.sort(dist, axis=1)
    valid = sd[:, 1:] > sd[:, :-1]
    want = np.where(valid, float_split_gains(dist, y), -np.inf).max(axis=1)
    if n_classes == 1:
        want[:] = 0.0
    want[~valid.any(axis=1)] = 0.0
    assert np.array_equal(gain, want)


@pytest.mark.parametrize("n_classes", [1, 2, 3, 9, 12])
def test_batch_best_split_equals_scalar_best_split(n_classes):
    # with eight or more classes too: entropy adds its terms in class order
    dist, y = random_split_block(n_classes)
    got = zip(*_batch_best_split(dist, ClassCounts.of(y)))
    for row, scores in zip(dist, got):
        assert scores == best_split(list(zip(row.tolist(), y.tolist())))


def stable_sort_batch_best_split(dist, counts):
    """_batch_best_split as it was before it sorted labels without
    stability: labels and values from one stable argsort, and every
    split's threshold and gap taken before the pick."""
    c, n = dist.shape
    order = np.argsort(dist, axis=1, kind="stable")
    sd = np.take_along_axis(dist, order, axis=1)
    midrange = (sd[:, 0] + sd[:, -1]) / 2
    if len(counts.total) == 1 or n < 2:
        zero = np.zeros(c)
        return midrange, zero, zero.copy()

    nl = np.arange(1, n)
    nr = n - nl
    labels = counts.label[order[:, :-1]]
    rest = nl
    for k, total in enumerate(counts.total):
        if k < len(counts.total) - 1:
            left = np.cumsum(labels == k, axis=1)
            rest = rest - left
        else:
            left = rest
        h_left_k = counts.h[nl, left]
        h_right_k = counts.h[nr, total - left]
        if k == 0:
            h_left, h_right = h_left_k, h_right_k
        else:
            h_left += h_left_k
            h_right += h_right_k

    gains = entropy(counts.total) - (nl / n) * h_left - (nr / n) * h_right
    thr = (sd[:, :-1] + sd[:, 1:]) / 2
    ps = np.cumsum(sd, axis=1)
    gaps = (ps[:, -1:] - ps[:, :-1]) / nr - ps[:, :-1] / nl
    valid = sd[:, 1:] > sd[:, :-1]

    masked_gain = np.where(valid, gains, -np.inf)
    best_gain = masked_gain.max(axis=1)
    no_split = ~np.isfinite(best_gain)
    tie1 = masked_gain == best_gain[:, None]
    masked_gap = np.where(tie1, gaps, -np.inf)
    best_gap = masked_gap.max(axis=1)
    tie2 = tie1 & (masked_gap == best_gap[:, None])
    masked_thr = np.where(tie2, thr, np.inf)
    pick = masked_thr.argmin(axis=1)

    rows = np.arange(c)
    out_thr = thr[rows, pick]
    out_gain = gains[rows, pick]
    out_gap = gaps[rows, pick]
    if no_split.any():
        out_thr = np.where(no_split, midrange, out_thr)
        out_gain = np.where(no_split, 0.0, out_gain)
        out_gap = np.where(no_split, 0.0, out_gap)
    return out_thr, out_gain, out_gap


def tie_heavy_block(n_classes, n_values, rows=300):
    """Labels of 21 + n_classes series, each class present, and distances
    to them that take only n_values values; the unstable argsort orders the
    many equal distances as it likes. Rows 0-2 hold one value (no valid
    split). In rows 3-5 two series of one class sit at 0 and 2/3 and the
    rest at 1/3, so the splits after 0 and after 1/3 leave the same class
    counts on their larger side and tie on gain."""
    rng = np.random.default_rng(10 * n_classes + n_values)
    y = np.concatenate([np.arange(n_classes), rng.integers(0, n_classes, size=21)])
    dist = rng.integers(0, n_values, size=(rows, len(y))) / 3
    dist[:3] = 2 / 3
    a, b = np.flatnonzero(y == np.bincount(y).argmax())[:2]
    dist[3:6] = 1 / 3
    dist[3:6, a], dist[3:6, b] = 0.0, 2 / 3
    return dist, y


def best_gain_split_counts(dist, y):
    """How many valid splits of each row reach the row's best gain."""
    sd = np.sort(dist, axis=1)
    gains = np.where(sd[:, 1:] > sd[:, :-1], float_split_gains(dist, y), -np.inf)
    return (np.isfinite(gains) & (gains == gains.max(axis=1, keepdims=True))).sum(axis=1)


def assert_bitwise_equal(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("n_values", [3, 4, 5])
@pytest.mark.parametrize("n_classes", [1, 2, 3, 9, 12])
def test_batch_best_split_equals_stable_sort_split_on_tie_heavy_blocks(n_classes, n_values):
    """The unstable argsort and the pick-site threshold and gap change no
    bit: at a valid split the left side is the same set of series in any
    order of equal distances."""
    dist, y = tie_heavy_block(n_classes, n_values)
    counts = ClassCounts.of(y)
    got = _batch_best_split(dist, counts)
    assert_bitwise_equal(got, stable_sort_batch_best_split(dist, counts))
    for row, scores in zip(dist, zip(*got)):
        assert scores == best_split(list(zip(row.tolist(), y.tolist())))
    ties = best_gain_split_counts(dist, y)
    assert (ties[:3] == 0).all() and (ties[3:6] == 2).all()


@pytest.mark.parametrize("n_classes", [2, 3, 12])
def test_batch_best_split_independent_of_series_order(n_classes):
    dist, y = tie_heavy_block(n_classes, 4)
    want = _batch_best_split(dist, ClassCounts.of(y))
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(len(y))
        assert_bitwise_equal(_batch_best_split(dist[:, perm], ClassCounts.of(y[perm])), want)


@pytest.mark.parametrize("n_classes", [2, 3, 12])
def test_batch_best_split_holds_at_most_split_rows(n_classes):
    dist, y = tie_heavy_block(n_classes, 3, rows=3000)
    counts = ClassCounts.of(y)
    tracemalloc.start()
    try:
        _batch_best_split(dist, counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak + dist.nbytes <= SPLIT_ROWS * dist.nbytes


@pytest.mark.parametrize("n", [1000, 3000])
def test_class_counts_table_holds_the_largest_class_columns(n):
    """Two equal classes: the table has a column for each count up to the
    larger class, and its build holds little beside it (the (n + 1)^2
    table and three temporaries of its size peaked at 206 MB for n =
    3,000)."""
    y = np.arange(n) % 2
    tracemalloc.start()
    try:
        counts = ClassCounts.of(y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.h.shape == (n + 1, n // 2 + 1)
    assert peak <= counts.h.nbytes + 4 * SQUARE_CHUNK
    a = np.arange(n // 2 + 1)
    s = np.maximum(np.arange(n + 1), 1)[:, None]
    p = a / s
    assert np.array_equal(counts.h, -(p * np.log2(np.where(p > 0, p, 1.0))))


def test_mine_peak_memory_within_scoring_budget():
    # more and longer series than any benchmark workload; the strides keep
    # the candidate count, and so the time, small
    d = bump_dataset(seed=1, per_class=40, m=96)
    cfg = MiningConfig(length_stride=8, position_stride=2)
    n_cands = len(generate_candidates(d, cfg))
    tracemalloc.start()
    try:
        # the call returns after the first pass; columns scores the rest
        mine_shapelets(d, cfg).columns
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the unscored table's six columns and the three score rows grow with
    # the candidate count whatever the block size; the budget is the rest
    working = peak - 9 * 8 * n_cands
    assert SCORING_BUDGET / 2 < working <= SCORING_BUDGET


def test_mine_peak_memory_on_long_series_within_window_matrix_and_half_budget():
    """Long series, where the longest length's window matrix (10.5 MB) is
    above half the budget. As the SCORING_BUDGET comment allows, the
    working memory may then reach that matrix plus half the budget, no
    more: znorm_rows squared the whole matrix into a temporary of its own
    size (24.9 MB peak) before it squared it a chunk of rows at a time."""
    d = bump_dataset(seed=0, per_class=10, m=512)
    cfg = MiningConfig(length_stride=32)
    table = generate_candidates(d, cfg)
    largest = max(8 * d.n * (d.m - L + 1) * (L + 1) for L in np.unique(table.columns[2]))
    assert largest > SCORING_BUDGET / 2
    tracemalloc.start()
    try:
        mine_shapelets(d, cfg).columns
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 9 * 8 * len(table) <= largest + SCORING_BUDGET / 2


@pytest.mark.parametrize("kind", ["bump", "integer"])
def test_generate_peak_memory_within_scoring_budget(kind):
    """Long series, where generation held about three copies of every
    window of a length (41.2 MB on the bump set) before it compared windows
    only within groups of equal hash, a chunk at a time."""
    rng = np.random.default_rng(3)
    if kind == "bump":
        d = bump_dataset(seed=0, per_class=10, m=512)
    else:
        d = Dataset(X=rng.integers(0, 3, size=(20, 512)).astype(np.float64), y=np.arange(20) % 2)
    cfg = MiningConfig(length_stride=32)
    tracemalloc.start()
    try:
        n_cands = len(generate_candidates(d, cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 6 * 8 * n_cands <= SCORING_BUDGET


def test_mine_raises_when_every_candidate_window_is_flat():
    d = bump_dataset(seed=0, per_class=4, m=40)
    cfg = MiningConfig(min_len=4, max_len=8)
    for X in (d.X * 1e-9, d.X * 1e-12, np.zeros_like(d.X)):
        with pytest.raises(FlatTrainingSetError, match="standard deviation"):
            mine_shapelets(Dataset(X=X, y=d.y), cfg)
    # one window above the bound is enough, and without z-normalization
    # flatness does not matter
    X = d.X * 1e-9
    X[2, 10:14] = [0.0, 1.0, 0.0, 1.0]
    assert mine_shapelets(Dataset(X=X, y=d.y), cfg)[0].gain > 0
    raw = dataclasses.replace(cfg, normalize=DistanceConfig(normalize_windows=False))
    assert mine_shapelets(Dataset(X=d.X * 1e-9, y=d.y), raw)[0].gain == mine_shapelets(d, raw)[0].gain


def test_mine_single_class_all_zero_gain():
    rng = np.random.default_rng(1)
    d = Dataset(X=rng.normal(size=(4, 12)), y=np.zeros(4, dtype=int))
    mined = mine_shapelets(d, MiningConfig(min_len=3, max_len=4))
    assert all(s.gain == 0.0 for s in mined)
    lengths = [s.length for s in mined]
    # gain and gap exhausted: sort falls back to length then provenance
    assert lengths == sorted(lengths)


def test_mine_deterministic(toy_train):
    cfg = MiningConfig(min_len=4, max_len=6)
    a = mine_shapelets(toy_train, cfg)
    b = mine_shapelets(toy_train, cfg)
    assert len(a) == len(b)
    for s, t in zip(a, b):
        assert s == t


def test_mine_workers_match_serial(toy_train):
    cfg = MiningConfig(min_len=4, max_len=6)
    a = mine_shapelets(toy_train, cfg)
    b = mine_shapelets(toy_train, cfg, workers=4)
    assert a == b


DETERMINISM_SCRIPT = """
import json
from conftest import bump_dataset
from divshap.mining import MiningConfig, mine_shapelets
d = bump_dataset(seed=2, per_class=6, m=48)
print(json.dumps([
    [[s.id, s.split_threshold.hex(), s.gain.hex(), s.gap.hex()] for s in mine_shapelets(d, MiningConfig(), workers=w)]
    for w in (1, 2)
]))
"""


@pytest.fixture(scope="module")
def mined_by_blas_threads():
    """{OPENBLAS_NUM_THREADS: [rows mined with workers=1, rows with workers=2]},
    each thread count in its own interpreter, since OpenBLAS reads it at load."""
    runs = {}
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)])}
        out = subprocess.run(
            [sys.executable, "-c", DETERMINISM_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        runs[threads] = json.loads(out.stdout)
    return runs


def test_mined_sequence_independent_of_workers(mined_by_blas_threads):
    for serial, parallel in mined_by_blas_threads.values():
        assert len(serial) > 1000
        assert serial == parallel


def test_mined_order_and_gains_independent_of_blas_threads(mined_by_blas_threads):
    one, two = (runs[0] for runs in mined_by_blas_threads.values())
    assert [(r[0], r[2]) for r in one] == [(r[0], r[2]) for r in two]


def test_mined_thresholds_and_gaps_independent_of_blas_threads(mined_by_blas_threads):
    one, two = (runs[0] for runs in mined_by_blas_threads.values())
    assert one == two


def test_mine_sort_key_is_total_order(toy_train):
    mined = mine_shapelets(toy_train, MiningConfig(min_len=4, max_len=6))
    keys = [(-s.gain, -s.gap, s.length, s.source_series, s.start) for s in mined]
    assert keys == sorted(keys)


def test_mine_invariant_to_training_order(toy_train):
    perm = np.random.default_rng(4).permutation(toy_train.n)
    shuffled = Dataset(X=toy_train.X[perm], y=toy_train.y[perm], name="shuffled")
    a = mine_shapelets(toy_train, MiningConfig(min_len=4, max_len=6))
    b = mine_shapelets(shuffled, MiningConfig(min_len=4, max_len=6))
    key = lambda s: (round(s.gain, 9), round(s.gap, 9), s.values.tobytes())
    assert sorted(map(key, a)) == sorted(map(key, b))


def test_mine_gain_bounded_by_class_entropy(toy_train):
    mined = mine_shapelets(toy_train, MiningConfig(min_len=4, max_len=6))
    counts = np.bincount(toy_train.y)[np.unique(toy_train.y)]
    h = entropy(counts)
    for s in mined:
        assert -1e-12 <= s.gain <= h + 1e-12


def subset_block(n_classes, seed, rows=300):
    """A tie-heavy block of distances to 21 + n_classes series, as
    tie_heavy_block draws it, and a random subset of its columns."""
    dist, y = tie_heavy_block(n_classes, 3 + seed % 3, rows)
    rng = np.random.default_rng(seed)
    kind = seed % 3
    if kind == 0:  # a stratified half
        subset = np.concatenate([rng.permutation(np.flatnonzero(y == k))[: (y == k).sum() // 2 + 1] for k in range(n_classes)])
    elif kind == 1:  # any columns
        subset = rng.choice(len(y), size=int(rng.integers(1, len(y))), replace=False)
    else:  # one class only
        subset = rng.permutation(np.flatnonzero(y == rng.integers(n_classes)))[: int(rng.integers(1, 4))]
    return dist, y, subset


def bound_of(keys, label, counts):
    """_gain_bound of keys to the series of class indices label, with the
    corner-maxed table of counts for them."""
    return _gain_bound(keys, label, counts.total, _corner_max(_gain_table(counts), label, counts.total))


@pytest.mark.parametrize("n_classes", [2, 3, 5, 7])
def test_gain_bound_is_at_least_the_full_gain(n_classes):
    """On every row, the bound from the distances to a subset of the
    series holds the gain of the best split of the full row; subsets
    stratified, arbitrary or of one class."""
    for seed in range(9):
        dist, y, subset = subset_block(n_classes, seed)
        counts = ClassCounts.of(y)
        gain = _batch_best_split(dist, counts)[1]
        bound = bound_of(dist[:, subset], counts.label[subset], counts)
        assert (bound >= gain).all(), (seed, np.min(bound - gain))
        # a subset of every series bounds each row by its own gain
        whole = bound_of(dist, counts.label, counts)
        assert np.array_equal(whole, gain)


def per_shift_bound(dist, label, total, gains):
    """The bound as _gain_bound took it before its corner-maxed table: the
    prefixes of each row's sorted distances, and one gather of gains, and
    one max, per distinct corner shift, each read clipped to the table's
    end."""
    c, s = dist.shape
    strides = np.r_[np.cumprod((total + 1)[:0:-1])[::-1], 1]
    order = np.argsort(dist, axis=1)
    sd = np.take_along_axis(dist, order, axis=1)
    prefix = np.zeros((c, s + 1), dtype=np.intp)
    np.cumsum(strides[label][order], axis=1, out=prefix[:, 1:])
    prefix[:, 1:s][sd[:, 1:] <= sd[:, :-1]] = len(gains) - 1
    unknown = (total - np.bincount(label, minlength=len(total))) * strides
    corners = np.array(list(itertools.product((0, 1), repeat=len(total))))
    best = np.full(c, -np.inf)
    for shift in np.unique(corners @ unknown).tolist():
        np.maximum(best, gains.take(prefix + shift, mode="clip").max(axis=1), out=best)
    return best


@pytest.mark.parametrize("n_classes", [2, 3])
def test_corner_maxed_table_gives_the_per_shift_bounds_bit_for_bit(n_classes):
    """One gather of the corner-maxed table per bound reads what a gather
    per corner shift read, on tie-heavy blocks and subsets stratified,
    arbitrary or of one class."""
    for seed in range(9):
        dist, y, subset = subset_block(n_classes, seed)
        counts = ClassCounts.of(y)
        label = counts.label[subset]
        want = per_shift_bound(dist[:, subset], label, counts.total, _gain_table(counts))
        assert np.array_equal(bound_of(dist[:, subset], label, counts).view(np.uint64), want.view(np.uint64)), seed


def per_class_gain_table(counts):
    """_gain_table as it was built before its per-class gathers: a loop over
    the classes of in-place takes from the raveled h, then the gains in
    place, as _batch_best_split takes them."""
    shape = counts.total + 1
    n = len(counts.label)
    left = np.indices(shape).reshape(len(shape), -1)
    nl = left.sum(axis=0)
    nr = n - nl
    h, stride = counts.h.ravel(), counts.h.shape[1]
    h_left = h.take(nl * stride + left[0])
    h_right = h.take(nr * stride + counts.total[0] - left[0])
    for k in range(1, len(shape)):
        h_left += h.take(nl * stride + left[k])
        h_right += h.take(nr * stride + counts.total[k] - left[k])
    gains = h_left
    gains *= nl / n
    np.subtract(entropy(counts.total), gains, out=gains)
    h_right *= nr / n
    gains -= h_right
    return np.append(gains, -np.inf)


@pytest.mark.parametrize("n_classes", [1, 2, 3, 4])
def test_gain_table_equals_the_per_class_loop_bit_for_bit(n_classes):
    """The gathers summed in class order and the one expression give the
    loop's bits, signs of zero included, on classes of equal and unequal
    sizes."""
    rng = np.random.default_rng(n_classes)
    for sizes in ([5] * n_classes, rng.integers(1, 12, size=n_classes).tolist()):
        counts = ClassCounts.of(np.repeat(np.arange(n_classes), sizes))
        got, want = _gain_table(counts), per_class_gain_table(counts)
        assert got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64)), sizes


def series_with_ties(rng, n, m, scale, shift):
    """n random series of length m, times scale plus shift, with a flat
    stretch in each and a stretch of series 0 copied into series 1, so that
    some queries score two series alike."""
    X = rng.normal(size=(n, m))
    for row in X:
        start = int(rng.integers(0, m - 8))
        row[start : start + 8] = row[start]
    X[1, 5:17] = X[0, 20:32]
    return X * scale + shift


@pytest.mark.parametrize("length_normalize", [True, False])
@pytest.mark.parametrize("normalize", [True, False])
def test_order_keys_bound_equals_the_bound_of_measured_distances(normalize, length_normalize, monkeypatch):
    """The bound from _order_keys equals _gain_bound on the distances
    nearest_window_dists measures, bit for bit on every row, for
    z-normalized and raw windows, of series at their own scale and at a
    large one. A row with keys from scores sorts in the order of its
    distances, which hold no tie; rows whose scores lie within the tie
    margin, as those of the copied stretch and of flat windows do, take the
    measured path, and some do."""
    cfg = DistanceConfig(normalize_windows=normalize, length_normalize=length_normalize)
    measured = []
    measure = mining.nearest_window_dists
    monkeypatch.setattr(mining, "nearest_window_dists", lambda q, w, c: measured.append(len(q)) or measure(q, w, c))
    rng = np.random.default_rng(26)
    for scale, shift in ((1.0, 0.0), (1e3, 1e4)):
        X = series_with_ties(rng, 14, 40, scale, shift)
        y = rng.permutation(np.arange(14) % 3)
        counts = ClassCounts.of(y)
        subset = np.r_[0:4, rng.choice(np.arange(4, 14), 4, replace=False)]
        for L in (3, 6, 12):
            windows = Windows.of_series(X[subset], L, cfg)
            every = Windows.of_series(X, L, cfg).scan.reshape(-1, L + 1)
            queries = np.vstack([every, Windows.of_series(rng.normal(size=(20, L)) * scale + shift, L, cfg).scan[:, 0]])
            before = sum(measured)
            keys = _order_keys(queries, windows, cfg)
            dist = measure(queries[:, :L], windows, cfg)
            assert sum(measured) - before < len(queries)
            label = counts.label[subset]
            got, want = bound_of(keys, label, counts), bound_of(dist, label, counts)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            scored = ~np.all(keys == dist, axis=1)
            sd = np.sort(dist[scored], axis=1)
            assert (sd[:, 1:] > sd[:, :-1]).all()
            assert np.array_equal(np.argsort(keys[scored], axis=1), np.argsort(dist[scored], axis=1))
    assert sum(measured) > 0


@pytest.mark.parametrize("n_classes", [2, 3, 4])
def test_exact_gain_from_pick_scores_equals_the_split_of_measured_distances(n_classes, monkeypatch):
    """Completion keys a candidate against every series before it measures
    it: _gain_bound of _order_keys, with the plain gain table, since S is
    every series. That exact gain is _batch_best_split's gain of the
    measured distances, bit for bit, on every row with a valid split, for
    z-normalized and raw windows; on a row with none (all distances equal,
    as for a flat query against series that each hold a flat stretch) it
    reads only the cuts p = 0 and p = |S|, and is within GAIN_MARGIN of the
    split's 0. A whole series held twice ties every row, so some rows take
    the measured path."""
    measured = []
    measure = mining.nearest_window_dists
    monkeypatch.setattr(mining, "nearest_window_dists", lambda q, w, c: measured.append(len(q)) or measure(q, w, c))
    rng = np.random.default_rng(28 + n_classes)
    n = 7 * n_classes
    X = series_with_ties(rng, n, 36, 1.0, 0.0)
    X[3] = X[2]
    counts = ClassCounts.of(rng.permutation(np.arange(n) % n_classes))
    gains = _gain_table(counts)
    no_split = 0
    for cfg in (DistanceConfig(), DistanceConfig(normalize_windows=False, length_normalize=False)):
        for L in (3, 7, 12):
            windows = Windows.of_series(X, L, cfg)
            queries = windows.scan.reshape(-1, L + 1)
            exact = _gain_bound(_order_keys(queries, windows, cfg), counts.label, counts.total, gains)
            dist = measure(queries[:, :L], windows, cfg)
            gain = _batch_best_split(dist, counts)[1]
            sd = np.sort(dist, axis=1)
            valid = (sd[:, 1:] > sd[:, :-1]).any(axis=1)
            assert np.array_equal(exact[valid].view(np.uint64), gain[valid].view(np.uint64)), (cfg, L)
            assert (np.abs(exact[~valid] - gain[~valid]) <= mining.GAIN_MARGIN).all()
            no_split += int((~valid).sum())
    assert no_split > 0 and sum(measured) > 0


def test_mine_workers_give_identical_columns_with_a_first_pass():
    """Two classes of 32 give a first pass over 8 + 8 series; one and two
    workers mine the same columns, bit for bit."""
    d = bump_dataset(seed=3, per_class=32, m=24)
    cfg = MiningConfig(min_len=3, max_len=10)
    one, two = mine_shapelets(d, cfg), mine_shapelets(d, cfg, workers=2)
    assert one._pending.first is not None and len(one._pending.first) == 16
    for a, b in zip(one.columns, two.columns, strict=True):
        assert a.tobytes() == b.tobytes()


def assert_lazy_reads_equal_forced(d, cfg, monkeypatch, stage_min=2):
    """Fresh tables read row by row, by slices and through div_topk give
    the rows of a table first scored in full."""
    monkeypatch.setattr(mining, "STAGE_MIN", stage_min)
    forced = mine_shapelets(d, cfg)
    forced.columns
    n = len(forced)
    table = mine_shapelets(d, cfg)
    assert table._pending.first is not None  # a bounded first pass ran
    assert [table[i] for i in range(n)] == [forced[i] for i in range(n)]
    table = mine_shapelets(d, cfg)
    cuts = [0, 1, 17, 18, 300, n // 2, n]
    assert [s for a, b in zip(cuts, cuts[1:]) for s in table[a:b]] == forced[:]
    table = mine_shapelets(d, cfg)
    assert table[40:3:-3] == forced[40:3:-3]
    table = mine_shapelets(d, cfg, workers=2)
    assert [table[i] for i in range(n)] == [forced[i] for i in range(n)]
    for kappa in (1, 9):
        graph = build_graph(mine_shapelets(d, cfg), cfg.normalize)
        assert div_topk(graph, kappa) == div_topk(build_graph(forced, cfg.normalize), kappa)


@pytest.mark.parametrize(
    "kind, stage_min",
    [
        pytest.param(kind, stage_min, id=kind if stage_min == 2 else f"{kind}-stage{stage_min}")
        for stage_min in (2, mining.STAGE_MIN)
        for kind in ("bump", "xor", "three-class")
    ],
)
def test_lazy_table_reads_equal_a_table_scored_in_full(kind, stage_min, monkeypatch):
    """At STAGE_MIN 2 each class's quarter gives a bounded first pass; at
    the default, classes of 8 to 12 give a first pass over every series,
    whose bounds are exact gains."""
    if kind == "bump":
        d = bump_dataset(seed=4, per_class=12, m=24)
    elif kind == "xor":
        d = xor_dataset(seed=4, per_cell=6, m=24)
    else:
        d = motif_dataset((8, 9, 10), m=20, seed=5)
    assert_lazy_reads_equal_forced(d, MiningConfig(min_len=3, max_len=9), monkeypatch, stage_min)
    assert (len(mine_shapelets(d, MiningConfig(min_len=3, max_len=9))._pending.first) == d.n) == (stage_min > 2)


def test_select_k_scores_fewer_than_half_of_a_fit_wide_table(monkeypatch):
    """The greedy scan of select_k reads a fresh table of the benchmark's
    fit-wide draw 0, and fewer than half of its candidates are scored
    against every series."""
    monkeypatch.syspath_prepend(str(REPO_ROOT / "benchmark"))
    from workloads import WORKLOADS

    from divshap.pipeline import select_k

    train = WORKLOADS["fit-wide"].make(0, 0)[0]
    cfg = PipelineConfig()
    completed = []
    split = mining._batch_best_split
    monkeypatch.setattr(mining, "_batch_best_split", lambda dist, counts: completed.append(len(dist)) or split(dist, counts))
    table = mine_shapelets(train, MiningConfig(normalize=cfg.distance))
    assert sum(completed) == 0 and len(table) == 44100
    select_k(build_graph(table, cfg.distance), train, cfg)
    assert 0 < sum(completed) < len(table) / 2


def test_lazy_table_read_by_more_threads_than_cores_in_small_blocks(monkeypatch):
    """Scoring threads write the shared score, bound and state arrays of
    _PrunedScoring, and a budget of 64 KiB makes their blocks small, so
    eight threads write them often at a switch interval of a microsecond.
    A lost or misplaced write would give a wrong row."""
    monkeypatch.setattr(mining, "STAGE_MIN", 2)
    monkeypatch.setattr(mining, "SCORING_BUDGET", 2**16)
    d = bump_dataset(seed=6, per_class=12, m=24)
    cfg = MiningConfig(min_len=3, max_len=9)
    forced = mine_shapelets(d, cfg)
    forced.columns
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        table = mine_shapelets(d, cfg, workers=8)
        rows = [table[i] for i in range(len(table))]
    finally:
        sys.setswitchinterval(interval)
    assert rows == forced[:]


def classes_of(*sizes):
    return ClassCounts.of(np.repeat(np.arange(len(sizes)), sizes))


def test_first_pass_takes_a_rounded_quarter_of_each_class():
    """Two classes of 30 give 8 + 8 series, since round(7.5) rounds up; a
    class of 29 gives 7, too few for a quarter, but holds STAGE_MIN, so
    the pass takes every series; a class of 7 gives no pass, and one class
    is not bounded."""
    counts = classes_of(30, 30)
    first = mining._first_series(counts, True)
    assert np.array_equal(first, np.r_[0:8, 30:38])
    assert mining._first_series(counts, False) is None
    assert np.array_equal(mining._first_series(classes_of(29, 30), True), np.arange(59))
    assert mining._first_series(classes_of(7, 30), True) is None
    assert mining._first_series(classes_of(60), True) is None


def test_no_first_pass_when_the_gain_table_exceeds_square_chunk():
    """Four classes of 40 would give 10 series each, but their gain table
    of 41^4 entries is above SQUARE_CHUNK, so the gains are not bounded."""
    counts = classes_of(40, 40, 40, 40)
    assert 8 * 41**4 > SQUARE_CHUNK and _gain_table(counts) is None
    d = Dataset(X=np.random.default_rng(0).normal(size=(160, 12)), y=np.repeat(np.arange(4), 40))
    table = mine_shapelets(d, MiningConfig(min_len=6, max_len=6))
    assert table._pending.first is None


def count_work(monkeypatch):
    """Wrap mining's window kernels and its split; the returned dict maps
    nearest_window_scores and nearest_window_dists to {series: query rows}
    of their calls, and _batch_best_split to the rows it split."""
    work = {"nearest_window_scores": {}, "nearest_window_dists": {}, "_batch_best_split": 0}
    for name in ("nearest_window_scores", "nearest_window_dists"):
        kernel = getattr(mining, name)

        def counted(queries, windows, *cfg, kernel=kernel, rows=work[name]):
            rows[len(windows.scan)] = rows.get(len(windows.scan), 0) + len(queries)
            return kernel(queries, windows, *cfg)

        monkeypatch.setattr(mining, name, counted)
    split = mining._batch_best_split

    def counted_split(dist, counts):
        work["_batch_best_split"] += len(dist)
        return split(dist, counts)

    monkeypatch.setattr(mining, "_batch_best_split", counted_split)
    return work


def cells(rows):
    """(query, series) cells of a kernel's {series: query rows}."""
    return sum(n * r for n, r in rows.items())


def fit_wide_draw0(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "benchmark"))
    from workloads import WORKLOADS

    return WORKLOADS["fit-wide"].make(0, 0)[0]


def serving_set(monkeypatch, workload):
    """The training set of a benchmark workload's serving model."""
    monkeypatch.syspath_prepend(str(REPO_ROOT / "benchmark"))
    from workloads import WORKLOADS

    return WORKLOADS[workload].model_data()[0]


@pytest.mark.parametrize("workload, first", [("fit-long", None), ("fit-wide", 16), ("predict-batch", 32)])
def test_each_benchmark_serving_set_takes_its_first_pass(workload, first, monkeypatch):
    """fit-long's classes of 5 hold fewer than STAGE_MIN series, so its set
    has no first pass; fit-wide's classes of 30 give a quarter, 8 + 8; and
    predict-batch's classes of 16 give too few for a quarter, so its pass
    takes all 32 series."""
    train = serving_set(monkeypatch, workload)
    counts = ClassCounts.of(train.y)
    got = mining._first_series(counts, _gain_table(counts) is not None)
    assert (None if got is None else len(got)) == first
    if first == train.n:
        assert np.array_equal(got, np.arange(train.n))


def test_reading_a_fit_wide_table_measures_each_candidate_against_a_quarter_and_then_every_series(monkeypatch):
    """Every row of a fresh table of the benchmark's fit-wide draw 0, read in
    turn, costs one first pass against 16 of the 60 series, one exact gain
    from the pick scores against all 60 (the key stage) and one completion
    against all 60: no candidate is keyed twice or completed twice. The
    first pass and the keys only score, 44,100 x (16 + 60) = 3,351,600
    (candidate, series) cells (nearest_window_scores): no row of this draw
    has two scores within the tie margin, so only completion measures,
    44,100 x 60 = 2,646,000 cells. Each read past the certified rows is
    scored for as many rows as are certified, so the read takes a number of
    completion rounds logarithmic in the row count, not one per few rows."""
    train = fit_wide_draw0(monkeypatch)
    work = count_work(monkeypatch)
    table = mine_shapelets(train, MiningConfig(normalize=PipelineConfig().distance))
    first = len(table._pending.first)
    scored, measured = work["nearest_window_scores"], work["nearest_window_dists"]
    assert first == 16 and scored == {16: len(table)} and cells(scored) == 705_600 and not measured
    rounds = []
    advance = mining._PrunedScoring.advance
    monkeypatch.setattr(mining._PrunedScoring, "advance", lambda *a, **k: rounds.append(1) or advance(*a, **k))
    for i in range(len(table)):
        table[i]
    assert len(rounds) <= np.log2(len(table)) + 1
    # each candidate keyed at most once and completed at most once
    assert scored == {16: len(table), train.n: len(table)} and work["_batch_best_split"] == len(table)
    assert cells(scored) == len(table) * (first + train.n) == 3_351_600
    assert measured == {train.n: len(table)} and cells(measured) == 2_646_000


def test_reading_every_column_of_a_fit_wide_table_completes_each_candidate_with_no_keys(monkeypatch):
    """A read of the whole table completes every candidate at once: no key
    stage scores any, so the first pass's 705,600 cells are the only ones
    scored, and completion measures 44,100 x 60 = 2,646,000."""
    train = fit_wide_draw0(monkeypatch)
    work = count_work(monkeypatch)
    table = mine_shapelets(train, MiningConfig(normalize=PipelineConfig().distance))
    table.columns
    assert work["nearest_window_scores"] == {16: 44_100} and cells(work["nearest_window_scores"]) == 705_600
    assert work["nearest_window_dists"] == {60: 44_100} and cells(work["nearest_window_dists"]) == 2_646_000
    assert work["_batch_best_split"] == 44_100


def test_a_fit_wide_fit_splits_only_the_rows_it_certifies(monkeypatch):
    """A fit of fit-wide draw 0 keys 12,507 candidates against every series,
    and only the 1,551 whose exact gain reaches a cut are measured and
    split: exactly the rows the fit certifies. Two workers certify the same
    rows with the same counts."""
    from divshap.pipeline import _fit_from_graph, mine_graph

    train = fit_wide_draw0(monkeypatch)
    cfg = PipelineConfig()
    seen = []
    for workers in (1, 2):
        work = count_work(monkeypatch)
        prepared, graph = mine_graph(train, cfg, workers=workers)
        _fit_from_graph(graph, prepared, cfg)
        certified = graph.vertices._order
        assert work["nearest_window_scores"] == {16: 44_100, 60: 12_507}
        assert work["_batch_best_split"] == len(certified) == 1_551
        assert work["nearest_window_dists"] == {60: 1_551}
        seen.append((certified.tobytes(), work))
        monkeypatch.undo()
    assert seen[0] == seen[1]


def test_a_serving_fit_keyed_against_every_series_splits_only_the_rows_it_certifies(monkeypatch):
    """The predict-batch serving set (xor, classes of 16, m = 80) gives a
    first pass over all 32 series: mining scores its 62,560 candidates
    against them, which gives each its exact gain, and splits none. The fit
    then measures and splits only the rows it certifies, and keys none
    again. Two workers certify the same rows with the same counts."""
    from divshap.pipeline import _fit_from_graph, mine_graph

    train = serving_set(monkeypatch, "predict-batch")
    cfg = PipelineConfig()
    seen = []
    for workers in (1, 2):
        work = count_work(monkeypatch)
        prepared, graph = mine_graph(train, cfg, workers=workers)
        assert len(graph.vertices._pending.first) == train.n == 32
        assert work["nearest_window_scores"] == {32: 62_560} and work["_batch_best_split"] == 0
        _fit_from_graph(graph, prepared, cfg)
        certified = graph.vertices._order
        assert work["nearest_window_scores"] == {32: 62_560}
        assert work["_batch_best_split"] == len(certified) == 316
        assert work["nearest_window_dists"] == {32: 316}
        seen.append((certified.tobytes(), work))
        monkeypatch.undo()
    assert seen[0] == seen[1]
