"""Shapelet candidate generation and information-gain scoring.

Candidates are every subsequence of every training series inside a length
band (defaults m/11 .. m/2). Each candidate is scored by the best
information-gain split of its orderline: the sorted distances from the
candidate to all training series. When each class is large enough,
every candidate is first scored against a quarter of each class's series,
and against all of them only as far as a reader of the table reaches: the
order of the distances to the quarter bounds the gain (after the optimistic
gain of Ye & Keogh, KDD 2009), and a row is shown once its gain beats every
bound still open, as a diversified top-k stops on bounds (Qin, Yu & Chang,
PVLDB 2012). The first pass reads that order from the pick scores, and
measures only the rows whose scores may tie. Every row shown is the row
that scoring every candidate against every series gives, bit for bit. The
batched split reads each split's entropy from a table of p log2 p terms
over integer class counts (ClassCounts), so it takes no logarithm per
candidate. Generation, scoring and the best-first ordering work on the
columns of a CandidateTable; a Shapelet object is built only when its row
is read, and the greedy scan of the diversity graph reads its blocks of
rows as arrays (CandidateTable.peek) and builds only the Shapelets it
keeps.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dataset import FLAT_STD, SQUARE_CHUNK, Dataset, znorm_rows
from .distance import (
    DEFAULT_CONFIG,
    DistanceConfig,
    Windows,
    nearest_window_dists,
    nearest_window_scores,
    pair_dists,
)
from .errors import BandEmptyError, FlatTrainingSetError, InvalidConfigError, ShapeletLongerThanSeriesError, require_int


@dataclass(frozen=True, eq=False)
class Shapelet:
    """A candidate subsequence with provenance and split statistics.

    split_threshold is the orderline distance threshold maximizing
    information gain; gap is the margin between mean distances on either
    side of it (the tie-break key).
    """

    values: np.ndarray
    source_series: int
    start: int
    length: int
    class_label: int
    split_threshold: float = 0.0
    gain: float = 0.0
    gap: float = 0.0

    def __post_init__(self) -> None:
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Shapelet):
            return NotImplemented
        return (
            self.source_series == other.source_series
            and self.start == other.start
            and self.length == other.length
            and self.class_label == other.class_label
            and self.split_threshold == other.split_threshold
            and self.gain == other.gain
            and self.gap == other.gap
            and np.array_equal(self.values, other.values)
        )

    @property
    def id(self) -> str:
        return f"s{self.source_series}_{self.start}_{self.length}"

    @cached_property
    def znormed(self) -> np.ndarray:
        """The values z-normalized as znorm_rows gives them, computed on
        first use and kept, read-only, for every later transform."""
        z = znorm_rows(self.values[None])[0]
        z.flags.writeable = False
        return z


@dataclass(frozen=True)
class MiningConfig:
    """Candidate band, strides, and the window distance used for scoring.

    min_len/max_len default to max(3, m // 11) and m // 2 for series
    length m. The pipeline sets normalize to its own distance config. A
    bound or stride that is not an integer, a bound below 2 or a stride
    below 1 raises InvalidConfigError.
    """

    min_len: int | None = None
    max_len: int | None = None
    length_stride: int = 1
    position_stride: int = 1
    normalize: DistanceConfig = field(default_factory=DistanceConfig)

    def __post_init__(self) -> None:
        for name, minimum in (("min_len", 2), ("max_len", 2), ("length_stride", 1), ("position_stride", 1)):
            if getattr(self, name) is not None:
                require_int(name, getattr(self, name), minimum)

    def band(self, m: int) -> tuple[int, int]:
        """Resolve the candidate length band for series length m; a max_len
        above m raises InvalidConfigError, an empty band BandEmptyError."""
        lo = self.min_len if self.min_len is not None else max(3, m // 11)
        hi = self.max_len if self.max_len is not None else m // 2
        if hi > m:
            raise InvalidConfigError(f"max_len {hi} exceeds series length {m}")
        if lo > hi:
            raise BandEmptyError(f"length band [{lo}, {hi}] is empty")
        return lo, hi


class CandidateTable(Sequence[Shapelet]):
    """Candidates over one training set, stored as parallel columns.

    Row r is the window X[source[r], start[r] : start[r] + length[r]] of
    class y[source[r]], with its split threshold, gain and gap (zeros until
    scored). The table is a read-only sequence of Shapelet: a row's Shapelet
    is built when the row is first read and kept, so a row always gives the
    same object and rows never read are never built. A slice is a list of
    those objects; == compares element by element.

    A table that mine_shapelets returns may hold only a certified prefix of
    its rows (see _PrunedScoring): len() is always the candidate count, and
    reading a row or a slice scores only as far as it reaches. columns, ==
    and negative indices score the whole table.
    """

    def __init__(self, train: Dataset, source, start, length, threshold, gain, gap, *, pending=None):
        self._train = train
        self._built: dict[int, Shapelet] = {}
        self._rows = (source, start, length, threshold, gain, gap)
        self._pending: _PrunedScoring | None = pending
        self._order = np.arange(len(source)) if pending is None else pending.certified
        self._columns = self._rows if pending is None else None
        if pending is None:
            for column in self._rows:
                column.flags.writeable = False

    def _certify(self, need: int, reach: int = 0) -> None:
        """Score until the first need rows are final, and make final as
        many of the first reach as that scoring allows."""
        if self._pending is None or len(self._order) >= max(need, reach):
            return
        self._order = self._pending.certify(need, reach)
        if len(self._order) == len(self):
            self._pending = None

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        """(source, start, length, threshold, gain, gap), read-only, in table
        order."""
        if self._columns is None:
            self._certify(len(self))
            self._columns = tuple(c[self._order] for c in self._rows)
            for column in self._columns:
                column.flags.writeable = False
        return self._columns

    def peek(self, lo: int, hi: int) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
        """(values, class labels, split thresholds) of rows lo to hi - 1, as
        their Shapelets would give them, without building those; each values
        array is a read-only view of the training series. It scores as far
        as a read of row lo does, and stops early at the last row that then
        reads without scoring any more."""
        self._certify(lo + 1, hi)
        c = self._order[lo:hi]
        source, start, length, threshold = (column[c] for column in self._rows[:4])
        X = self._train.X
        values = [X[i, a : a + L] for i, a, L in zip(source.tolist(), start.tolist(), length.tolist())]
        return values, self._train.y[source], threshold

    def __len__(self) -> int:
        return len(self._rows[0])

    def __getitem__(self, index):
        r = range(len(self))[index]
        if isinstance(r, range):
            if len(r):
                self._certify(max(r[0], r[-1]) + 1)
            return [self[i] for i in r]
        self._certify(r + 1)
        if r not in self._built:
            c = self._order[r]
            source, start, length, threshold, gain, gap = self._rows
            src, st, L = int(source[c]), int(start[c]), int(length[c])
            values = self._train.X[src, st : st + L].copy()
            scores = (float(threshold[c]), float(gain[c]), float(gap[c]))
            self._built.setdefault(r, Shapelet(values, src, st, L, int(self._train.y[src]), *scores))
        return self._built[r]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


def generate_candidates(train: Dataset, cfg: MiningConfig) -> CandidateTable:
    """Enumerate all candidate subsequences, dropping exact duplicates.

    Lengths step by length_stride through the band, start positions by
    position_stride. Rows are in (length, source series, start) order, and
    of windows with identical bytes only the first is kept. No Shapelet is
    built here; see CandidateTable.
    """
    lo, hi = cfg.band(train.m)
    ps = cfg.position_stride
    bits = train.X.view(np.uint64)  # identical windows are identical bits
    columns = []
    for L in range(lo, hi + 1, cfg.length_stride):
        windows = np.lib.stride_tricks.sliding_window_view(bits, L, axis=1)[:, ::ps]
        w = windows.shape[1]
        source, slot = np.divmod(_first_distinct(windows), w)
        columns.append((source, slot * ps, np.full(len(source), L)))
    source, start, length = (np.concatenate(c) for c in zip(*columns))
    return CandidateTable(train, source, start, length, *np.zeros((3, len(source))))


# Odd multipliers that spread the low bits of a window's first, middle and
# last values over the high bits of its hash (64-bit golden ratio, and two
# from the murmur3 and xxhash finalizers).
_HASH_MULTIPLIERS = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0xFF51AFD7ED558CCD], dtype=np.uint64)


def _first_distinct(windows: np.ndarray) -> np.ndarray:
    """Flat indices, ascending, of the first of each distinct row of the
    (n, w, L) uint64 window view, in (series, start) order.

    Identical windows share their first, middle and last values and so
    their hash of those three. Each window's sort key holds the hash in its
    high bits and the window's flat index in the low bits, so one sort
    groups windows by hash and lists each group in index order. A window
    alone in its group is distinct; groups of more than one are compared
    byte for byte, a chunk of whole groups at a time. A chunk holds the
    groups that start within SCORING_BUDGET / 8 bytes of rows of its first,
    so memory grows with the rows of one group, not with all the windows.
    """
    n, w, L = windows.shape
    shift = (n * w - 1).bit_length()
    picked = (windows[:, :, j] * c for j, c in zip((0, L // 2, L - 1), _HASH_MULTIPLIERS))
    mixed = np.bitwise_xor.reduce(list(picked))
    keys = np.sort(mixed.ravel() >> shift << shift | np.arange(n * w, dtype=np.uint64))
    index = (keys & ((1 << shift) - 1)).astype(np.intp)
    hashes = keys >> shift
    starts = np.flatnonzero(np.r_[True, hashes[1:] != hashes[:-1], True])
    size = np.diff(starts)
    alone = np.repeat(size == 1, size)
    first = [index[alone]]
    shared = index[~alone]
    if len(shared):
        group_starts = np.cumsum(np.r_[0, size[size > 1][:-1]])
        chunk_rows = max(1, SCORING_BUDGET // (8 * 8 * L))
        cuts = group_starts[np.r_[True, np.diff(group_starts // chunk_rows) > 0]]
        row = np.dtype((np.void, 8 * L))
        for a, b in zip(cuts, np.r_[cuts[1:], len(shared)]):
            chunk = shared[a:b]
            rows = windows[chunk // w, chunk % w].view(row).ravel()
            first.append(chunk[np.unique(rows, return_index=True)[1]])
    return np.sort(np.concatenate(first))


def entropy(counts) -> float:
    """Shannon entropy in bits of a per-class count vector.

    The terms are added in class order, as the batched split adds them;
    numpy's sum would group eight or more of them pairwise.
    """
    c = np.asarray(counts, dtype=np.float64)
    total = c.sum()
    if total <= 0:
        raise ValueError("entropy needs at least one observation")
    p = c[c > 0] / total
    return float(-np.add.accumulate(p * np.log2(p))[-1])


def orderline(s, train: Dataset, cfg: DistanceConfig = DEFAULT_CONFIG) -> list[tuple[float, int]]:
    """Distances from every training series to s (pair_dists), sorted ascending.

    Ties keep series-id order. s may be a Shapelet or a raw value array; one
    longer than the series raises ShapeletLongerThanSeriesError.
    """
    values = np.asarray(getattr(s, "values", s), dtype=np.float64)
    m = train.X.shape[1]
    if values.ndim == 1 and len(values) > m:
        # pair_dists would slide each series along s instead
        raise ShapeletLongerThanSeriesError(f"query length {len(values)} > series length {m}")
    dists = pair_dists([values], list(train.X), cfg)[0].tolist()
    return sorted(zip(dists, map(int, train.y)), key=lambda p: p[0])


def best_split(ol: list[tuple[float, int]]) -> tuple[float, float, float]:
    """Optimal orderline split: (threshold, information gain, gap).

    Thresholds are midpoints between consecutive distinct distances. Ties on
    gain go to the larger gap (mean distance above minus mean below, both
    taken from one cumulative sum, as the batched kernel takes them), then
    to the smaller threshold. A single-class orderline is degenerate and
    yields gain 0 at the midpoint of the distance range.
    """
    if len(ol) < 2:
        raise ValueError("orderline needs at least two entries")
    pairs = sorted(ol, key=lambda p: p[0])
    d = np.array([p[0] for p in pairs])
    labels = np.array([p[1] for p in pairs])
    classes = np.unique(labels)
    if len(classes) == 1:
        return float((d[0] + d[-1]) / 2), 0.0, 0.0

    n = len(d)
    onehot = (labels[:, None] == classes[None, :]).astype(np.float64)
    total = onehot.sum(axis=0)
    h0 = entropy(total)

    best = None
    left = np.zeros(len(classes))
    ps = np.cumsum(d)
    for i in range(n - 1):
        left += onehot[i]
        if d[i + 1] <= d[i]:
            continue
        nl = i + 1
        nr = n - nl
        gain = h0 - (nl / n) * entropy(left) - (nr / n) * entropy(total - left)
        thr = (d[i] + d[i + 1]) / 2
        gap = float((ps[-1] - ps[i]) / nr - ps[i] / nl)
        key = (gain, gap, -thr)
        if best is None or key > best[0]:
            best = (key, thr, gain, gap)

    if best is None:
        # all distances equal: no threshold separates anything
        return float((d[0] + d[-1]) / 2), 0.0, 0.0
    return best[1], best[2], best[3]


def mine_shapelets(
    train: Dataset, cfg: MiningConfig | None = None, *, workers: int = 1
) -> CandidateTable:
    """Score the candidates and order the table best-first.

    Scoring is the batched equivalent of best_split(orderline(c)) for each
    candidate c. The order is (gain desc, gap desc, length asc, source
    series asc, start asc), a total order, so output is deterministic for
    fixed inputs. The call returns after the first pass (_PrunedScoring):
    every candidate scored against a quarter of each class's series, which
    bounds its gain, or, when the classes are too small for that, scored in
    full. Reading rows scores the candidates of highest bound against every
    series until the rows read are certain; the rows are those of scoring
    every candidate in full. A Shapelet is built only when a caller reads
    its row, so a greedy scan that stops early builds, and mostly scores,
    only the prefix it read.

    workers threads score the lengths. They pay only when BLAS runs one
    thread (OPENBLAS_NUM_THREADS=1); with more, they slow mining down.
    """
    cfg = cfg or MiningConfig()
    table = generate_candidates(train, cfg)
    if not len(table):
        return table
    rows = table.columns[:3]
    del table  # and its zero score columns
    pending = _PrunedScoring(train, *rows, cfg.normalize, workers)
    return CandidateTable(train, *rows, *pending.scores, pending=pending)


# Bytes one scoring thread may hold for the candidates of a length that it
# scores against some of the series: the windows of those series (offset
# column included), the kernel's one slice of scores or of picked windows
# (dataset.SQUARE_CHUNK bytes, or one candidate's if more; see
# distance.nearest_window_dists; a first-pass block holds no picks or
# picked windows, only nearest_window_scores' slice of scores, but for the
# few rows whose scores may tie), and per block candidate its raw window,
# its query row with offset and that row extended by -1, and SPLIT_ROWS
# rows of one entry per series scored so far and one more. The best split
# and the gain bound, which run after the kernel, hold at most SPLIT_ROWS
# arrays of one row per candidate and series scored so far, their input
# included. For the split: the sorted distances, the argsort, a class's
# running count and what the counted classes leave, the two entropy sums
# and one class's two terms of them, and a count that is being replaced
# (eight in all with two classes, whose last count is what the first
# leaves). For the bound: the keys, their sorted copy and the test of its
# gaps, then the argsort, the sorted keys, the strides gathered, the
# prefixes and their gains (seven at most). Its later arrays fit in what
# these free. The kernel's output is one of those rows and a slice's picks
# fit in the others; the slice is freed before the split, but is counted
# once beside it. A block, slice included, gets at least half the budget:
# one slice and 1 MiB of rows. So only a window matrix above the other half
# makes a thread exceed it; z-normalizing that matrix in place adds at most
# SQUARE_CHUNK bytes of squares.
# generate_candidates compares windows a chunk of SCORING_BUDGET / 8 bytes
# at a time. The threads share one ClassCounts table of (n + 1) (largest
# class + 1) floats, outside the budget: 3.8 MiB for n = 1,000 in two
# equal classes, 34 MiB for n = 3,000; and the bound's corner-maxed table
# of gains, at most SQUARE_CHUNK bytes.
SCORING_BUDGET = 6 * 2**20
SPLIT_ROWS = 10


@dataclass(frozen=True)
class ClassCounts:
    """Training labels as _batch_best_split reads them.

    label[i] is the class index of series i and total[k] the size of class
    k. h[s, a] is -p log2 p for p = a / s: the entropy term of a class that
    holds a of the s series on one side of a split, for a up to the largest
    class (a side holds no more of a class than the class has). Every
    split's entropy is a sum of these terms, one per class, so a block
    gathers them instead of taking logarithms.
    """

    label: np.ndarray
    total: np.ndarray
    h: np.ndarray

    @classmethod
    def of(cls, y: np.ndarray) -> "ClassCounts":
        """The counts of labels y; the table is built SQUARE_CHUNK bytes of
        rows at a time, so its build holds little beside the table."""
        _, label, total = np.unique(y, return_inverse=True, return_counts=True)
        a = np.arange(total.max() + 1, dtype=np.float64)
        s = np.maximum(np.arange(len(y) + 1, dtype=np.float64), 1.0)
        h = np.empty((len(s), len(a)))
        step = max(1, SQUARE_CHUNK // (8 * len(a)))
        for lo in range(0, len(s), step):
            p = a[None, :] / s[lo : lo + step, None]
            h[lo : lo + step] = -(p * np.log2(np.where(p > 0, p, 1.0)))
        return cls(label.ravel(), total, h)


def _batch_best_split(
    dist: np.ndarray, counts: ClassCounts
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized best_split over rows of a (candidates, series) distance
    matrix.

    The class counts left of each split are integer cumulative sums over
    the labels in distance order (the last class is what the others
    leave), and each side's entropy is the sum, in class order, of the h
    terms gathered for its size and counts. The threshold and gap are taken
    only at the split each row picks; a row whose best gain is reached at
    more than one split breaks the tie as best_split does, by gap, then
    threshold.

    The labels come from an unstable argsort, so series at equal distances
    may come in any order, yet no output depends on that order. A split
    after sorted entry i is valid only where sd[i + 1] > sd[i], and then
    its left side is exactly the series at distances <= sd[i], whatever
    the order among equal ones; so are its class counts and gain. The
    sorted values, their cumulative sums and so the thresholds and gaps do
    not depend on it either: equal distances are equal in every bit, since
    a distance is a sum of squares and never -0.0. Invalid splits are
    masked before the pick.
    """
    c, n = dist.shape
    sd = np.sort(dist, axis=1)
    midrange = (sd[:, 0] + sd[:, -1]) / 2
    if len(counts.total) == 1 or n < 2:
        zero = np.zeros(c)
        return midrange, zero, zero.copy()

    # Block-sized arrays are updated in place where that keeps the float
    # operations: on fit-wide blocks, a cumsum in place took half the time
    # of one into a new array.
    nl = np.arange(1, n)
    nr = n - nl
    h = counts.h.ravel()
    stride = counts.h.shape[1]
    order = np.argsort(dist, axis=1)[:, :-1]  # split i falls after sorted entry i
    rest = nl
    for k, total in enumerate(counts.total):
        if k < len(counts.total) - 1:
            left = (counts.label == k).astype(np.intp)[order]
            np.cumsum(left, axis=1, out=left)
            rest = rest - left
        else:
            left = rest
        # h[nl, left] is h.ravel()[i] for i = nl * stride + left, and
        # h[nr, total - left] is h.ravel()[n * stride + total - i], since
        # nl + nr = n
        left += nl * stride
        h_left_k = h.take(left)
        np.subtract(n * stride + total, left, out=left)
        h_right_k = h.take(left)
        if k == 0:
            h_left, h_right = h_left_k, h_right_k
        else:
            h_left += h_left_k
            h_right += h_right_k
    del order, left, rest, h_left_k, h_right_k

    # in place, the float operations of
    # entropy(counts.total) - (nl / n) * h_left - (nr / n) * h_right
    gains = h_left
    gains *= nl / n
    np.subtract(entropy(counts.total), gains, out=gains)
    h_right *= nr / n
    gains -= h_right
    del h_right
    np.copyto(gains, -np.inf, where=sd[:, 1:] <= sd[:, :-1])
    pick = gains.argmax(axis=1)
    rows = np.arange(c)
    out_gain = gains[rows, pick]
    no_split = out_gain == -np.inf
    ps = np.cumsum(sd, axis=1)
    tied = ((gains == out_gain[:, None]).sum(axis=1) > 1) & ~no_split
    if tied.any():
        t = np.flatnonzero(tied)
        sdt, pst = sd[t], ps[t]
        thr = (sdt[:, :-1] + sdt[:, 1:]) / 2
        gaps = (pst[:, -1:] - pst[:, :-1]) / nr - pst[:, :-1] / nl
        tie1 = gains[t] == out_gain[t, None]
        masked_gap = np.where(tie1, gaps, -np.inf)
        tie2 = tie1 & (masked_gap == masked_gap.max(axis=1)[:, None])
        pick[t] = np.where(tie2, thr, np.inf).argmin(axis=1)

    out_thr = (sd[rows, pick] + sd[rows, pick + 1]) / 2
    ps_pick, nl_pick = ps[rows, pick], pick + 1
    out_gap = (ps[:, -1] - ps_pick) / (n - nl_pick) - ps_pick / nl_pick
    if no_split.any():
        out_thr = np.where(no_split, midrange, out_thr)
        out_gain = np.where(no_split, 0.0, out_gain)
        out_gap = np.where(no_split, 0.0, out_gap)
    return out_thr, out_gain, out_gap


# Share of each class's series that the first pass scores every candidate
# against, before completion scores the candidates a reader needs against
# all of them. There is a first pass only when each class gives at least
# STAGE_MIN series: the bound of so few series prunes too little to pay for
# its pass. A second pass over half of each class, and keeping the first
# pass's distances for completion, both made fit-wide's fit slower than
# this one pass: passes over a quarter, a half and all of each class took
# 0.414 s a fit against 0.365 s for this pass and completion, and kept
# distances cost 0.75 MB of peak RSS per MiB kept.
FIRST_SHARE = 0.25
STAGE_MIN = 8
# A completed gain is certified when it exceeds every uncompleted bound by
# more than this; a bound and a gain are sums of the same terms and differ
# from the exact maximum by a few units in the last place.
GAIN_MARGIN = 1e-12
# The states of a candidate in _PrunedScoring.done.
BOUNDED, COMPLETED, CERTIFIED = 0, 1, 2


def _first_series(counts: ClassCounts, bounded: bool) -> np.ndarray | None:
    """The series of the first pass, in class order: of each class, in
    index order, the first round(FIRST_SHARE * size) series. None, for no
    first pass, when the gains cannot be bounded (bounded false), there is
    one class, or some class gives fewer than STAGE_MIN series. As the pass
    takes at least STAGE_MIN series of each class, and the bound's table of
    gains at most SQUARE_CHUNK bytes, a first pass comes with at most four
    classes, whose 2^4 corners _corner_max folds into the table once."""
    want = np.floor(FIRST_SHARE * counts.total + 0.5).astype(np.intp)
    if not bounded or len(want) < 2 or want.min() < STAGE_MIN:
        return None
    return np.concatenate([np.flatnonzero(counts.label == k)[:w] for k, w in enumerate(want)])


class _PrunedScoring:
    """The scores behind a mined CandidateTable, completed only as far as a
    reader needs.

    The first pass scores and orders: it scores every candidate against
    the series of _first_series, S, orders each row by its pick scores
    (_order_keys), measures only the rows that may tie, and keeps only
    _gain_bound's bound on its gain. Certifying rows for a reader completes
    the candidates whose bound reaches the cut (those that may hold a row
    the reader needs): each is scored against every series, as mining with
    no first pass scores it. A completed row is sure once its gain exceeds
    every bound still open by GAIN_MARGIN: no open candidate can then
    precede it, so sure rows, certified in key order as readers reach them,
    come in the table's order. Reading every row thus scores each candidate
    against |S| + n series, and measures it against n (and the rows that
    may tie against |S| more). A completed row is the row of scoring
    against every series at once, bit for bit, as completion is that
    scoring. With no first pass, every candidate is completed at once.
    """

    def __init__(self, train: Dataset, source, start, length, dist_cfg: DistanceConfig, workers: int):
        self.train, self.dist_cfg, self.workers = train, dist_cfg, workers
        self.source, self.start, self.length = source, start, length
        size = len(source)
        self.counts = ClassCounts.of(train.y)
        gains = _gain_table(self.counts)
        self.first = _first_series(self.counts, gains is not None)
        # the bound reads only the corner-maxed table, built once
        if self.first is not None:
            gains = _corner_max(gains, self.counts.label[self.first], self.counts.total)
        self.table = gains
        self.scores = np.zeros((3, size))
        self.bound = np.full(size, np.inf)
        self.done = np.full(size, BOUNDED, dtype=np.int8)
        self.certified = np.empty(0, dtype=np.intp)
        informative = self.advance(np.arange(size), self.first)
        if dist_cfg.normalize_windows and not any(informative):
            raise FlatTrainingSetError(
                f"every candidate window has standard deviation below {FLAT_STD}; "
                "z-normalized, all are equal, so no split separates the series"
            )

    def certify(self, need: int, reach: int = 0) -> np.ndarray:
        """The certified rows, in table order, once there are at least need
        of them (at most every row).

        Only the completed rows sure to come next that a reader reaches are
        sorted and certified: those of the best gains up to row reach (or
        need, if more), ties at the last gain included, and at least as many
        as are certified already, so that rows read one at a time sort the
        table in a number of calls logarithmic in their count. The rest
        stay completed, and are sure again at the next call."""
        size = len(self.source)
        need = min(size, need)
        reach = min(size, max(need, reach))
        gain, gap = self.scores[1], self.scores[2]
        while len(self.certified) < reach:
            open_ = np.flatnonzero(self.done == BOUNDED)
            pending = np.flatnonzero(self.done == COMPLETED)
            sure = pending[gain[pending] > self.bound.max() + GAIN_MARGIN]
            if len(sure):
                take = max(reach, 2 * len(self.certified)) - len(self.certified)
                if take < len(sure):
                    # gain is the first key, so no sure row below the
                    # take-th best gain comes before those at or above it
                    cut = -np.partition(-gain[sure], take - 1)[take - 1]
                    sure = sure[gain[sure] >= cut]
                self.done[sure] = CERTIFIED
                key = (self.start[sure], self.source[sure], self.length[sure], -gap[sure], -gain[sure])
                self.certified = np.concatenate([self.certified, sure[np.lexsort(key)]])
                continue
            if len(self.certified) >= need:
                break
            # the want-th best of the gains and bounds left: an open
            # candidate of lower bound holds none of the want rows next
            want = need - len(self.certified)
            cut = -np.partition(-np.concatenate([gain[pending], self.bound[open_]]), want - 1)[want - 1]
            self.advance(open_[self.bound[open_] >= cut - GAIN_MARGIN])
        return self.certified

    def advance(self, ids: np.ndarray, series: np.ndarray | None = None) -> list[bool]:
        """Score each candidate of ids, ascending, against series, which
        bounds its gain, or, when series is None, against every series,
        which completes it. Returns, per length, whether any of its
        candidates is not flat. Threads score the lengths, whose candidates
        are disjoint, so their writes to the score arrays need no lock."""
        # candidates are in length order, so each length is a run of ids
        runs = np.searchsorted(ids, np.flatnonzero(np.r_[True, self.length[1:] != self.length[:-1], True]))
        runs = [(a, b) for a, b in zip(runs[:-1], runs[1:]) if b > a]

        def run(bounds: tuple[int, int]) -> bool:
            return self._score_length(ids[bounds[0] : bounds[1]], series)

        if self.workers > 1 and len(runs) > 1:
            # imported here: concurrent.futures (with logging) took 5-6 ms
            # of every `import divshap`, and one worker needs no pool
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                return list(pool.map(run, runs))
        return [run(r) for r in runs]

    def _score_length(self, ids: np.ndarray, series: np.ndarray | None) -> bool:
        """advance for candidates ids of one length. True if any of them is
        not flat."""
        L = int(self.length[ids[0]])
        X = self.train.X if series is None else self.train.X[series]
        windows = Windows.of_series(X, L, self.dist_cfg)
        view = sliding_window_view(self.train.X, L, axis=1)
        score_slice = max(SQUARE_CHUNK, 8 * len(X) * max(view.shape[1], L))
        free = max(SCORING_BUDGET - windows.scan.nbytes, SCORING_BUDGET // 2) - score_slice
        per_candidate = 8 * (3 * L + 2 + SPLIT_ROWS * (len(X) + 1))
        block = int(np.clip(free // per_candidate, 1, len(ids)))
        informative = False
        for lo in range(0, len(ids), block):
            part = ids[lo : lo + block]
            source, start = self.source[part], self.start[part]
            if series is None:
                queries = windows.scan[source, start]
            else:
                # a row of length L is its one window, z-normalized as
                # every window is, and followed by its offset
                queries = Windows.of_series(view[source, start], L, self.dist_cfg).scan[:, 0]
            # a z-normalized window is all zeros, and so has offset 0, when flat
            informative = informative or bool(queries[:, L].any())
            if series is None:
                dist = nearest_window_dists(queries[:, :L], windows, self.dist_cfg)
                self.scores[:, part] = _batch_best_split(dist, self.counts)
                self.bound[part] = -np.inf
                self.done[part] = COMPLETED
            else:
                keys = _order_keys(queries, windows, self.dist_cfg)
                self.bound[part] = _gain_bound(keys, self.counts.label[series], self.counts.total, self.table)
        return informative


# Scores that sort a row's series as its measured distances sort them.
# For a query q and a window w of Windows.of_series, with its offset o,
# let t(w) = q.w - |w|^2/2, exactly; |q - w|^2 = |q|^2 - 2 t(w). With
# u = 2^-53 and g = (L + 6) u / (1 - (L + 6) u), the rounding of:
# - the score, a sum of the L + 1 products q_j w_j and -o in any order, is
#   at most g (|q| |w| + o), and o is within g |w|^2 / 2 of |w|^2 / 2 (a
#   rounded sum of L squares for raw windows; L/2 for z-normalized ones,
#   whose |w|^2 the few roundings of znorm_rows keep within g L of L), so
#   each score is within E = 1.5 g (|q|^2 + A) of t(w), A = max |w|^2;
# - the measure, L rounded differences squared and summed, is at most
#   g d for a distance d <= (|q| + |w|)^2 <= 2 (|q|^2 + A).
# The kernel measures the window of largest computed score, whose t lies
# within 2E of the largest t, and so within 3E of the largest computed
# score s: its distance is |q|^2 - 2 s, within 6E before its measure. Two
# series whose scores differ by D > 0 then measure at least
# 2 D - 12 E - 4 g (|q|^2 + A) apart, in the order of their scores; after
# the division by L they stay strictly ordered when that exceeds
# u (d_i + d_j) <= g (|q|^2 + A). D > 11.5 g (|q|^2 + A) is enough for
# both. The margin is 16 g (|q|^2 + A), with |q|^2 and A read as twice the
# offsets (each within g of its sum of squares, which 16 for 11.5 covers),
# and infinite, so that every row is measured, when those overflow. Raw
# windows, whose |w| has no bound, are covered through A.
def _order_keys(queries: np.ndarray, windows: Windows, cfg: DistanceConfig) -> np.ndarray:
    """(queries, n) sort keys for _gain_bound of each query row (values,
    then offset, as windows.scan holds them) against the series of
    windows: each largest pick score negated, as ascending distance is
    descending score, or, in a row where two scores lie within the margin
    above and so might tie or swap once measured, the measured distances.
    Every key sorts, and ties, as nearest_window_dists' distances would."""
    L = windows.shape[2]
    keys = nearest_window_scores(queries[:, :L], windows)
    np.negative(keys, out=keys)
    g = (L + 6) * 2.0**-53 / (1 - (L + 6) * 2.0**-53)
    margin = 32 * g * (queries[:, L] + windows.scan[:, :, L].max(initial=0.0))
    sk = np.sort(keys, axis=1)
    clear = sk[:, 1:] - sk[:, :-1] > margin[:, None]
    near = np.flatnonzero(~clear.all(axis=1))  # a NaN gap is not clear either
    if len(near):
        keys[near] = nearest_window_dists(queries[near, :L], windows, cfg)
    return keys


def _gain_table(counts: ClassCounts) -> np.ndarray | None:
    """The gain of a split that leaves left[k] of class k's series on its
    left, for every vector left with left[k] <= counts.total[k], raveled in
    C order, then -inf; None when it would take more than SQUARE_CHUNK
    bytes. Each gain is _batch_best_split's: the same h terms, added in
    class order, and the same formula."""
    shape = counts.total + 1
    if 8 * np.prod(shape) > SQUARE_CHUNK:
        return None
    n = len(counts.label)
    left = np.indices(shape).reshape(len(shape), -1)
    nl = left.sum(axis=0)
    h_left = reduce(np.add, (counts.h[nl, a] for a in left))
    h_right = reduce(np.add, (counts.h[n - nl, t - a] for t, a in zip(counts.total, left)))
    return np.append(entropy(counts.total) - nl / n * h_left - (n - nl) / n * h_right, -np.inf)


def _corner_max(gains: np.ndarray, label: np.ndarray, total: np.ndarray) -> np.ndarray:
    """_gain_table's gains maxed over the corners that _gain_bound reads
    for a subset S of the series whose class indices are label: entry p is
    the largest of gains[min(p + shift, last)] over the corner shifts, the
    positions that move all of some classes' series outside S to the left.
    max is exact, so each entry has the bits of the largest gain it reads."""
    unknown = (total - np.bincount(label, minlength=len(total))) * _strides(total)
    corners = np.array(list(itertools.product((0, 1), repeat=len(total))))
    table = gains.copy()
    for shift in np.unique(corners @ unknown).tolist():
        if shift:  # entries past the end would read the last, -inf
            np.maximum(table[:-shift], gains[shift:], out=table[:-shift])
    return table


def _strides(total: np.ndarray) -> np.ndarray:
    """The step in _gain_table's positions of one more series of each class
    on the left."""
    return np.r_[np.cumprod((total + 1)[:0:-1])[::-1], 1]


def _gain_bound(keys: np.ndarray, label: np.ndarray, total: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Per row of keys, sort keys of a subset S of the series whose class
    indices are label (the distances to them, or any keys that sort and tie
    as those do), a bound on the gain of the best split of the row's full
    orderline, over classes of sizes total; table is _corner_max's, for
    label.

    A valid split of the full orderline leaves on its left a prefix of S's
    sorted distances, cut at p = 0, p = |S| or where they rise, and between
    0 and u_k of the u_k series of class k outside S. Gain is convex in the
    left class counts, since each side's size times its entropy is concave,
    so its maximum over that box is at a vertex: the series outside S of
    each class all left or all right. Each prefix is one position of table,
    which holds the best of its vertices.
    """
    c, s = keys.shape
    order = np.argsort(keys, axis=1)
    sd = np.take_along_axis(keys, order, axis=1)
    prefix = np.zeros((c, s + 1), dtype=np.intp)
    np.cumsum(_strides(total)[label][order], axis=1, out=prefix[:, 1:])
    del order
    # a cut between equal distances is no split: it reads the table's last
    # entry, -inf
    prefix[:, 1:s][sd[:, 1:] <= sd[:, :-1]] = len(table) - 1
    del sd
    return table.take(prefix).max(axis=1)
