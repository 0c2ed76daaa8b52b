"""Shapelet candidate generation and information-gain scoring.

Candidates are every subsequence of every training series inside a length
band (defaults m/11 .. m/2). Each candidate is scored by the best
information-gain split of its orderline: the sorted distances from the
candidate to all training series. Every candidate is scored; there is no
pre-filter. The batched split reads each split's entropy from a table of
p log2 p terms over integer class counts (ClassCounts), so it takes no
logarithm per candidate. Generation, scoring and the best-first ordering
work on the columns of a CandidateTable; a Shapelet object is built only
when its row is read, so the greedy scan of the diversity graph builds
just the prefix it reads.
"""

from __future__ import annotations

from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset
from .distance import (
    DEFAULT_CONFIG,
    DistanceConfig,
    Windows,
    nearest_window_dists,
    window_distances,
)
from .errors import BandEmptyError, InvalidConfigError, require_int


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
    """

    def __init__(self, train: Dataset, source, start, length, threshold, gain, gap):
        self.columns = (source, start, length, threshold, gain, gap)
        for column in self.columns:
            column.flags.writeable = False
        self.source, self.start, self.length, self.threshold, self.gain, self.gap = self.columns
        self._train = train
        self._built: dict[int, Shapelet] = {}

    def __len__(self) -> int:
        return len(self.source)

    def __getitem__(self, index):
        r = range(len(self))[index]
        if isinstance(r, range):
            return [self[i] for i in r]
        if r not in self._built:
            src, st, L = int(self.source[r]), int(self.start[r]), int(self.length[r])
            values = self._train.X[src, st : st + L].copy()
            scores = (float(self.threshold[r]), float(self.gain[r]), float(self.gap[r]))
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
    columns = []
    for L in range(lo, hi + 1, cfg.length_stride):
        windows = np.lib.stride_tricks.sliding_window_view(train.X, L, axis=1)[:, ::ps]
        n, w = windows.shape[:2]
        rows = np.ascontiguousarray(windows).reshape(n * w, L)
        first = np.sort(np.unique(rows.view(np.dtype((np.void, rows.strides[0]))), return_index=True)[1])
        source, slot = np.divmod(first, w)
        columns.append((source, slot * ps, np.full(len(first), L)))
    source, start, length = (np.concatenate(c) for c in zip(*columns))
    return CandidateTable(train, source, start, length, *np.zeros((3, len(source))))


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


def orderline(
    s, train: Dataset, cfg: DistanceConfig = DEFAULT_CONFIG
) -> list[tuple[float, int]]:
    """Distances from every training series to s, sorted ascending.

    Ties keep series-id order. s may be a Shapelet or a raw value array.
    """
    values = np.asarray(getattr(s, "values", s), dtype=np.float64)
    dists = [float(window_distances(train.X[i], values, cfg).min()) for i in range(train.n)]
    pairs = [(d, int(train.y[i])) for i, d in enumerate(dists)]
    pairs.sort(key=lambda p: p[0])
    return pairs


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
    """Score every candidate and order the table best-first.

    Scoring is the batched equivalent of best_split(orderline(c)) for each
    candidate c. The order is (gain desc, gap desc, length asc, source
    series asc, start asc), a total order, so output is deterministic for
    fixed inputs. Scoring and ordering work on the table's columns; a
    Shapelet is built only when a caller reads its row, so a greedy scan
    that stops early builds only the prefix it read.

    workers threads score the lengths. They pay only when BLAS runs one
    thread (OPENBLAS_NUM_THREADS=1); with more, they slow mining down.
    """
    cfg = cfg or MiningConfig()
    table = generate_candidates(train, cfg)
    if not len(table):
        return table
    thr, gain, gap = _score_candidates(train, table, cfg.normalize, workers=workers)
    order = np.lexsort((table.start, table.source, table.length, -gap, -gain))
    return CandidateTable(train, *(c[order] for c in (*table.columns[:3], thr, gain, gap)))


# Bytes one scoring thread may hold for a candidate length: the window
# matrix (offset column included) plus, per block candidate, its query row
# and -1 extension, score row and measured windows, counted together though
# the kernel frees the score row before it gathers. The best split holds at
# most SPLIT_ROWS arrays of one row per candidate and series. A block gets
# at least half the budget, so only a window matrix above the other half
# makes a thread exceed it.
SCORING_BUDGET = 16 * 2**20
SPLIT_ROWS = 16


def _score_candidates(
    train: Dataset,
    table: CandidateTable,
    dist_cfg: DistanceConfig,
    *,
    workers: int = 1,
) -> np.ndarray:
    """Batched orderline + best-split scoring: rows threshold, gain and gap,
    one column per row of the table.

    Each length's windows are prepared once, each block of candidates is
    gathered from them, and distance.nearest_window_dists scores the block
    against every series in one call. Blocks are sized so that each thread
    stays within SCORING_BUDGET.
    """
    n, m = train.n, train.m
    counts = ClassCounts.of(train.y)
    scores = np.zeros((3, len(table)))

    def run_length(L: int) -> None:
        idxs = np.flatnonzero(table.length == L)
        wcount = m - L + 1
        windows = Windows.of_series(train.X, L, dist_cfg)
        # every candidate is one of the windows
        rows = table.source[idxs] * wcount + table.start[idxs]
        free = max(SCORING_BUDGET - windows.scan.nbytes, SCORING_BUDGET // 2)
        per_candidate = 8 * (2 * L + 1 + n * max(wcount + L, SPLIT_ROWS))
        block = int(np.clip(free // per_candidate, 1, len(idxs)))
        for lo in range(0, len(idxs), block):
            sel = slice(lo, lo + block)
            dist = nearest_window_dists(windows.scan[rows[sel], :L], windows, dist_cfg)
            scores[:, idxs[sel]] = _batch_best_split(dist, counts)

    lengths = np.unique(table.length).tolist()
    if workers > 1 and len(lengths) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_length, lengths))
    else:
        for L in lengths:
            run_length(L)
    return scores


@dataclass(frozen=True)
class ClassCounts:
    """Training labels as _batch_best_split reads them.

    label[i] is the class index of series i and total[k] the size of class
    k. h[s, a] is -p log2 p for p = a / s: the entropy term of a class that
    holds a of the s series on one side of a split. Every split's entropy is
    a sum of these terms, one per class, so a block gathers them instead of
    taking logarithms.
    """

    label: np.ndarray
    total: np.ndarray
    h: np.ndarray

    @classmethod
    def of(cls, y: np.ndarray) -> "ClassCounts":
        _, label, total = np.unique(y, return_inverse=True, return_counts=True)
        a = np.arange(len(y) + 1, dtype=np.float64)
        p = a[None, :] / np.maximum(a, 1.0)[:, None]
        h = -(p * np.log2(np.where(p > 0, p, 1.0)))
        return cls(label.ravel(), total, h)


def _batch_best_split(
    dist: np.ndarray, counts: ClassCounts
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized best_split over rows of a (candidates, series) distance
    matrix.

    The class counts left of each split are integer cumulative sums over
    the sorted labels (the last class is what the others leave), and each
    side's entropy is the sum, in class order, of the h terms gathered for
    its size and counts.
    """
    c, n = dist.shape
    order = np.argsort(dist, axis=1, kind="stable")
    sd = np.take_along_axis(dist, order, axis=1)
    midrange = (sd[:, 0] + sd[:, -1]) / 2
    if len(counts.total) == 1 or n < 2:
        zero = np.zeros(c)
        return midrange, zero, zero.copy()

    nl = np.arange(1, n)
    nr = n - nl
    h = counts.h.ravel()
    left_base, right_base = nl * (n + 1), nr * (n + 1)
    labels = counts.label[order[:, :-1]]  # split i falls after sorted entry i
    rest = nl
    for k, total in enumerate(counts.total):
        if k < len(counts.total) - 1:
            left = np.cumsum(labels == k, axis=1)
            rest = rest - left
        else:
            left = rest
        h_left_k = h.take(left_base + left)
        h_right_k = h.take((right_base + total) - left)
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
