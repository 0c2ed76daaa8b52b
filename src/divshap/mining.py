"""Shapelet candidate generation and information-gain scoring.

Candidates are every subsequence of every training series inside a length
band (defaults m/11 .. m/2). Each candidate is scored by the best
information-gain split of its orderline: the sorted distances from the
candidate to all training series. Every candidate is scored; there is no
pre-filter. The scored, sorted list feeds the diversity graph.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset
from .distance import DEFAULT_CONFIG, DistanceConfig, window_distances, znorm_rows
from .errors import BandEmptyError


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
    length m. The pipeline sets normalize to its own distance config.
    """

    min_len: int | None = None
    max_len: int | None = None
    length_stride: int = 1
    position_stride: int = 1
    normalize: DistanceConfig = field(default_factory=DistanceConfig)

    def band(self, m: int) -> tuple[int, int]:
        """Resolve the candidate length band for series length m."""
        lo = self.min_len if self.min_len is not None else max(3, m // 11)
        hi = self.max_len if self.max_len is not None else m // 2
        if lo < 2:
            raise ValueError(f"min_len must be at least 2, got {lo}")
        if hi > m:
            raise ValueError(f"max_len {hi} exceeds series length {m}")
        if lo > hi:
            raise BandEmptyError(f"length band [{lo}, {hi}] is empty")
        return lo, hi


def generate_candidates(train: Dataset, cfg: MiningConfig) -> list[Shapelet]:
    """Enumerate all candidate subsequences, dropping exact duplicates.

    Lengths step by length_stride through the band, start positions by
    position_stride; the first occurrence of duplicate value lists wins.
    """
    lo, hi = cfg.band(train.m)
    seen: set[bytes] = set()
    out: list[Shapelet] = []
    for L in range(lo, hi + 1, cfg.length_stride):
        for i in range(train.n):
            row = train.X[i]
            label = int(train.y[i])
            for start in range(0, train.m - L + 1, cfg.position_stride):
                vals = row[start : start + L]
                key = vals.tobytes()
                if key in seen:
                    continue
                seen.add(key)
                out.append(
                    Shapelet(
                        values=vals.copy(),
                        source_series=i,
                        start=start,
                        length=L,
                        class_label=label,
                    )
                )
    return out


def entropy(counts) -> float:
    """Shannon entropy in bits of a per-class count vector."""
    c = np.asarray(counts, dtype=np.float64)
    total = c.sum()
    if total <= 0:
        raise ValueError("entropy needs at least one observation")
    p = c[c > 0] / total
    return float(-(p * np.log2(p)).sum())


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
    gain go to the larger gap (mean distance above minus mean below), then
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
    for i in range(n - 1):
        left += onehot[i]
        if d[i + 1] <= d[i]:
            continue
        nl = i + 1
        nr = n - nl
        gain = h0 - (nl / n) * entropy(left) - (nr / n) * entropy(total - left)
        thr = (d[i] + d[i + 1]) / 2
        gap = float(d[i + 1 :].mean() - d[: i + 1].mean())
        key = (gain, gap, -thr)
        if best is None or key > best[0]:
            best = (key, thr, gain, gap)

    if best is None:
        # all distances equal: no threshold separates anything
        return float((d[0] + d[-1]) / 2), 0.0, 0.0
    return best[1], best[2], best[3]


def mine_shapelets(
    train: Dataset, cfg: MiningConfig | None = None, *, workers: int = 1
) -> list[Shapelet]:
    """Score every candidate and sort best-first.

    Scoring is the batched equivalent of best_split(orderline(c)) for each
    candidate c. The sort key is (gain desc, gap desc, length asc, source
    series asc, start asc), a total order, so output is deterministic for
    fixed inputs.
    """
    cfg = cfg or MiningConfig()
    candidates = generate_candidates(train, cfg)
    if not candidates:
        return []

    thr, gain, gap = _score_candidates(train, candidates, cfg.normalize, workers=workers)
    scored = [
        dataclasses.replace(c, split_threshold=float(thr[i]), gain=float(gain[i]), gap=float(gap[i]))
        for i, c in enumerate(candidates)
    ]
    scored.sort(key=lambda s: (-s.gain, -s.gap, s.length, s.source_series, s.start))
    return scored


def _score_candidates(
    train: Dataset,
    candidates: list[Shapelet],
    dist_cfg: DistanceConfig,
    *,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched orderline + best-split scoring for all candidates.

    Distances use the dot-product expansion, so one matrix product covers a
    whole block of candidates against every window of every series. Results
    match the pairwise kernels to summation-order accuracy.
    """
    n, m = train.n, train.m
    classes = np.unique(train.y)
    onehot_series = (train.y[:, None] == classes[None, :]).astype(np.float64)
    single_class = len(classes) == 1
    h0 = 0.0 if single_class else entropy(onehot_series.sum(axis=0))

    thr = np.zeros(len(candidates))
    gain = np.zeros(len(candidates))
    gap = np.zeros(len(candidates))

    by_length: dict[int, list[int]] = {}
    for idx, c in enumerate(candidates):
        by_length.setdefault(c.length, []).append(idx)

    def run_length(L: int) -> None:
        idxs = by_length[L]
        wcount = m - L + 1
        windows = np.lib.stride_tricks.sliding_window_view(train.X, L, axis=1).reshape(
            n * wcount, L
        )
        C = np.stack([candidates[i].values for i in idxs])
        if dist_cfg.normalize_windows:
            windows = znorm_rows(np.ascontiguousarray(windows, dtype=np.float64))
            C = znorm_rows(C)
        wn = np.einsum("ij,ij->i", windows, windows)
        cn = np.einsum("ij,ij->i", C, C)

        block = max(1, min(int(4e6 / max(1, n * wcount)), int(2e6 / max(1, n * len(classes))), len(idxs)))
        for lo in range(0, len(idxs), block):
            sel = slice(lo, min(lo + block, len(idxs)))
            cb = C[sel]
            d2 = cb @ windows.T
            d2 *= -2.0
            d2 += cn[sel][:, None]
            d2 += wn[None, :]
            # clipping after the min is equivalent (clip is nondecreasing)
            dist = d2.reshape(len(cb), n, wcount).min(axis=2)
            np.clip(dist, 0.0, None, out=dist)
            if dist_cfg.length_normalize:
                dist /= L
            t, g, gp = _batch_best_split(dist, onehot_series, h0, single_class)
            picked = idxs[lo : lo + len(cb)]
            thr[picked] = t
            gain[picked] = g
            gap[picked] = gp

    lengths = sorted(by_length)
    if workers > 1 and len(lengths) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_length, lengths))
    else:
        for L in lengths:
            run_length(L)
    return thr, gain, gap


def _batch_best_split(
    dist: np.ndarray, onehot_series: np.ndarray, h0: float, single_class: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized best_split over rows of a (candidates, series) distance matrix."""
    c, n = dist.shape
    order = np.argsort(dist, axis=1, kind="stable")
    sd = np.take_along_axis(dist, order, axis=1)
    midrange = (sd[:, 0] + sd[:, -1]) / 2
    if single_class or n < 2:
        zero = np.zeros(c)
        return midrange, zero, zero.copy()

    sorted_onehot = onehot_series[order]  # (c, n, classes)
    left = np.cumsum(sorted_onehot, axis=1)[:, :-1, :]  # counts at split i
    total = onehot_series.sum(axis=0)
    right = total[None, None, :] - left
    nl = np.arange(1, n, dtype=np.float64)
    nr = n - nl

    def ent(counts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        p = counts / sizes[None, :, None]
        logp = np.log2(np.where(p > 0, p, 1.0))
        return -(p * logp).sum(axis=2)

    gains = h0 - (nl / n) * ent(left, nl) - (nr / n) * ent(right, nr)
    thr = (sd[:, :-1] + sd[:, 1:]) / 2
    ps = np.cumsum(sd, axis=1)
    mean_left = ps[:, :-1] / nl
    mean_right = (ps[:, -1:] - ps[:, :-1]) / nr
    gaps = mean_right - mean_left
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
