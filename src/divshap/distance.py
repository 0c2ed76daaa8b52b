"""Distance kernels for subsequence matching.

All shapelet machinery rests on one measure: the minimum squared euclidean
distance between a query and every aligned window of a series, optionally
z-normalizing both sides and dividing by the compared length so distances
of different-length queries share a per-point scale.

nearest_window_dists is the batched kernel behind mining and transform: a
matrix product picks each query's nearest window in each series, and direct
squared differences measure the picked window exactly. The two callers
differ only in how their windows score (Windows or ScaledWindows). Mining
scans its window matrix (Windows.of_series), since every window is also a
query; each row carries the window's offset |w|^2/2 in one extra column, so
the product itself yields the pick score. Transform copies no window, raw
or z-normalized (SeriesSums): one banded product of the series with the
queries gives q . w for every window, less an offset. A raw window's offset
|w|^2/2 is summed from the series in place. For z-normalized windows the
series are mean-centred and each score is weighted by 1/sd from prefix
sums; only the windows picked are z-normalized, and the pick is
approximate within the bound given at RUNNING_VAR_MARGIN.
window_distances is the per-pair scan behind shapelet_dist (each pair check
of the diversity graph) and the orderline oracle; it reads the windows as a
strided view of the series, built without sliding_window_view's per-call
checks. subsequence_dist, an early-abandoning scalar loop on numpy's own
mean and std, is the oracle both are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .dataset import FLAT_STD, znorm_rows, znormalize
from .errors import LengthMismatchError, ShapeletLongerThanSeriesError


@dataclass(frozen=True)
class DistanceConfig:
    """Flags governing window comparison.

    normalize_windows: z-normalize the query and every window before
    comparing. length_normalize: divide the squared distance by the compared
    length. Both default on.
    """

    normalize_windows: bool = True
    length_normalize: bool = True


DEFAULT_CONFIG = DistanceConfig()


def znorm_offset(rows: np.ndarray) -> np.ndarray:
    """|w|^2/2 for each z-normalized row w: L/2, or 0 for a flat row (all
    zeros)."""
    return np.where(rows.any(axis=1), 0.5 * rows.shape[1], 0.0)


@dataclass(frozen=True)
class Windows:
    """The length-L windows of n series as mining scans them.

    scan holds one row per window, series by series: the window w followed
    by its offset |w|^2/2. The kernel gives each query q a last entry of
    -1, so the matrix product itself scores q . w - |w|^2/2, and a picked
    window is measured as its scan row.
    """

    scan: np.ndarray
    n: int

    @classmethod
    def of_series(cls, X: np.ndarray, L: int, cfg: DistanceConfig = DEFAULT_CONFIG) -> "Windows":
        """The length-L windows of the rows of X, measured as they are
        scanned: the first L columns of scan are every length-L window of
        every row, in (row, start) order, z-normalized in place when
        cfg.normalize_windows, and the last is the offset."""
        X = np.asarray(X, dtype=np.float64)
        n, m = X.shape
        if L > m:
            raise ShapeletLongerThanSeriesError(f"query length {L} > series length {m}")
        scan = np.empty((n * (m - L + 1), L + 1))
        scan.reshape(n, m - L + 1, L + 1)[:, :, :L] = np.lib.stride_tricks.sliding_window_view(X, L, axis=1)
        W = scan[:, :L]
        if cfg.normalize_windows:
            znorm_rows(W, out=W)
            scan[:, L] = znorm_offset(W)
        else:
            scan[:, L] = 0.5 * np.einsum("ij,ij->i", W, W)
        return cls(scan, n)

    def scores(self, Q: np.ndarray) -> np.ndarray:
        """(k, n, windows per series) pick scores of the k rows of Q."""
        k, L = Q.shape
        Qx = np.empty((k, L + 1))
        Qx[:, :L] = Q
        Qx[:, L] = -1.0
        return (Qx @ self.scan.T).reshape(k, self.n, -1)

    def measured(self, nearest: np.ndarray) -> np.ndarray:
        """(k, n, L) rows of the picked windows, a fresh array; nearest[j, i]
        is the start of query j's pick in series i."""
        return self.scan[:, :-1][nearest + (len(self.scan) // self.n) * np.arange(self.n)]


# A window variance taken from prefix sums is trusted only when it exceeds
# this many times the sums' rounding bound; below that the window is
# z-normalized directly. A trusted variance is thus off by at most
# 1/RUNNING_VAR_MARGIN of itself, which moves a pick score q . z(w) by at most
# L/(2 RUNNING_VAR_MARGIN). The picked window is measured exactly, but it may
# be one whose squared distance exceeds the minimum by up to
# 2 L/RUNNING_VAR_MARGIN (2/RUNNING_VAR_MARGIN per point when length
# normalized), beyond the rounding of the product q . w itself. That product
# is banded (ScaledWindows.scores): the band's zeros add exactly, so each
# score is the same L products summed in another order, and the bound is
# unchanged. Raw windows take no running variance, and their scores no
# such error.
RUNNING_VAR_MARGIN = 1e8

# Fewest window starts per tile of the banded product, raised to L for
# longer windows: a tile row holds B + L - 1 values for B windows, so the
# band's zeros stay a bounded share of the product on long series, while a
# series with fewer than twice this many windows is one tile and no copy.
# band_tiles may narrow the tiles below it, so that the band stays no larger
# than the tiles.
TILE_STARTS = 64


def band_tiles(n: int, k: int, L: int, wcount: int) -> tuple[int, int]:
    """(tiles, B) for k length-L queries against n series of wcount windows:
    tiles of B starts, the last one ragged, that cover every start.

    B is as near max(L, TILE_STARTS) as balanced tiles allow, but at most
    sqrt(n * wcount / k), so the band's k (B + L - 1) B values never exceed
    the n * tiles * (B + L - 1) of the tiles, or the k L of the queries when
    B is 1.
    """
    B = -(-wcount // max(1, wcount // max(L, TILE_STARTS)))
    B = min(B, max(1, math.isqrt(n * wcount // k)))
    return -(-wcount // B), B


@dataclass(frozen=True)
class SeriesSums:
    """Each series and the rows the banded product multiplies: for
    z-normalized windows, the mean-centred series, with prefix sums s1 and
    s2 of those and of their squares; for raw windows, the series, with no
    sums (None). Built once per batch, they score every window at any
    length without a copy of the windows (ScaledWindows)."""

    series: np.ndarray
    rows: np.ndarray
    s1: np.ndarray | None
    s2: np.ndarray | None

    @classmethod
    def of(cls, X: np.ndarray, cfg: DistanceConfig = DEFAULT_CONFIG) -> "SeriesSums":
        """The rows of X for cfg; each prefix sum has a leading zero."""
        X = np.asarray(X, dtype=np.float64)
        if not cfg.normalize_windows:
            return cls(X, X, None, None)
        centered = X - X.mean(axis=1, keepdims=True)
        s1, s2 = np.zeros((2, len(X), X.shape[1] + 1))
        np.cumsum(centered, axis=1, out=s1[:, 1:])
        np.cumsum(centered * centered, axis=1, out=s2[:, 1:])
        return cls(X, centered, s1, s2)

    def windows(self, L: int) -> "ScaledWindows":
        """The length-L windows, with the scale and offset of each.

        A raw window w scores q . w - |w|^2/2: scale 1 and offset |w|^2/2,
        taken from the windows in place.

        A z-normalized query q sums to zero, so for a non-flat window w,
        q . z(w) = (q . c(w)) / sd(w), for c(w) its centred values, and
        |z(w)|^2 = L: scale is 1/sd and offset L/2. A window whose running
        variance could be off by more than 1/RUNNING_VAR_MARGIN of itself,
        or which is close to flat, is z-normalized directly instead (offset
        L/2, or 0 when flat), as Windows.of_series would.
        """
        n, m = self.series.shape
        if L > m:
            raise ShapeletLongerThanSeriesError(f"query length {L} > series length {m}")
        wcount = m - L + 1
        if self.s1 is None:
            w = np.lib.stride_tricks.sliding_window_view(self.series, L, axis=1)
            offset = 0.5 * np.einsum("ijk,ijk->ij", w, w).ravel()
            return ScaledWindows(self, L, None, offset, np.empty(0, np.intp), np.empty((0, L)))
        mean = self.s1[:, L:] - self.s1[:, :wcount]
        mean /= L
        var = self.s2[:, L:] - self.s2[:, :wcount]
        var /= L
        var -= np.square(mean, out=mean)
        # each prefix sum may be off by about m*eps of the series' sum of
        # squares; the squared mean can add a further sqrt(m/L) of that
        bound = 3 * m * np.finfo(np.float64).eps * self.s2[:, -1:] * np.sqrt(m / L) / L
        direct = var < np.maximum(RUNNING_VAR_MARGIN * bound, (2 * FLAT_STD) ** 2)
        var[direct] = 1.0
        scale = np.divide(1.0, np.sqrt(var, out=var), out=var).ravel()
        idx = np.flatnonzero(direct)
        i, start = np.divmod(idx, wcount)
        zdirect = znorm_rows(self.series[i[:, None], start[:, None] + np.arange(L)])
        offset = np.full(n * wcount, 0.5 * L)
        offset[idx] = znorm_offset(zdirect)
        return ScaledWindows(self, L, scale, offset, idx, zdirect)


@dataclass(frozen=True)
class ScaledWindows:
    """The length-L windows of n series, read in place from their
    SeriesSums.

    Window i starts at i % wcount in series i // wcount, for wcount =
    m - L + 1. Its pick score is (q . r(w)) * scale[i] - offset[i], for r(w)
    its values in the rows of the sums: the centred values of a
    z-normalized window, the values of a raw one, whose scale is None (1).
    The windows listed in direct are z-normalized directly instead, into
    the rows of zdirect, and score q . zdirect - offset. A picked window is
    measured as its values, z-normalized when its scale is not None.
    """

    sums: SeriesSums
    L: int
    scale: np.ndarray | None
    offset: np.ndarray
    direct: np.ndarray
    zdirect: np.ndarray

    @property
    def n(self) -> int:
        return len(self.sums.series)

    def scores(self, Q: np.ndarray) -> np.ndarray:
        """(k, n, wcount) pick scores of the k rows of Q, from one banded
        product over the rows of the sums.

        Starts are split into tiles of B starts (band_tiles), the last one
        ragged: tile j of a series holds its B + L - 1 values from start
        jB, zero past its end, and band[q, b + t, b] = Q[q, t], so tile j
        times band[q] gives q . r(w) for the B windows that start in it.
        With one tile, the tiles are the rows themselves.
        """
        k, L = Q.shape
        rows = self.sums.rows
        n, m = rows.shape
        wcount = m - L + 1
        tiles, B = band_tiles(n, k, L, wcount)
        width = B + L - 1
        if tiles > 1:
            padded = np.zeros((n, tiles * B + L - 1))
            padded[:, :m] = rows
            rows = as_strided(padded, (n, tiles, width), (padded.strides[0], 8 * B, 8)).reshape(n * tiles, width)
        band = np.zeros((k, width, B))
        # view[q, b, t] is band[q, b + t, b]: b steps B + 1 values, t one row
        as_strided(band, (k, B, L), (8 * width * B, 8 * (B + 1), 8 * B))[...] = Q[:, None]
        score = np.matmul(rows, band).reshape(k, n, tiles * B)[:, :, :wcount]
        if self.scale is not None:
            score *= self.scale.reshape(n, wcount)
        score -= self.offset.reshape(n, wcount)
        if len(self.direct):
            i, start = np.divmod(self.direct, wcount)
            score[:, i, start] = Q @ self.zdirect.T - self.offset[self.direct]
        return score

    def measured(self, nearest: np.ndarray) -> np.ndarray:
        """(k, n, L) rows of the picked windows, a fresh array, as
        Windows.measured gives them."""
        k, n, L = len(nearest), self.n, self.L
        rows = self.sums.series[np.arange(n)[:, None], nearest[:, :, None] + np.arange(L)]
        if self.scale is None:
            return rows
        return znorm_rows(rows.reshape(k * n, L)).reshape(k, n, L)


def nearest_window_dists(
    Q: np.ndarray, windows: Windows | ScaledWindows, cfg: DistanceConfig = DEFAULT_CONFIG
) -> np.ndarray:
    """(queries, n) minimum window distances from each row of Q to each of
    the n series of windows; the rows are z-normalized (znorm_rows) when
    cfg.normalize_windows.

    Within a series, q.w - |w|^2/2 is largest at the window nearest to q,
    so the first maximum of windows.scores picks it (see Windows and
    ScaledWindows for how each scores); the picked window is then measured
    by direct squared differences. The distance is exact for the picked
    window; for z-normalized ScaledWindows, the pick itself is exact only
    up to the bound at RUNNING_VAR_MARGIN.
    """
    k, L = Q.shape
    n = windows.n
    diff = windows.measured(windows.scores(Q).argmax(axis=2))
    diff -= Q[:, None]
    diff = diff.reshape(k * n, L)
    out = np.einsum("ij,ij->i", diff, diff).reshape(k, n)
    if cfg.length_normalize:
        out /= L
    return out


def window_distances(t: np.ndarray, s: np.ndarray, cfg: DistanceConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Distance from s to every aligned window of t, vectorized.

    The windows are the view sliding_window_view gives, (len(t) - L + 1, L)
    with strides (8, 8) over a contiguous float64 copy of t, built directly:
    each pair check of the diversity graph pays this call's fixed cost.
    """
    t = np.ascontiguousarray(t, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    L = len(s)
    if L > len(t):
        raise ShapeletLongerThanSeriesError(f"query length {L} > series length {len(t)}")
    w = np.ndarray((len(t) - L + 1, L), dtype=np.float64, buffer=t, strides=(8, 8))
    if cfg.normalize_windows:
        diff = znorm_rows(w)
        diff -= znormalize(s)
    else:
        diff = w - s
    out = np.einsum("ij,ij->i", diff, diff)
    if cfg.length_normalize:
        out /= L
    return out


def subsequence_dist(t: np.ndarray, s: np.ndarray, cfg: DistanceConfig = DEFAULT_CONFIG) -> float:
    """Minimum window distance of query s slid along series t.

    The early-abandoning scan drops a window as soon as its running sum
    exceeds the best seen so far; the result is identical to the full scan.
    """
    t = np.asarray(t, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    L = len(s)
    if L > len(t):
        raise ShapeletLongerThanSeriesError(f"query length {L} > series length {len(t)}")

    wcount = len(t) - L + 1
    if cfg.normalize_windows:
        q = znormalize(s)
        w = np.lib.stride_tricks.sliding_window_view(t, L)
        mus, sds = w.mean(axis=1), w.std(axis=1)
    else:
        q, mus, sds = s, np.zeros(wcount), np.ones(wcount)

    q_sq = float(np.dot(q, q))
    best = np.inf
    for start in range(wcount):
        mu, sd = mus[start], sds[start]
        if sd < FLAT_STD:
            # flat window z-normalizes to zeros
            best = min(best, q_sq)
            continue
        total = 0.0
        for i in range(L):
            diff = (t[start + i] - mu) / sd - q[i]
            total += diff * diff
            if total >= best:
                break
        best = min(best, total)
    return best / L if cfg.length_normalize else best


def shapelet_dist(s1, s2, cfg: DistanceConfig = DEFAULT_CONFIG) -> float:
    """Distance between two shapelets (or raw value arrays).

    Equal lengths compare directly; otherwise the shorter sequence slides
    along the longer and the minimum window distance is returned, making the
    function symmetric in its arguments.
    """
    a = np.asarray(getattr(s1, "values", s1), dtype=np.float64)
    b = np.asarray(getattr(s2, "values", s2), dtype=np.float64)
    if len(a) == 0 or len(b) == 0:
        raise LengthMismatchError("shapelets must be non-empty")
    if len(a) < len(b):
        a, b = b, a
    return float(window_distances(a, b, cfg).min())
