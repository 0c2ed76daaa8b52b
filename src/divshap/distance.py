"""Distance kernels for subsequence matching.

All shapelet machinery rests on one measure: the minimum squared euclidean
distance between a query and every aligned window of a series, optionally
z-normalizing both sides and dividing by the compared length so distances
of different-length queries share a per-point scale.

nearest_window_dists is the batched kernel behind mining and transform: a
matrix product picks each query's nearest window in each series, and direct
squared differences measure the picked window exactly. The two callers
differ only in the Windows they pass. Mining scans its z-normalized window
matrix (Windows.of_series), since every window is also a query; each row
carries the window's offset |w|^2/2 in one extra column, so the product
itself yields the pick score. Transform scans the plain windows, weighted
by 1/sd from prefix sums (SeriesSums), and z-normalizes only the windows it
picks; its pick is approximate within the bound given at
RUNNING_VAR_MARGIN. Transform without window normalization scans
Windows.of_series as mining does. window_distances is the per-pair scan
behind shapelet_dist (each pair check of the diversity graph) and the
orderline oracle; it reads the windows as a strided view of the series,
built without sliding_window_view's per-call checks. subsequence_dist, an
early-abandoning scalar loop on numpy's own mean and std, is the oracle
both are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """The length-L windows of n series, as nearest_window_dists reads them.

    scan holds one row per window, series by series, and the pick keeps
    each series' top score. Without scale, a scan row is a window w followed
    by its offset |w|^2/2; the kernel gives each query q a last entry of -1,
    so the matrix product itself scores q . w - |w|^2/2, and a picked window
    is measured as its scan row. With scale, a scan row is the window alone,
    the pick scores (q . scan[i]) * scale[i] - offset[i], and a picked
    window is measured as the z-normalization of its values in series, the
    raw (n, m) series.
    """

    scan: np.ndarray
    n: int
    scale: np.ndarray | None = None
    offset: np.ndarray | None = None
    series: np.ndarray | None = None

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

    def measured(self, nearest: np.ndarray) -> np.ndarray:
        """(k, n, L) rows of the picked windows, a fresh array; nearest[j, i]
        is the start of query j's pick in series i."""
        if self.series is None:
            return self.scan[:, :-1][nearest + (len(self.scan) // self.n) * np.arange(self.n)]
        L = self.scan.shape[1]
        k = len(nearest)
        rows = np.lib.stride_tricks.sliding_window_view(self.series, L, axis=1)[np.arange(self.n), nearest]
        return znorm_rows(rows.reshape(k * self.n, L)).reshape(k, self.n, L)


# A window variance taken from prefix sums is trusted only when it exceeds
# this many times the sums' rounding bound; below that the window is
# z-normalized directly. A trusted variance is thus off by at most
# 1/RUNNING_VAR_MARGIN of itself, which moves a pick score q . z(w) by at most
# L/(2 RUNNING_VAR_MARGIN). The picked window is measured exactly, but it may
# be one whose squared distance exceeds the minimum by up to
# 2 L/RUNNING_VAR_MARGIN (2/RUNNING_VAR_MARGIN per point when length
# normalized), beyond the rounding of the matrix product itself.
RUNNING_VAR_MARGIN = 1e8


@dataclass(frozen=True)
class SeriesSums:
    """Prefix sums of each series' mean-centred values and of their squares.

    Built once per batch, they give the standard deviation of every window,
    at any length, without z-normalizing the windows.
    """

    series: np.ndarray
    centered: np.ndarray
    s1: np.ndarray
    s2: np.ndarray

    @classmethod
    def of(cls, X: np.ndarray) -> "SeriesSums":
        """The sums of the rows of X, each with a leading zero."""
        X = np.asarray(X, dtype=np.float64)
        centered = X - X.mean(axis=1, keepdims=True)
        s1, s2 = np.zeros((2, len(X), X.shape[1] + 1))
        np.cumsum(centered, axis=1, out=s1[:, 1:])
        np.cumsum(centered * centered, axis=1, out=s2[:, 1:])
        return cls(X, centered, s1, s2)

    def windows(self, L: int) -> Windows:
        """The length-L windows for a z-normalized pick.

        A z-normalized query q sums to zero, so for a non-flat window w,
        q . z(w) = (q . w) / sd(w) and |z(w)|^2 = L: the scan holds the
        centred windows, scale is 1/sd and offset L/2. A window whose
        running variance could be off by more than 1/RUNNING_VAR_MARGIN of
        itself, or which is close to flat, is z-normalized directly instead
        (scale 1, offset L/2 or 0 when flat), as Windows.of_series would.
        """
        n, m = self.series.shape
        if L > m:
            raise ShapeletLongerThanSeriesError(f"query length {L} > series length {m}")
        wcount = m - L + 1
        mean = (self.s1[:, L:] - self.s1[:, :wcount]) / L
        var = (self.s2[:, L:] - self.s2[:, :wcount]) / L - mean * mean
        # each prefix sum may be off by about m*eps of the series' sum of
        # squares; the squared mean can add a further sqrt(m/L) of that
        bound = 3 * m * np.finfo(np.float64).eps * self.s2[:, -1:] * np.sqrt(m / L) / L
        direct = (var < np.maximum(RUNNING_VAR_MARGIN * bound, (2 * FLAT_STD) ** 2)).ravel()
        scan = np.lib.stride_tricks.sliding_window_view(self.centered, L, axis=1).reshape(n * wcount, L)
        scale = 1.0 / np.sqrt(np.where(direct, 1.0, var.ravel()))
        offset = np.full(n * wcount, 0.5 * L)
        if direct.any():
            idx = np.flatnonzero(direct)
            if not scan.flags.writeable:  # the reshape above kept a view of centered
                scan = scan.copy()
            raw = np.lib.stride_tricks.sliding_window_view(self.series, L, axis=1)[idx // wcount, idx % wcount]
            scan[idx] = znorm_rows(raw)
            scale[idx] = 1.0
            offset[idx] = znorm_offset(scan[idx])
        return Windows(scan, n, scale, offset, self.series)


def nearest_window_dists(
    Q: np.ndarray, windows: Windows, cfg: DistanceConfig = DEFAULT_CONFIG
) -> np.ndarray:
    """(queries, n) minimum window distances from each row of Q to each of
    the n series of windows; the rows are z-normalized (znorm_rows) when
    cfg.normalize_windows.

    Within a series, q.w - |w|^2/2 is largest at the window nearest to q, so
    one matrix product picks it (see Windows for how the scan carries the
    offset, or is scaled and offset after the product); the picked window is
    then measured by direct squared differences. The distance is exact for
    the picked window; with scale set, the pick itself is exact only up to
    the bound at RUNNING_VAR_MARGIN.
    """
    k, L = Q.shape
    n = windows.n
    if windows.scale is None:
        Qx = np.empty((k, L + 1))
        Qx[:, :L] = Q
        Qx[:, L] = -1.0
        score = Qx @ windows.scan.T
    else:
        score = Q @ windows.scan.T
        score *= windows.scale
        score -= windows.offset
    nearest = score.reshape(k, n, len(windows.scan) // n).argmax(axis=2)
    del score
    diff = windows.measured(nearest)
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
