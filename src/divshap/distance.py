"""Distance kernels for subsequence matching.

All shapelet machinery rests on one measure: the minimum squared euclidean
distance between a query and every aligned window of a series, optionally
z-normalizing both sides and dividing by the compared length so distances
of different-length queries share a per-point scale.

nearest_window_dists is the batched kernel behind mining and transform: a
matrix product picks each query's nearest window in each series, and direct
squared differences measure the picked window exactly, a slice of queries
at a time, so that no caller holds the scores of a whole block. Both callers
address a window by its series and start, and differ only in how their
windows score (Windows or ScaledWindows). Mining scans a copy of every
window followed by its offset |w|^2/2 (Windows.of_series), since every
window is also a query, so the product itself yields the pick score.
Transform copies no window, raw or z-normalized (SeriesSums): one banded
product of the series with the queries gives q . w for every window, less
an offset. A raw window's offset |w|^2/2 is summed from the series in
place. For z-normalized windows the series are mean-centred and each score
is weighted by 1/sd from prefix sums; only the windows picked are
z-normalized, and the pick is approximate within the bound given at
RUNNING_VAR_MARGIN. Its sibling nearest_window_scores serves mining's
first pass, which reads only the order of a query's distances: a distance
is |q|^2 less twice the pick score, so it returns each series' largest
pick score, with no pick and no measure. Both slice their queries by one
rule (_query_slices).
pair_dists is the one pair kernel, behind the greedy scan fit runs
(graph.batch_div_topk), the graph's edges, shapelet_dist and the orderline
oracle: it slides the shorter of each pair along the longer, as row
operations on many pairs at once, with no BLAS product. subsequence_dist, an
early-abandoning scalar loop on numpy's own mean and std, is its oracle.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dataset import FLAT_STD, SQUARE_CHUNK, znorm_rows, znorm_rows_flat, znormalize
from .errors import DimensionMismatchError, LengthMismatchError, ShapeletLongerThanSeriesError, require_bool


@dataclass(frozen=True)
class DistanceConfig:
    """Flags governing window comparison.

    normalize_windows: z-normalize the query and every window before
    comparing. length_normalize: divide the squared distance by the compared
    length. Both default on; a flag that is not a bool raises
    InvalidConfigError.
    """

    normalize_windows: bool = True
    length_normalize: bool = True

    def __post_init__(self) -> None:
        require_bool("normalize_windows", self.normalize_windows)
        require_bool("length_normalize", self.length_normalize)


DEFAULT_CONFIG = DistanceConfig()


def znorm_offset(rows: np.ndarray) -> np.ndarray:
    """|w|^2/2 for each z-normalized row w: L/2, or 0 for a flat row (all
    zeros)."""
    return np.where(rows.any(axis=1), 0.5 * rows.shape[1], 0.0)


@dataclass(frozen=True)
class Windows:
    """The length-L windows of n series as mining scans them.

    scan[i, j] is the window w of series i that starts at j, followed by
    its offset |w|^2/2. The kernel gives each query q a last entry of -1,
    so one matrix product over every window scores q . w - |w|^2/2, and a
    picked window is measured as its values in scan.
    """

    scan: np.ndarray

    @classmethod
    def of_series(cls, X: np.ndarray, L: int, cfg: DistanceConfig = DEFAULT_CONFIG) -> "Windows":
        """The length-L windows of the rows of X, measured as they are
        scanned: each is z-normalized in place when cfg.normalize_windows,
        and its offset follows it."""
        X = np.asarray(X, dtype=np.float64)
        n, m = X.shape
        if L > m:
            raise ShapeletLongerThanSeriesError(f"query length {L} > series length {m}")
        scan = np.empty((n, m - L + 1, L + 1))
        scan[:, :, :L] = sliding_window_view(X, L, axis=1)
        rows = scan.reshape(-1, L + 1)  # a view: one row per window
        W = rows[:, :L]
        if cfg.normalize_windows:
            rows[:, L] = np.where(znorm_rows_flat(W, out=W)[1], 0.0, 0.5 * L)
        else:
            rows[:, L] = 0.5 * np.einsum("ij,ij->i", W, W)
        return cls(scan)

    @property
    def shape(self) -> tuple[int, int, int]:
        """(n, windows per series, L)."""
        return *self.scan.shape[:2], self.scan.shape[2] - 1

    def scores(self, Q: np.ndarray) -> np.ndarray:
        """(k, n, windows per series) pick scores of the k rows of Q, from
        one matrix product over every window."""
        k, L = Q.shape
        Qx = np.concatenate([Q, np.full((k, 1), -1.0)], axis=1)
        return (Qx @ self.scan.reshape(-1, L + 1).T).reshape(k, *self.scan.shape[:2])

    def measured(self, nearest: np.ndarray) -> np.ndarray:
        """(k, n, L) values of the picked windows, a fresh array; nearest[j, i]
        is the start of query j's pick in series i.

        nearest is overwritten with the flat row index of each pick, which
        gathers them faster than a (series, start) pair of index arrays.
        ndarray.take would first copy every window of the strided view,
        and a fresh index array the size of nearest raised a fit's peak
        RSS."""
        n, wcount, L = self.shape
        nearest += np.arange(0, n * wcount, wcount)
        return self.scan.reshape(-1, L + 1)[nearest, :L]


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
        """The rows of X for cfg; each prefix sum has a leading zero. The
        series are held C-contiguous, as windows reads them."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        if not cfg.normalize_windows:
            return cls(X, X, None, None)
        # X.mean(axis=1), bit for bit, without np.mean's wrapper
        centered = X - np.add.reduce(X, axis=1, keepdims=True) / X.shape[1]
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
        or which is close to flat, is z-normalized directly instead, as
        Windows.of_series would; when no window is, none is gathered.
        """
        m = self.series.shape[1]
        if L > m:
            raise ShapeletLongerThanSeriesError(f"query length {L} > series length {m}")
        wcount = m - L + 1
        # sliding_window_view's view, without its per-call argument checks
        n = len(self.series)
        view = np.ndarray((n, wcount, L), dtype=np.float64, buffer=self.series, strides=(8 * m, 8, 8))
        view.flags.writeable = False
        if self.s1 is None:
            offset = 0.5 * np.einsum("ijk,ijk->ij", view, view)
            return ScaledWindows(self, view, None, offset, NO_DIRECT, np.empty((0, L)))
        mean = self.s1[:, L:] - self.s1[:, :wcount]
        mean /= L
        var = self.s2[:, L:] - self.s2[:, :wcount]
        var /= L
        var -= np.square(mean, out=mean)
        # each prefix sum may be off by about m*eps of the series' sum of
        # squares; the squared mean can add a further sqrt(m/L) of that
        bound = 3 * m * np.finfo(np.float64).eps * self.s2[:, -1:] * np.sqrt(m / L) / L
        direct = var < np.maximum(RUNNING_VAR_MARGIN * bound, (2 * FLAT_STD) ** 2)
        where, zdirect = NO_DIRECT, np.empty((0, L))
        if direct.any():
            var[direct] = 1.0
            # np.nonzero(direct) at a tenth of its cost on a 2-D mask
            where = np.divmod(np.flatnonzero(direct), wcount)
            zdirect = view[where]
            znorm_rows(zdirect, out=zdirect)
        scale = np.divide(1.0, np.sqrt(var, out=var), out=var)
        return ScaledWindows(self, view, scale, 0.5 * L, where, zdirect)


# The empty (series, start) pair of windows with no direct z-normalization.
NO_DIRECT = (np.empty(0, np.intp), np.empty(0, np.intp))


@dataclass(frozen=True)
class ScaledWindows:
    """The length-L windows of n series, read in place from their
    SeriesSums: view[i, j] is the window w of series i that starts at j.

    Its pick score is (q . r(w)) * scale[i, j] - offset, for r(w) its
    values in the rows of the sums: the centred values of a z-normalized
    window, whose offset is the number L/2, or the values of a raw one,
    whose scale is None (1) and whose offset[i, j] is |w|^2/2. The windows
    at the (series, start) pairs in direct are z-normalized directly
    instead, into the rows of zdirect, and score q . z - |z|^2/2 from those
    rows z. A picked window is measured as its values in view, z-normalized
    when its scale is not None.
    """

    sums: SeriesSums
    view: np.ndarray
    scale: np.ndarray | None
    offset: np.ndarray | float
    direct: tuple[np.ndarray, np.ndarray]
    zdirect: np.ndarray

    @property
    def shape(self) -> tuple[int, int, int]:
        """(n, windows per series, L)."""
        return self.view.shape

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
            strides = (padded.strides[0], 8 * B, 8)
            rows = np.ndarray((n, tiles, width), dtype=np.float64, buffer=padded, strides=strides).reshape(n * tiles, width)
        band = np.zeros((k, width, B))
        # view[q, b, t] is band[q, b + t, b]: b steps B + 1 values, t one row
        strides = (8 * width * B, 8 * (B + 1), 8 * B)
        np.ndarray((k, B, L), dtype=np.float64, buffer=band, strides=strides)[...] = Q[:, None]
        score = np.matmul(rows, band).reshape(k, n, tiles * B)[:, :, :wcount]
        if self.scale is not None:
            score *= self.scale
        score -= self.offset
        if len(self.zdirect):
            i, start = self.direct
            score[:, i, start] = Q @ self.zdirect.T - znorm_offset(self.zdirect)
        return score

    def measured(self, nearest: np.ndarray) -> np.ndarray:
        """(k, n, L) values of the picked windows, a fresh array, as
        Windows.measured gives them, and nearest overwritten as it does.

        The series laid end to end are read as the rows of one view, one
        row per start, so that window (i, j) is row i m + j (rows that
        cross into the next series are never read)."""
        n, wcount, L = self.shape
        m = wcount + L - 1
        nearest += np.arange(0, n * m, m)
        runs = np.ndarray((max(0, n * m - L + 1), L), dtype=np.float64, buffer=self.sums.series, strides=(8, 8))
        rows = runs[nearest]
        if self.scale is not None:
            flat = rows.reshape(-1, L)  # a view of the fresh rows
            znorm_rows(flat, out=flat)
        return rows


def _query_slices(Q: np.ndarray, windows: Windows | ScaledWindows):
    """The slices of the rows of Q that a window kernel scores at a time:
    at most SQUARE_CHUNK bytes of scores each, or one query's if more."""
    n, wcount, L = windows.shape
    step = max(1, SQUARE_CHUNK // (8 * max(1, n * max(wcount, L))))
    return (slice(a, a + step) for a in range(0, len(Q), step))


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

    The queries are scored, picked and measured a slice at a time
    (_query_slices). Beside the output, the call holds one slice's picks
    and either its scores or its picked windows: at most SQUARE_CHUNK bytes
    of each, or one query's if more (ScaledWindows' scores also hold the
    ragged end of each series' last tile). A query's pick and distances do
    not depend on its slice.
    """
    n, wcount, L = windows.shape
    out = np.empty((len(Q), n))
    for rows in _query_slices(Q, windows):
        q = Q[rows]
        diff = windows.measured(windows.scores(q).argmax(axis=2))
        diff -= q[:, None]
        out[rows] = np.einsum("ijk,ijk->ij", diff, diff)
        del diff  # before the next slice's scores
    if cfg.length_normalize:
        out /= L
    return out


def nearest_window_scores(Q: np.ndarray, windows: Windows | ScaledWindows) -> np.ndarray:
    """(queries, n) largest pick score of each row of Q in each of the n
    series of windows: the score of the window nearest_window_dists picks,
    with no pick and no measure.

    One np.maximum.reduceat at the series starts takes each series' largest
    entry of a slice's (queries, n * wcount) scores; on short rows it costs
    half an argmax. The queries are sliced as nearest_window_dists slices
    them, so the call holds one slice's scores beside its output. Unlike a
    measured distance, a score's last bits may depend on its slice
    (ScaledWindows' tiles narrow with a slice's queries).
    """
    n, wcount, L = windows.shape
    out = np.empty((len(Q), n))
    starts = np.arange(0, n * wcount, wcount)
    for rows in _query_slices(Q, windows):
        score = windows.scores(Q[rows])
        np.maximum.reduceat(score.reshape(len(score), -1), starts, axis=1, out=out[rows])
        del score  # before the next slice's scores
    return out


def subsequence_dist(t: np.ndarray, s: np.ndarray, cfg: DistanceConfig = DEFAULT_CONFIG) -> float:
    """Minimum window distance of query s slid along series t.

    The early-abandoning scan drops a window as soon as its running sum
    exceeds the best seen so far; the result is identical to the full scan.
    """
    t, s = _sequence(t), _sequence(s)
    L = len(s)
    if L > len(t):
        raise ShapeletLongerThanSeriesError(f"query length {L} > series length {len(t)}")

    wcount = len(t) - L + 1
    if cfg.normalize_windows:
        q = znormalize(s)
        w = sliding_window_view(t, L)
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
    function symmetric in its arguments. It is pair_dists of the one pair.
    """
    return float(pair_dists([s2], [s1], cfg)[0, 0])


def _sequence(x) -> np.ndarray:
    """The values of a shapelet or value array x, as a contiguous float64
    array: DimensionMismatchError unless 1-D, LengthMismatchError if empty."""
    x = np.asarray(getattr(x, "values", x), dtype=np.float64)
    if x.ndim != 1:
        raise DimensionMismatchError(f"a sequence must be 1-D, got shape {x.shape}")
    if not len(x):
        raise LengthMismatchError("sequences must be non-empty")
    return np.ascontiguousarray(x)


def pair_dists(us, vs, cfg: DistanceConfig = DEFAULT_CONFIG) -> np.ndarray:
    """(len(us), len(vs)) matrix of the distances between each u of us and
    each v of vs (shapelets or value arrays): the minimum window distance of
    the shorter slid along the longer.

    The pairs are taken a length L at a time, L the shorter side's length:
    the vs of length L against the windows of each u at least as long, then
    the us of length L against the windows of each longer v, each group in
    one _window_mins call. A pair of equal lengths, whose one window is the
    longer side itself, gives the same squares whichever side is subtracted.
    """
    us, vs = [_sequence(u) for u in us], [_sequence(v) for v in vs]
    # each side in length order, so that its rows of a length, and those
    # longer, are slices; the lengths are few and grouped in Python, as
    # numpy's per-call cost outweighs them
    pu = sorted(range(len(us)), key=lambda i: len(us[i]))
    pv = sorted(range(len(vs)), key=lambda j: len(vs[j]))
    us, vs = [us[i] for i in pu], [vs[j] for j in pv]
    lu, lv = [len(u) for u in us], [len(v) for v in vs]
    out = np.empty((len(us), len(vs)))
    for L in sorted({*lu, *lv}):
        u0, u1 = bisect_left(lu, L), bisect_right(lu, L)
        v0, v1 = bisect_left(lv, L), bisect_right(lv, L)
        if v1 > v0 and u0 < len(us):
            out[u0:, v0:v1] = _window_mins(us[u0:], vs[v0:v1], L, cfg).T
        if u1 > u0 and v1 < len(vs):
            out[u0:u1, v1:] = _window_mins(vs[v1:], us[u0:u1], L, cfg)
    # back to the callers' order, gathering only a side that was reordered
    if pu != sorted(pu):
        out = out[np.argsort(pu)]
    if pv != sorted(pv):
        out = out[:, np.argsort(pv)]
    return out


def _window_mins(longs: list, shorts: list, L: int, cfg: DistanceConfig) -> np.ndarray:
    """(len(shorts), len(longs)) minimum distances from each short row, of
    length L, to the length-L windows of each long one (contiguous float64
    rows).

    The windows of many longs and the shorts go into one matrix, z-normalized
    by one znorm_rows call; every short is then subtracted from every window,
    a row einsum sums the squares, and a segment minimum takes each long's
    least. No step is a BLAS product, so no bit depends on the BLAS thread
    count. The matrix holds at most SQUARE_CHUNK bytes of windows (or one
    long's windows), and the differences at most SQUARE_CHUNK bytes (or one
    short's).
    """
    out = np.empty((len(shorts), len(longs)))
    counts = [len(t) - L + 1 for t in longs]
    per = max(1, SQUARE_CHUNK // (8 * L * max(counts)))
    for lo in range(0, len(longs), per):
        wc = counts[lo : lo + per]
        # sliding_window_view's view of each long, without its per-call
        # argument checks, and each short as a row
        views = [np.ndarray((n, L), dtype=np.float64, buffer=t, strides=(8, 8)) for t, n in zip(longs[lo:], wc)]
        rows = np.concatenate(views + [s[None] for s in shorts])
        if cfg.normalize_windows:
            znorm_rows(rows, out=rows)
        windows, queries = rows[: -len(shorts)], rows[-len(shorts) :]
        first = list(accumulate(wc[:-1], initial=0))
        step = max(1, SQUARE_CHUNK // (8 * windows.size))
        for a in range(0, len(queries), step):
            diff = (windows - queries[a : a + step, None]).reshape(-1, L)
            d = np.einsum("ij,ij->i", diff, diff).reshape(-1, len(windows))
            if cfg.length_normalize:
                d /= L
            out[a : a + step, lo : lo + per] = np.minimum.reduceat(d, first, axis=1)
    return out
