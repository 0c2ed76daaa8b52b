"""Distance kernels for subsequence matching.

All shapelet machinery rests on one measure: the minimum squared euclidean
distance between a query and every aligned window of a series, optionally
z-normalizing both sides and dividing by the compared length so distances
of different-length queries share a per-point scale.

nearest_window_dists is the batched kernel behind mining and transform: a
matrix product finds each query's nearest window in each series, and direct
squared differences measure it. window_distances is the per-pair scan
behind shapelet_dist and the orderline oracle; subsequence_dist, an
early-abandoning scalar loop, is the oracle both are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import FLAT_STD, znormalize
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


def euclid_sq(a: np.ndarray, b: np.ndarray) -> float:
    """Squared euclidean distance between equal-length vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise LengthMismatchError(f"lengths {a.shape} vs {b.shape}")
    d = a - b
    return float(np.dot(d, d))


def znorm_rows(w: np.ndarray) -> np.ndarray:
    """Row-wise z-normalization with the flat-row-to-zeros convention of
    znormalize."""
    mu = w.mean(axis=1, keepdims=True)
    sd = w.std(axis=1, keepdims=True)
    flat = sd[:, 0] < FLAT_STD
    out = (w - mu) / np.where(sd < FLAT_STD, 1.0, sd)
    if flat.any():
        out[flat] = 0.0
    return out


def window_matrix(X: np.ndarray, L: int, cfg: DistanceConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Every length-L window of every row of X, one per row, in (row, start)
    order, z-normalized when cfg.normalize_windows. Rows of length L give
    one window each, so a stack of queries is prepared the same way."""
    X = np.asarray(X, dtype=np.float64)
    n, m = X.shape
    if L > m:
        raise ShapeletLongerThanSeriesError(f"query length {L} > series length {m}")
    if L < m:
        X = np.lib.stride_tricks.sliding_window_view(X, L, axis=1).reshape(n * (m - L + 1), L)
    return znorm_rows(X) if cfg.normalize_windows else X


def nearest_window_dists(
    Q: np.ndarray, W: np.ndarray, n: int, cfg: DistanceConfig = DEFAULT_CONFIG
) -> np.ndarray:
    """(queries, n) minimum window distances from each row of Q to each of
    n series, whose windows W holds series by series. Q and W come from
    window_matrix with the same cfg.

    Within a series, q.w - |w|^2/2 is largest at the window nearest to q, so
    one matrix product picks it; the picked window is then measured by
    direct squared differences.
    """
    k, L = Q.shape
    wcount = len(W) // n
    score = Q @ W.T
    score -= 0.5 * np.einsum("ij,ij->i", W, W)
    nearest = score.reshape(k, n, wcount).argmax(axis=2)
    del score
    diff = W[nearest + wcount * np.arange(n)]
    diff -= Q[:, None]
    diff = diff.reshape(k * n, L)
    out = np.einsum("ij,ij->i", diff, diff).reshape(k, n)
    if cfg.length_normalize:
        out /= L
    return out


def window_distances(t: np.ndarray, s: np.ndarray, cfg: DistanceConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Distance from s to every aligned window of t, vectorized."""
    t = np.asarray(t, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    L = len(s)
    if L > len(t):
        raise ShapeletLongerThanSeriesError(f"query length {L} > series length {len(t)}")
    w = np.lib.stride_tricks.sliding_window_view(t, L)
    if cfg.normalize_windows:
        diff = znorm_rows(w) - znormalize(s)
    else:
        diff = w - s
    out = np.einsum("ij,ij->i", diff, diff)
    if cfg.length_normalize:
        out = out / L
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
