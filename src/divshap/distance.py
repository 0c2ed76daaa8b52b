"""Distance kernels for subsequence matching.

All shapelet machinery rests on one measure: the minimum squared euclidean
distance between a query and every aligned window of a series, optionally
z-normalizing both sides and dividing by the compared length so distances
of different-length queries share a per-point scale.
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


def _window_stats(t: np.ndarray, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population std of every length-L window of t."""
    w = np.lib.stride_tricks.sliding_window_view(t, L)
    return w.mean(axis=1), w.std(axis=1)


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


def subsequence_dist(
    t: np.ndarray,
    s: np.ndarray,
    cfg: DistanceConfig = DEFAULT_CONFIG,
    *,
    early_abandon: bool = True,
) -> float:
    """Minimum window distance of query s slid along series t.

    The early-abandoning scan drops a window as soon as its running sum
    exceeds the best seen so far; the result is identical to the full scan.
    """
    t = np.asarray(t, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    L = len(s)
    if L > len(t):
        raise ShapeletLongerThanSeriesError(f"query length {L} > series length {len(t)}")
    if not early_abandon:
        return float(window_distances(t, s, cfg).min())

    if cfg.normalize_windows:
        q = znormalize(s)
        mus, sds = _window_stats(t, L)
    else:
        q = s
        mus = sds = None

    scale = L if cfg.length_normalize else 1
    q_sq = float(np.dot(q, q))
    best = np.inf
    for start in range(len(t) - L + 1):
        if cfg.normalize_windows:
            sd = sds[start]
            if sd < FLAT_STD:
                # flat window z-normalizes to zeros
                total = q_sq
                if total < best:
                    best = total
                continue
            mu = mus[start]
            total = 0.0
            for i in range(L):
                diff = (t[start + i] - mu) / sd - q[i]
                total += diff * diff
                if total >= best:
                    break
        else:
            total = 0.0
            for i in range(L):
                diff = t[start + i] - q[i]
                total += diff * diff
                if total >= best:
                    break
        if total < best:
            best = total
    return best / scale


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
