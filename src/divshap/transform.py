"""Distance-feature transform: one column per shapelet, one row per series."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import Dataset, znormalize
from .distance import DEFAULT_CONFIG, DistanceConfig, znorm_rows
from .errors import ShapeletLongerThanSeriesError
from .mining import Shapelet


@dataclass(frozen=True)
class Scaling:
    """Per-column min/max fitted on training features."""

    mins: np.ndarray
    maxs: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "Scaling":
        """Column min/max of X."""
        return cls(mins=X.min(axis=0), maxs=X.max(axis=0))

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Scale columns to [0, 1] with clamping; degenerate columns map to 0."""
        span = self.maxs - self.mins
        safe = np.where(span > 0, span, 1.0)
        scaled = np.clip((X - self.mins) / safe, 0.0, 1.0)
        return np.where(span > 0, scaled, 0.0)


@dataclass(frozen=True)
class FeatureMatrix:
    """Distance features plus row labels and column provenance.

    scaling is None for raw distances and set once min-max scaling has been
    applied.
    """

    X: np.ndarray
    labels: np.ndarray
    shapelet_ids: list[str]
    scaling: Scaling | None = None


def transform(
    d: Dataset, shapelets: list[Shapelet], cfg: DistanceConfig = DEFAULT_CONFIG
) -> FeatureMatrix:
    """Map each series to its vector of subsequence distances to shapelets.

    Entry (i, j) is the minimum window distance from series i to shapelet j.
    Shapelets are grouped by length so each group shares one pass over the
    series windows.
    """
    for s in shapelets:
        if s.length > d.m:
            raise ShapeletLongerThanSeriesError(
                f"shapelet length {s.length} > series length {d.m}"
            )
    out = np.zeros((d.n, len(shapelets)))
    by_length: dict[int, list[int]] = {}
    for j, s in enumerate(shapelets):
        by_length.setdefault(s.length, []).append(j)

    for L, cols in by_length.items():
        w = np.lib.stride_tricks.sliding_window_view(d.X, L, axis=1)
        if cfg.normalize_windows:
            n, wcount, _ = w.shape
            w = znorm_rows(np.ascontiguousarray(w, dtype=np.float64).reshape(n * wcount, L)).reshape(
                n, wcount, L
            )
        for j in cols:
            q = shapelets[j].values
            if cfg.normalize_windows:
                q = znormalize(q)
            diff = w - q
            dist = np.einsum("nwl,nwl->nw", diff, diff).min(axis=1)
            out[:, j] = dist / L if cfg.length_normalize else dist
    return FeatureMatrix(
        X=out, labels=d.y.copy(), shapelet_ids=[s.id for s in shapelets], scaling=None
    )


def fit_scaling(fm: FeatureMatrix) -> Scaling:
    """Column min/max from a training feature matrix."""
    return Scaling.fit(fm.X)


def apply_scaling(fm: FeatureMatrix, scaling: Scaling) -> FeatureMatrix:
    """fm with its columns scaled by scaling.apply."""
    return replace(fm, X=scaling.apply(fm.X), scaling=scaling)


def write_features(fm: FeatureMatrix, stream) -> None:
    """CSV export: shapelet-id header columns, label last."""
    stream.write(",".join(fm.shapelet_ids + ["label"]) + "\n")
    for row, label in zip(fm.X, fm.labels):
        stream.write(",".join(format(v, ".17g") for v in row) + f",{int(label)}\n")
