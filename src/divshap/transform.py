"""Distance-feature transform: one column per shapelet, one row per series."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, znorm_rows
from .distance import DEFAULT_CONFIG, DistanceConfig, SeriesSums, Windows, nearest_window_dists
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
    """Distance features, one row per series. It wraps the array only
    because benchmark/traced.py reads transform(...).X and scales it with
    fit_scaling/apply_scaling, which also stay for that reason alone."""

    X: np.ndarray


def transform(
    d: Dataset, shapelets: list[Shapelet], cfg: DistanceConfig = DEFAULT_CONFIG
) -> FeatureMatrix:
    """Map each series to its vector of subsequence distances to shapelets.

    Entry (i, j) is the minimum window distance from series i to shapelet j.
    Shapelets of one length go through distance.nearest_window_dists in one
    call against the windows of every series. With z-normalization on, the
    windows are not z-normalized to pick the nearest: each window's standard
    deviation comes from prefix sums built once per call (SeriesSums), and
    only the picked windows are z-normalized and measured exactly. The pick
    is approximate within the bound at distance.RUNNING_VAR_MARGIN.
    """
    sums = SeriesSums.of(d.X) if cfg.normalize_windows else None

    def windows(L: int) -> Windows:
        if sums is None:
            return Windows.of_series(d.X, L, cfg)
        return sums.windows(L)

    out = np.zeros((d.n, len(shapelets)))
    for L in {s.length for s in shapelets}:
        cols = [j for j, s in enumerate(shapelets) if s.length == L]
        queries = np.array([shapelets[j].values for j in cols])
        if cfg.normalize_windows:
            znorm_rows(queries, out=queries)
        out[:, cols] = nearest_window_dists(queries, windows(L), cfg).T
    return FeatureMatrix(X=out)


def fit_scaling(fm: FeatureMatrix) -> Scaling:
    """Column min/max from a training feature matrix."""
    return Scaling.fit(fm.X)


def apply_scaling(fm: FeatureMatrix, scaling: Scaling) -> FeatureMatrix:
    """fm with its columns scaled by scaling.apply."""
    return FeatureMatrix(X=scaling.apply(fm.X))
