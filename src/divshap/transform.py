"""Distance-feature transform: one column per shapelet, one row per series."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .distance import DEFAULT_CONFIG, DistanceConfig, SeriesSums, nearest_window_dists
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
        """Scale columns to [0, 1] with clamping; degenerate columns map to 0.

        The clamp is np.clip's, bit for bit, in place: maximum(0, x), then
        minimum(1, x), which keep a NaN and the sign of a zero as it does."""
        span = self.maxs - self.mins
        live = span > 0
        scaled = X - self.mins
        scaled /= np.where(live, span, 1.0)
        if not live.all():
            scaled[:, ~live] = 0.0
        np.maximum(0.0, scaled, out=scaled)
        return np.minimum(1.0, scaled, out=scaled)


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
    call against the windows of every series, raw or z-normalized alike
    (SeriesSums, built once per call). No window is copied to pick the
    nearest: one banded product over the series scores every window, and
    only the picked windows are measured exactly. z-normalized windows are
    scored from the mean-centred series, weighted by 1/sd from prefix sums,
    so their pick is approximate within the bound at
    distance.RUNNING_VAR_MARGIN. A z-normalized query is the shapelet's
    Shapelet.znormed, computed once per shapelet, not once per call.
    """
    sums = SeriesSums.of(d.X, cfg)
    out = np.zeros((d.n, len(shapelets)))
    for L in {s.length for s in shapelets}:
        cols = [j for j, s in enumerate(shapelets) if s.length == L]
        if cfg.normalize_windows:
            queries = np.array([shapelets[j].znormed for j in cols])
        else:
            queries = np.array([shapelets[j].values for j in cols])
        out[:, cols] = nearest_window_dists(queries, sums.windows(L), cfg).T
    return FeatureMatrix(X=out)


def fit_scaling(fm: FeatureMatrix) -> Scaling:
    """Column min/max from a training feature matrix."""
    return Scaling.fit(fm.X)


def apply_scaling(fm: FeatureMatrix, scaling: Scaling) -> FeatureMatrix:
    """fm with its columns scaled by scaling.apply."""
    return FeatureMatrix(X=scaling.apply(fm.X))
