import io

import numpy as np
import pytest

from divshap.dataset import Dataset
from divshap.errors import ShapeletLongerThanSeriesError
from divshap.mining import MiningConfig, Shapelet, generate_candidates
from divshap.transform import (
    FeatureMatrix,
    Scaling,
    apply_scaling,
    fit_scaling,
    transform,
    write_features,
)

from test_distance import naive_subsequence_dist


def make_shapelet(values, label=0, idx=0, start=0):
    return Shapelet(
        values=np.asarray(values, dtype=float),
        source_series=idx,
        start=start,
        length=len(values),
        class_label=label,
    )


def test_transform_self_containment_zero(toy_train):
    s = make_shapelet(toy_train.X[3, 2:8], idx=3, start=2)
    fm = transform(toy_train, [s])
    assert fm.X[3, 0] == 0.0


def test_transform_shape_single_column(toy_train):
    fm = transform(toy_train, [make_shapelet(toy_train.X[0, :5])])
    assert fm.X.shape == (toy_train.n, 1)
    assert np.array_equal(fm.labels, toy_train.y)


def test_transform_matches_entrywise_recomputation():
    rng = np.random.default_rng(21)
    d = Dataset(X=rng.normal(size=(5, 18)), y=rng.integers(0, 2, size=5))
    shapelets = [make_shapelet(rng.normal(size=L)) for L in (4, 6, 6)]
    fm = transform(d, shapelets)
    for i in range(d.n):
        for j, s in enumerate(shapelets):
            want = naive_subsequence_dist(d.X[i], s.values)
            assert fm.X[i, j] == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_transform_column_independence():
    rng = np.random.default_rng(22)
    d = Dataset(X=rng.normal(size=(4, 16)), y=rng.integers(0, 2, size=4))
    a = [make_shapelet(rng.normal(size=5)) for _ in range(2)]
    b = [make_shapelet(rng.normal(size=7)) for _ in range(3)]
    combined = transform(d, a + b)
    separate = np.hstack([transform(d, a).X, transform(d, b).X])
    assert np.array_equal(combined.X, separate)


def test_transform_rejects_long_shapelet(toy_train):
    s = make_shapelet(np.zeros(toy_train.m + 1))
    with pytest.raises(ShapeletLongerThanSeriesError):
        transform(toy_train, [s])


def test_transform_entries_nonnegative_finite(toy_train):
    cands = generate_candidates(toy_train, MiningConfig(min_len=4, max_len=5))[:6]
    fm = transform(toy_train, cands)
    assert np.isfinite(fm.X).all()
    assert (fm.X >= 0).all()


def _fm(cols):
    X = np.asarray(cols, dtype=float).T
    return FeatureMatrix(
        X=X, labels=np.zeros(len(X), dtype=int), shapelet_ids=[f"c{i}" for i in range(X.shape[1])]
    )


def test_scaling_example_column():
    fm = _fm([[0.0, 2.0, 4.0]])
    scaled = apply_scaling(fm, fit_scaling(fm))
    assert scaled.X[:, 0].tolist() == [0.0, 0.5, 1.0]


def test_scaling_constant_column_to_zero():
    fm = _fm([[3.0, 3.0, 3.0]])
    scaled = apply_scaling(fm, fit_scaling(fm))
    assert scaled.X[:, 0].tolist() == [0.0, 0.0, 0.0]


def test_scaling_clamps_out_of_range():
    train = _fm([[0.0, 4.0]])
    scaling = fit_scaling(train)
    test = _fm([[9.0, -1.0]])
    scaled = apply_scaling(test, scaling)
    assert scaled.X[:, 0].tolist() == [1.0, 0.0]


def test_scaling_train_maps_into_unit_interval():
    rng = np.random.default_rng(5)
    fm = _fm([rng.uniform(-10, 10, size=12) for _ in range(4)])
    scaled = apply_scaling(fm, fit_scaling(fm))
    assert (scaled.X >= 0).all() and (scaled.X <= 1).all()
    assert scaled.scaling is not None


def test_write_features_csv_shape(toy_train):
    cands = generate_candidates(toy_train, MiningConfig(min_len=4, max_len=4))[:3]
    fm = transform(toy_train, cands)
    buf = io.StringIO()
    write_features(fm, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0].endswith(",label")
    assert len(lines) == toy_train.n + 1
