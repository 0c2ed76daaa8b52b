import json
import math

import numpy as np
import pytest

from divshap import elm
from divshap.errors import (
    DimensionMismatchError,
    InvalidConfigError,
    NumericalFailureError,
    SingleClassTrainingError,
)


def test_hidden_output_zero_weights_sigmoid():
    h = elm.HiddenLayer(W=np.zeros((3, 2)), b=np.zeros(3), activation="sigmoid", seed=0)
    H = elm.hidden_output(h, np.array([[1.0, -2.0], [0.5, 0.5]]))
    assert np.all(H == 0.5)


def test_hidden_output_single_node():
    h = elm.HiddenLayer(W=np.array([[1.0]]), b=np.zeros(1), activation="sigmoid", seed=0)
    assert elm.hidden_output(h, np.array([[0.0]]))[0, 0] == 0.5


def test_hidden_output_matches_scalar_recomputation():
    rng = np.random.default_rng(12)
    h = elm.random_hidden_layer(n_features=4, n_hidden=6, seed=3)
    X = rng.normal(size=(5, 4))
    H = elm.hidden_output(h, X)
    for j in range(5):
        for i in range(6):
            z = float(np.dot(h.W[i], X[j]) + h.b[i])
            want = 1.0 / (1.0 + math.exp(-z))
            assert H[j, i] == pytest.approx(want, abs=1e-12)


def test_hidden_output_dimension_mismatch():
    h = elm.random_hidden_layer(n_features=4, n_hidden=6, seed=3)
    with pytest.raises(DimensionMismatchError):
        elm.hidden_output(h, np.zeros((2, 5)))


def test_hidden_layer_draw_is_uniform_seeded():
    a = elm.random_hidden_layer(3, 5, seed=9)
    b = elm.random_hidden_layer(3, 5, seed=9)
    assert np.array_equal(a.W, b.W) and np.array_equal(a.b, b.b)
    assert np.abs(a.W).max() <= 1.0 and np.abs(a.b).max() <= 1.0


def test_pinv_identity():
    T = np.array([[1.0, 2.0], [3.0, 4.0]])
    beta = elm.pinv_solve(np.eye(2), T)
    assert np.allclose(beta, T, atol=1e-12)


def test_pinv_inconsistent_mean():
    beta = elm.pinv_solve(np.array([[1.0], [1.0]]), np.array([[0.0], [2.0]]))
    assert beta[0, 0] == pytest.approx(1.0)


def test_pinv_normal_equations_hold():
    rng = np.random.default_rng(0)
    for _ in range(25):
        H = rng.normal(size=(6, 4))
        T = rng.normal(size=(6, 3))
        beta = elm.pinv_solve(H, T)
        res = H.T @ H @ beta - H.T @ T
        assert np.abs(res).max() <= 1e-8


def test_pinv_least_squares_optimal_under_perturbation():
    rng = np.random.default_rng(1)
    H = rng.normal(size=(8, 5))
    T = rng.normal(size=(8, 2))
    beta = elm.pinv_solve(H, T)
    base = np.linalg.norm(H @ beta - T)
    for _ in range(20):
        step = rng.normal(size=beta.shape)
        step *= 1e-3 / np.linalg.norm(step)
        assert np.linalg.norm(H @ (beta + step) - T) >= base - 1e-10


def test_pinv_ridge_shrinks_solution():
    rng = np.random.default_rng(2)
    H = rng.normal(size=(10, 6))
    T = rng.normal(size=(10, 3))
    lams = [0.0, 1e-4, 1e-2, 1.0, 100.0]
    norms = [np.linalg.norm(elm.pinv_solve(H, T, lam)) for lam in lams]
    for small, large in zip(norms, norms[1:]):
        assert small >= large - 1e-12


@pytest.mark.parametrize("ridge", [0.0, 1e-6])
def test_pinv_non_finite_input_raises_typed_error(ridge, capfd):
    # ridge 0 used to reach LAPACK, which printed DLASCL errors before failing
    rng = np.random.default_rng(3)
    H = rng.normal(size=(6, 4))
    T = rng.normal(size=(6, 2))
    for bad_H, bad_T in ((np.where(np.eye(6, 4) > 0, np.nan, H), T), (H, np.where(np.eye(6, 2) > 0, np.inf, T))):
        with pytest.raises(NumericalFailureError, match="finite"):
            elm.pinv_solve(bad_H, bad_T, ridge)
    assert capfd.readouterr().err == ""


def test_train_interpolates_two_points():
    X = np.array([[0.0], [1.0]])
    y = np.array([0, 1])
    model = elm.train(X, y, elm.ELMConfig(n_hidden=2, seed=0, ridge=0.0))
    T = np.eye(2)
    out = elm.decision_values(model, X)
    assert np.abs(out - T).max() <= 1e-6
    assert np.array_equal(elm.predict(model, X), y)


def test_train_conflicting_duplicates_compromise():
    X = np.array([[1.0, 0.0], [1.0, 0.0]])
    y = np.array([0, 1])
    model = elm.train(X, y, elm.ELMConfig(n_hidden=4, seed=1))
    out = elm.decision_values(model, X)
    # identical rows get identical least-squares outputs
    assert np.allclose(out[0], out[1])


def test_train_deterministic_bitwise():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(10, 4))
    y = rng.integers(0, 3, size=10)
    y[:3] = [0, 1, 2]
    a = elm.train(X, y, elm.ELMConfig(seed=7))
    b = elm.train(X, y, elm.ELMConfig(seed=7))
    assert np.array_equal(a.beta, b.beta)
    assert np.array_equal(a.hidden.W, b.hidden.W)


def test_train_single_class_rejected():
    with pytest.raises(SingleClassTrainingError):
        elm.train(np.zeros((3, 2)), np.array([1, 1, 1]))


def test_predict_zero_beta_ties_to_first_class():
    model = elm.train(
        np.array([[0.0], [1.0]]), np.array([3, 5]), elm.ELMConfig(n_hidden=2, seed=0)
    )
    zeroed = elm.ELMModel(
        hidden=model.hidden,
        beta=np.zeros_like(model.beta),
        codebook=model.codebook,
        ridge=model.ridge,
    )
    pred = elm.predict(zeroed, np.array([[0.3], [0.9]]))
    assert np.all(pred == 3)


def test_predict_argmax_scale_invariance():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(12, 3))
    y = rng.integers(0, 2, size=12)
    y[:2] = [0, 1]
    model = elm.train(X, y, elm.ELMConfig(seed=5))
    scaled = elm.ELMModel(
        hidden=model.hidden, beta=3.0 * model.beta, codebook=model.codebook, ridge=model.ridge
    )
    assert np.array_equal(elm.predict(model, X), elm.predict(scaled, X))


@pytest.mark.parametrize("n", [5, 20, 50])
def test_interpolation_capability(n):
    # width = sample count, no ridge: one-hot targets reproduced
    ok = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 3))
        y = np.arange(n) % 2
        model = elm.train(X, y, elm.ELMConfig(n_hidden=n, seed=seed, ridge=0.0))
        T = (y[:, None] == model.codebook[None, :]).astype(float)
        err = np.abs(elm.decision_values(model, X) - T).max()
        if err <= 1e-4:
            ok += 1
    assert ok >= 19


def test_model_dict_roundtrip():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(8, 3))
    y = rng.integers(0, 2, size=8)
    y[:2] = [0, 1]
    model = elm.train(X, y, elm.ELMConfig(seed=11))
    loaded = elm.model_from_dict(json.loads(json.dumps(elm.model_to_dict(model))))
    assert np.array_equal(elm.predict(model, X), elm.predict(loaded, X))
    assert np.array_equal(model.beta, loaded.beta)


def test_sigmoid_in_place_matches_the_clip_expression_bit_for_bit():
    """The sigmoid computes in its argument's array; every value, past the
    clamp at |z| = 500, at it, at zero of either sign and in between, is the
    bits of 1 / (1 + exp(-clip(z, -500, 500)))."""
    rng = np.random.default_rng(4)
    edges = [-1e300, -1000.0, -500.5, -500.0, -499.9, -0.0, 0.0, 499.9, 500.0, 500.5, 1000.0, 1e300]
    z = np.concatenate([rng.normal(scale=20.0, size=197), rng.uniform(-2e3, 2e3, size=47), edges]).reshape(16, 16)
    want = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
    given = z.copy()
    got = elm.ACTIVATIONS["sigmoid"](given)
    assert got is given
    assert got.tobytes() == want.tobytes()
    h = elm.random_hidden_layer(16, 7, seed=3)
    X = 40.0 * z
    assert elm.hidden_output(h, X).tobytes() == (1.0 / (1.0 + np.exp(-np.clip(X @ h.W.T + h.b, -500, 500)))).tobytes()


def test_activations_tanh_hardlimit():
    h = elm.HiddenLayer(W=np.array([[2.0]]), b=np.array([-1.0]), activation="tanh", seed=0)
    assert elm.hidden_output(h, np.array([[0.5]]))[0, 0] == pytest.approx(0.0)
    h = elm.HiddenLayer(W=np.array([[2.0]]), b=np.array([-1.0]), activation="hardlimit", seed=0)
    assert elm.hidden_output(h, np.array([[0.5]]))[0, 0] == 1.0
    assert elm.hidden_output(h, np.array([[0.4]]))[0, 0] == 0.0


@pytest.mark.parametrize(
    "bad",
    [
        dict(activation="relu"),
        dict(n_hidden=-3),
        dict(n_hidden=0),
        dict(ridge=math.inf),
        dict(ridge=-1.0),
        dict(ridge=math.nan),
        dict(n_hidden=2.5),
        dict(n_hidden=True),
        dict(seed=-1),
        dict(seed=1.5),
    ],
)
def test_elm_config_rejects_unknown_activation_and_width_below_one(bad):
    """Before, these failed only in training: deep inside
    random_hidden_layer, or with numpy's "negative dimensions", a TypeError
    or a ValueError. A bad ridge trained without error: inf gave chance
    accuracy, and -1 or nan took the unregularized path."""
    with pytest.raises(InvalidConfigError):
        elm.ELMConfig(**bad)


@pytest.mark.parametrize("ridge", ["x", None, [1.0], 1j])
def test_elm_config_rejects_a_ridge_that_is_not_a_real_number(ridge):
    """Before, np.isfinite raised a bare TypeError on these."""
    with pytest.raises(InvalidConfigError, match="ridge"):
        elm.ELMConfig(ridge=ridge)


def test_hidden_layer_rejects_unknown_activation_when_built():
    """Before, such a layer was built and failed only in hidden_output."""
    with pytest.raises(InvalidConfigError):
        elm.HiddenLayer(W=np.array([[2.0]]), b=np.array([-1.0]), activation="relu", seed=0)
