"""Extreme learning machine: random hidden layer, analytic output solve.

The hidden layer weights and biases are drawn once from a seeded uniform
distribution and never tuned; training reduces to the least-squares solve
of H beta = T, where H is the hidden-layer output matrix and T the one-hot
target matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidConfigError,
    NumericalFailureError,
    SingleClassTrainingError,
)

ACTIVATIONS = {
    "sigmoid": lambda z: 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500))),
    "tanh": np.tanh,
    "hardlimit": lambda z: (z >= 0).astype(np.float64),
}


@dataclass(frozen=True)
class ELMConfig:
    """Hidden-layer width (None = auto), activation tag, seed, ridge term.

    The auto width is min(N, max(20, 2 * n_features)) so small transformed
    feature spaces keep the solve well conditioned. An activation outside
    ACTIVATIONS, a width below 1, or a ridge that is negative or not finite
    raises InvalidConfigError.
    """

    n_hidden: int | None = None
    activation: str = "sigmoid"
    seed: int = 0
    ridge: float = 1e-6

    def __post_init__(self) -> None:
        if self.activation not in ACTIVATIONS:
            raise InvalidConfigError(f"ELM activation must be one of {tuple(ACTIVATIONS)}, got {self.activation!r}")
        if self.n_hidden is not None and self.n_hidden < 1:
            raise InvalidConfigError(f"ELM hidden width must be at least 1, got {self.n_hidden}")
        if not (np.isfinite(self.ridge) and self.ridge >= 0.0):
            raise InvalidConfigError(f"ELM ridge must be finite and at least 0, got {self.ridge}")


@dataclass(frozen=True)
class HiddenLayer:
    """Fixed random input weights W (n_hidden, n_features), biases b and an
    activation of ACTIVATIONS; another activation raises InvalidConfigError."""

    W: np.ndarray
    b: np.ndarray
    activation: str
    seed: int

    def __post_init__(self) -> None:
        if self.activation not in ACTIVATIONS:
            raise InvalidConfigError(f"unknown ELM activation {self.activation!r}")


@dataclass(frozen=True)
class ELMModel:
    hidden: HiddenLayer
    beta: np.ndarray
    codebook: np.ndarray  # column j of beta scores class codebook[j]
    ridge: float


def random_hidden_layer(n_features: int, n_hidden: int, activation: str = "sigmoid", seed: int = 0) -> HiddenLayer:
    """Draw W then b i.i.d. uniform on [-1, 1] from the seeded generator."""
    rng = np.random.default_rng(seed)
    W = rng.uniform(-1.0, 1.0, size=(n_hidden, n_features))
    b = rng.uniform(-1.0, 1.0, size=n_hidden)
    return HiddenLayer(W=W, b=b, activation=activation, seed=seed)


def hidden_output(h: HiddenLayer, X: np.ndarray) -> np.ndarray:
    """Hidden-layer output matrix: entry (j, i) = g(w_i . x_j + b_i)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != h.W.shape[1]:
        raise DimensionMismatchError(
            f"{X.shape[1]} input features, layer expects {h.W.shape[1]}"
        )
    return ACTIVATIONS[h.activation](X @ h.W.T + h.b)


def pinv_solve(H: np.ndarray, T: np.ndarray, ridge: float = 0.0) -> np.ndarray:
    """Solve H beta = T in the least-squares sense.

    ridge == 0 gives the minimum-norm solution through a rank-revealing SVD
    (the Moore-Penrose pseudoinverse applied to T); ridge > 0 solves the
    regularized normal equations instead. A non-finite entry in H or T
    raises NumericalFailureError on either path.
    """
    H = np.asarray(H, dtype=np.float64)
    T = np.asarray(T, dtype=np.float64)
    if H.shape[0] != T.shape[0]:
        raise DimensionMismatchError(f"H has {H.shape[0]} rows, T has {T.shape[0]}")
    if not (np.isfinite(H).all() and np.isfinite(T).all()):
        raise NumericalFailureError("H and T must be finite")
    try:
        if ridge > 0.0:
            A = H.T @ H + ridge * np.eye(H.shape[1])
            return np.linalg.solve(A, H.T @ T)
        beta, *_ = np.linalg.lstsq(H, T, rcond=None)
        return beta
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(str(exc)) from exc


def train(X: np.ndarray, labels: np.ndarray, cfg: ELMConfig = ELMConfig()) -> ELMModel:
    """Fit an ELM: one-hot targets, random hidden layer, analytic beta."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    labels = np.asarray(labels)
    codebook = np.unique(labels)
    if len(codebook) < 2:
        raise SingleClassTrainingError("training labels contain a single class")
    n_hidden = cfg.n_hidden or min(X.shape[0], max(20, 2 * X.shape[1]))
    h = random_hidden_layer(X.shape[1], n_hidden, cfg.activation, cfg.seed)
    T = (labels[:, None] == codebook[None, :]).astype(np.float64)
    beta = pinv_solve(hidden_output(h, X), T, cfg.ridge)
    return ELMModel(hidden=h, beta=beta, codebook=codebook, ridge=cfg.ridge)


def decision_values(model: ELMModel, X: np.ndarray) -> np.ndarray:
    """Raw output-layer scores, one column per codebook class."""
    return hidden_output(model.hidden, X) @ model.beta


def predict(model: ELMModel, X: np.ndarray) -> np.ndarray:
    """Argmax decode; ties resolve to the lowest codebook column."""
    if len(X) == 0:
        return np.asarray([], dtype=model.codebook.dtype)
    return model.codebook[decision_values(model, X).argmax(axis=1)]


def model_to_dict(model: ELMModel) -> dict:
    return {
        "seed": model.hidden.seed,
        "activation": model.hidden.activation,
        "ridge": model.ridge,
        "W": model.hidden.W.tolist(),
        "b": model.hidden.b.tolist(),
        "beta": model.beta.tolist(),
        "codebook": [int(c) for c in model.codebook],
    }


def model_from_dict(d: dict) -> ELMModel:
    hidden = HiddenLayer(
        W=np.asarray(d["W"], dtype=np.float64),
        b=np.asarray(d["b"], dtype=np.float64),
        activation=d["activation"],
        seed=int(d["seed"]),
    )
    return ELMModel(
        hidden=hidden,
        beta=np.asarray(d["beta"], dtype=np.float64),
        codebook=np.asarray(d["codebook"], dtype=np.int64),
        ridge=float(d["ridge"]),
    )
