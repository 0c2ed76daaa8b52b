"""Shared fixtures: synthetic datasets, UCR file resolution and predict timing."""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest

from divshap import elm
from divshap.dataset import FLAT_STD, Dataset, read_ucr

REPO_ROOT = Path(__file__).resolve().parent.parent


def bump_dataset(
    seed: int = 0,
    per_class: int = 6,
    m: int = 24,
    noise: float = 0.2,
    name: str = "bump",
) -> Dataset:
    """Two classes distinguished by an upward vs downward bump at a random
    offset; the standard small corpus dataset for pipeline tests."""
    rng = np.random.default_rng(seed)
    n = 2 * per_class
    y = np.array([1] * per_class + [2] * per_class)
    X = rng.normal(0.0, noise, (n, m))
    shape = np.array([0.0, 1.5, 2.5, 1.5, 0.0])
    for i in range(n):
        off = rng.integers(2, m - len(shape) - 2)
        X[i, off : off + len(shape)] += shape if y[i] == 1 else -shape
    return Dataset(X=X, y=y, name=name)


def xor_dataset(seed: int = 0, per_cell: int = 4, m: int = 36, noise: float = 0.2) -> Dataset:
    """Class 1 carries exactly one of two motifs, class 2 carries none, so a
    single distance feature cannot separate the classes but two can."""
    rng = np.random.default_rng(seed)
    m1 = np.array([0.0, 1.0, 2.0, 3.0, 3.0, 2.0, 1.0, 0.0]) * 1.5
    m2 = np.array([0.0, 2.0, 0.0, -2.0, 0.0, 2.0, 0.0, -2.0]) * 1.5
    rows, labels = [], []
    for motif in (m1, m2):
        for _ in range(per_cell):
            row = rng.normal(0.0, noise, m)
            off = rng.integers(2, m - len(motif) - 2)
            row[off : off + len(motif)] += motif
            rows.append(row)
            labels.append(1)
    for _ in range(2 * per_cell):
        rows.append(rng.normal(0.0, noise, m))
        labels.append(2)
    return Dataset(X=np.array(rows), y=np.array(labels), name="xor")


def mean_std_znorm_rows(w: np.ndarray) -> np.ndarray:
    """Row z-normalization from numpy's own w.mean and w.std, the form
    znorm_rows must equal bit for bit."""
    mu = w.mean(axis=1, keepdims=True)
    sd = w.std(axis=1, keepdims=True)
    out = (w - mu) / np.where(sd < FLAT_STD, 1.0, sd)
    out[sd[:, 0] < FLAT_STD] = 0.0
    return out


def sliding_window_dists(t, s, cfg) -> np.ndarray:
    """Distance from s to every window of t, from sliding_window_view and
    mean_std_znorm_rows: its minimum is the pair_dists entry of (t, s), bit
    for bit, when s is no longer than t."""
    t = np.asarray(t, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    w = np.lib.stride_tricks.sliding_window_view(t, len(s))
    diff = mean_std_znorm_rows(w) - mean_std_znorm_rows(s[None, :]) if cfg.normalize_windows else w - s
    out = np.einsum("ij,ij->i", diff, diff)
    return out / len(s) if cfg.length_normalize else out


def time_predict(model: elm.ELMModel, X: np.ndarray, repetitions: int = 100) -> float:
    """Total wall-clock seconds for repeated predict calls on fixed inputs."""
    elm.predict(model, X)  # warm up
    t0 = time.perf_counter()
    for _ in range(repetitions):
        elm.predict(model, X)
    return time.perf_counter() - t0


@pytest.fixture
def toy_train() -> Dataset:
    return bump_dataset(seed=0)


@pytest.fixture
def toy_test() -> Dataset:
    return bump_dataset(seed=1, name="bump_test")


def ucr_data_dir() -> Path | None:
    """Directory with UCR flat files, if one is available."""
    env = os.environ.get("DIVSHAP_UCR_DIR")
    candidates = [Path(env)] if env else []
    candidates.append(REPO_ROOT / "data" / "ucr")
    for c in candidates:
        if c.is_dir():
            return c
    return None


def load_ucr_split(name: str) -> tuple[Dataset, Dataset] | None:
    """Load <name>_TRAIN/<name>_TEST flat files from the data directory.

    Returns None when the files are not present (offline environments).
    """
    root = ucr_data_dir()
    if root is None:
        return None
    for folder in (root, root / name):
        for ext in (".txt", ".tsv", ""):
            train = folder / f"{name}_TRAIN{ext}"
            test = folder / f"{name}_TEST{ext}"
            if train.is_file() and test.is_file():
                return read_ucr(train), read_ucr(test)
    return None


def require_ucr(name: str) -> tuple[Dataset, Dataset]:
    pair = load_ucr_split(name)
    if pair is None:
        pytest.skip(
            f"UCR dataset {name} not available: place {name}_TRAIN/{name}_TEST flat "
            f"files under data/ucr/ or point DIVSHAP_UCR_DIR at them"
        )
    return pair
