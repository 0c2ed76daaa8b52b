"""Seeded synthetic workloads for the divshap benchmark.

The generators are copies of the ``bump``/``xor`` formulas in the test
suite, taking a ``numpy`` seed sequence so that one ``--seed`` yields
independent training and held-out sets. Only the generated ``Dataset``s
reach the program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from divshap import Dataset

BUMP = np.array([0.0, 1.5, 2.5, 1.5, 0.0])
XOR_MOTIFS = (
    np.array([0.0, 1.0, 2.0, 3.0, 3.0, 2.0, 1.0, 0.0]) * 1.5,
    np.array([0.0, 2.0, 0.0, -2.0, 0.0, 2.0, 0.0, -2.0]) * 1.5,
)


def bump(seed, per_class: int, m: int, noise: float = 0.2) -> Dataset:
    """Class 1 carries an upward bump, class 2 a downward one, at a random offset."""
    rng = np.random.default_rng(seed)
    n = 2 * per_class
    y = np.array([1] * per_class + [2] * per_class)
    X = rng.normal(0.0, noise, (n, m))
    for i in range(n):
        off = rng.integers(2, m - len(BUMP) - 2)
        X[i, off : off + len(BUMP)] += BUMP if y[i] == 1 else -BUMP
    return Dataset(X=X, y=y, name="bump")


def xor(seed, per_cell: int, m: int, noise: float = 0.2) -> Dataset:
    """Class 1 carries exactly one of two motifs and class 2 none, so no
    single distance feature separates the classes."""
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    for motif in XOR_MOTIFS:
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


# Entropy of the one draw every run fits as its serving model, whatever the
# seed. Seeded draws use three-word entropy, so they never meet this one.
MODEL_DRAW = [2016, 5934]


@dataclass(frozen=True)
class Workload:
    """One benchmark input: generator, sizes and how many draws a run fits.

    ``timed`` is the operation the end-to-end loop repeats: ``fit`` or
    ``predict``. ``train_size``/``test_size``/``batch_size`` are the
    generator's per-class (bump) or per-cell (xor) counts for a training
    set, a held-out set and a predict batch.

    A seed yields ``draws`` predict batches and, for a fit workload, as many
    independent training sets, each with its own held-out set; each draw is
    one set-up. Fit metrics pool all draws, because accuracy and the
    selected shapelets vary with the draw far more than the program varies
    between runs. Predict batches are served by one
    model fitted on a fixed draw (``MODEL_DRAW``): the cost of predicting a
    series varies several-fold with the shapelets a draw selects, so a
    per-seed model would make predict latency follow the seed.
    """

    timed: str
    generator: str
    m: int
    train_size: int
    test_size: int
    batch_size: int
    draws: int

    def _gen(self, entropy, size: int) -> Dataset:
        return (bump if self.generator == "bump" else xor)(entropy, size, self.m)

    def make(self, seed: int, j: int) -> tuple[Dataset, Dataset]:
        """Training set of draw ``j`` and the held-out set that gives its accuracy."""
        return self._gen([seed, j, 0], self.train_size), self._gen([seed, j, 1], self.test_size)

    def model_data(self) -> tuple[Dataset, Dataset]:
        """Training and held-out set of the serving model; the same for every seed."""
        return self._gen(MODEL_DRAW + [0], self.train_size), self._gen(MODEL_DRAW + [1], self.test_size)

    def batch(self, seed: int, j: int) -> Dataset:
        """Predict batch ``j`` of the seed."""
        return self._gen([seed, j, 2], self.batch_size)


# Why each workload exists is recorded in NOTES.md.
WORKLOADS = {
    "fit-long": Workload("fit", "bump", 160, 5, 100, 25, draws=6),
    "fit-wide": Workload("fit", "bump", 48, 30, 100, 100, draws=6),
    "predict-batch": Workload("predict", "xor", 80, 8, 125, 125, draws=5),
}

# Same shapes at a size the smoke test can run in seconds.
TINY = {
    "fit-long": Workload("fit", "bump", 40, 3, 10, 10, draws=2),
    "fit-wide": Workload("fit", "bump", 24, 8, 10, 10, draws=2),
    "predict-batch": Workload("predict", "xor", 36, 4, 10, 10, draws=2),
}
