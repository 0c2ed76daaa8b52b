"""Correctness gate: fingerprints, the recorded reference and the scalar oracle.

A fit is fingerprinted by its selected k, the ids of its shapelets, a hash
of its held-out predictions and the held-out accuracy; a predict batch by a
hash of its predictions and its accuracy. Fingerprints are keyed by what
they describe: ``"model"`` (the serving model, the same for every seed), a
draw index, or ``"batch<j>"``. A recorded reference must be reproduced
exactly; without one, every operation must agree with the first passing one
on the same key. Every fitted model must also pass the oracle below.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import numpy as np

from divshap import best_split, fit, orderline, predict_pipeline
from divshap.graph import independence_violations

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# The batched mining kernel expands distances as |a|^2 + |b|^2 - 2ab while
# the oracle sums squared differences, so thresholds agree to rounding of
# O(L) terms; gains are entropy differences over identical counts.
THRESHOLD_RTOL = 1e-6
GAIN_ATOL = 1e-9


def predictions_hash(pred: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(pred, dtype=np.int64).tobytes()).hexdigest()[:16]


def fit_fingerprint(model, pred: np.ndarray, accuracy: float) -> dict:
    return {
        "selected_k": int(model.selected_k),
        "shapelet_ids": [s.id for s in model.shapelets],
        "predictions_sha256": predictions_hash(pred),
        "test_accuracy": float(accuracy),
    }


def batch_fingerprint(pred: np.ndarray, accuracy: float) -> dict:
    return {"predictions_sha256": predictions_hash(pred), "test_accuracy": float(accuracy)}


def load_reference(workload: str, seed: int) -> dict:
    """Recorded fingerprints that apply to (workload, seed), by key.

    The serving model's applies to every seed; the draws' and batches' only
    to the seed they were recorded for.
    """
    entry = json.loads(REFERENCE_PATH.read_text()).get(workload)
    if entry is None:
        return {}
    out = {"model": entry["model"]}
    if entry["seed"] == seed:
        out.update({int(k) if k.isdigit() else k: v for k, v in entry["fingerprints"].items()})
    return out


def mismatch(got: dict, want: dict) -> str | None:
    """Name the first key that ``got`` and ``want`` disagree on."""
    for key, value in want.items():
        if key in got and got[key] != value:
            return f"{key}: got {got[key]!r}, want {value!r}"
    return None


def oracle_errors(model, train) -> list[str]:
    """Re-score every selected shapelet with the scalar orderline/best_split
    and check that the selection is independent in the diversity graph."""
    cfg = model.config.distance
    errors = []
    for s in model.shapelets:
        thr, gain, _ = best_split(orderline(s, train, cfg))
        if abs(thr - s.split_threshold) > THRESHOLD_RTOL * max(1.0, abs(thr)):
            errors.append(f"{s.id}: threshold {s.split_threshold!r} vs oracle {thr!r}")
        if abs(gain - s.gain) > GAIN_ATOL:
            errors.append(f"{s.id}: gain {s.gain!r} vs oracle {gain!r}")
    bad = independence_violations(model.shapelets, cfg, model.config.same_class_only)
    if bad:
        errors.append(f"selected shapelets not independent: {bad}")
    return errors


def checked_fit(gate, key, train, test):
    """Time one ``fit``, predict its held-out set and check the result.

    Returns (model, held-out predictions, fit seconds).
    """
    t = time.perf_counter()
    model = fit(train)
    seconds = time.perf_counter() - t
    pred, acc = predict_pipeline(model, test)
    gate.check(key, fit_fingerprint(model, pred, acc), oracle_errors(model, train))
    return model, pred, seconds


class Gate:
    """Counts checked operations and the ones that failed.

    The expected fingerprint of a key is the recorded reference when there
    is one, otherwise the first passing operation's on that key.
    """

    def __init__(self, reference: dict | None):
        self.reference_used = sorted(map(str, reference or {}))
        self.expected: dict = {k: dict(fp) for k, fp in (reference or {}).items()}
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, key, got: dict | None = None, errors: list[str] = ()) -> None:
        errors = list(errors)
        if got is not None:
            want = self.expected.setdefault(key, {})
            if (diff := mismatch(got, want)) is not None:
                errors.append(f"{key}: {diff}")
            elif not errors:
                for key, value in got.items():
                    want.setdefault(key, value)
        self.attempted += 1
        if errors:
            self.failures.append("; ".join(errors))

    def raised(self, exc: Exception) -> None:
        self.attempted += 1
        self.failures.append(f"{type(exc).__name__}: {exc}")

    @property
    def failed(self) -> int:
        return len(self.failures)
