"""The benchmark's per-layer replay of fit, at tiny sizes.

benchmark/run.py imports benchmark/traced.py even when tracing is off, and
traced.py replays fit from public calls: the lazy keyword of build_graph,
the 3-tuple of select_k, MiningConfig.normalize, fit_scaling/apply_scaling,
the X field of what transform returns (transform(...).X) and the
module-level graph.similar, which it wraps to count pair checks. A change
to any of those names breaks the benchmark, and this test shows it.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


@pytest.mark.parametrize("workload", ["fit-long", "fit-wide", "predict-batch"])
def test_tiny_per_layer_replay_passes_its_checks(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK))
    run = importlib.import_module("run")
    result, _ = run.run(workload, 0, 0.0, True, tiny=True)
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["graph.pair_checks"]["value"] > 0
