"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest benchmark/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_appears_with_its_unit(workload, trace):
    result, _ = run.run(workload, 0, 0.0, trace, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units("per_layer" if trace else "end_to_end")
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_raises_error_rate(workload):
    _, report = run.run(workload, 0, 0.0, False, tiny=True)
    good = report["fingerprint"]
    result, report = run.run(workload, 0, 0.0, False, tiny=True, reference=good)
    assert report["reference_used"] and result["failed"] == 0

    model = good["model"]
    bad = dict(good, model=dict(model, shapelet_ids=["s0_0_3"] * model["selected_k"]))
    result, report = run.run(workload, 0, 0.0, False, tiny=True, reference=bad)
    assert report["error_rate"] > 0 and not result["correct"]


def test_cli_prints_result_as_last_line():
    out = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "fit-wide", "--seed", "3",
         "--seconds", "0", "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]


def test_cli_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "fit-wide", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0 and out.stdout == ""
