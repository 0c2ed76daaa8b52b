"""scripts/ab_fits.py at the smoke test's sizes, with this repository as
both sides."""

from __future__ import annotations

import subprocess
import sys

import pytest

from conftest import REPO_ROOT

SCRIPT = REPO_ROOT / "scripts" / "ab_fits.py"


@pytest.mark.parametrize("workload, draws", [("fit-wide", 2), ("predict-batch", 1)])
def test_ab_fits_prints_one_line_per_draw_and_the_ratio_of_sums(workload, draws):
    """A fit workload gives one line per tiny draw, predict-batch one for
    its serving set; each line holds both sides' least and median times."""
    done = subprocess.run(
        [sys.executable, str(SCRIPT), str(REPO_ROOT), str(REPO_ROOT), "--workload", workload, "--reps", "2", "--tiny"],
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    lines = done.stdout.splitlines()
    assert lines[0] == f"{workload}, 2 reps: fit s, min / median"
    assert [line.split(":")[0] for line in lines[1:-1]] == [f"draw {d}" for d in range(draws)]
    for line in lines[1:-1]:
        _, _, parent, low, _, mid, change, low2, _, mid2 = line.split()
        assert (parent, change) == ("parent", "change")
        assert 0 < float(low) <= float(mid) and 0 < float(low2) <= float(mid2)
    assert lines[-1].startswith("sum: parent ") and " ratio " in lines[-1]
