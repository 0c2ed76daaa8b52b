import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_does_not_load_scipy_stats():
    """scipy costs most of the time and memory of importing divshap (about a
    second and tens of MB for scipy.stats), and nothing in divshap needs it."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, divshap; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "False"
