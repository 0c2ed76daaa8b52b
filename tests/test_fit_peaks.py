import importlib.util
import re
import subprocess
import sys
import tracemalloc

from conftest import REPO_ROOT, bump_dataset

spec = importlib.util.spec_from_file_location("fit_peaks", REPO_ROOT / "scripts" / "fit_peaks.py")
fit_peaks = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fit_peaks)


def test_peak_line_gives_the_set_name_and_its_peak_in_mib():
    assert fit_peaks.peak_line("fit-long/draw0", int(19.29 * 2**20)) == "fit-long/draw0 peak_mib=19.29"
    assert fit_peaks.peak_line("fit-wide/model", 2**20 // 200) == "fit-wide/model peak_mib=0.00"
    assert fit_peaks.peak_line("predict-batch/model", 7 * 2**21) == "predict-batch/model peak_mib=14.00"


def test_fit_peak_is_a_traced_peak_and_stops_tracing():
    d = bump_dataset(seed=0, per_class=6, m=30)
    peak = fit_peaks.fit_peak(d)
    assert not tracemalloc.is_tracing()
    assert d.X.nbytes < peak < 2**30


def test_one_line_per_training_set_of_mined_hashes():
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "fit_peaks.py"), str(REPO_ROOT), "--tiny"],
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    lines = done.stdout.splitlines()
    draws = [f"{w}/draw{j}" for w in ("fit-long", "fit-wide") for j in range(6)]
    assert [line.split()[0] for line in lines] == draws + ["fit-long/model", "fit-wide/model", "predict-batch/model"]
    assert all(re.fullmatch(r"\S+ peak_mib=\d+\.\d\d", line) for line in lines)
