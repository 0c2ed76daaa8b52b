"""Outside-in benchmark for divshap: fit and predict end to end, per layer on request.

Run from the root of a checkout:

    python3 benchmark/run.py --workload fit-long --seed 0 --seconds 25 --trace 0

The program under test is the ``divshap`` package in ``src/`` of the same
checkout, called only through its public functions with library defaults
(``PipelineConfig()``, ``workers=1``), with one OpenBLAS thread unless
``OPENBLAS_NUM_THREADS`` says otherwise, pinned to one CPU. ``--trace 0``
times the workload's operation and prints the end-to-end metrics;
``--trace 1`` replays ``fit`` layer by layer from public calls and prints
the per-layer metrics. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full report,
stamped with the machine and library versions, goes to
``.bench_out/BENCH_<workload>[.trace].json``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

DEFAULT_SEED = 0
IMPORT_REPEATS = 3  # the import part of setup_s is a median over fresh interpreters
MIN_FITS = 5  # timed fits per run, after one warm-up fit
MIN_PREDICTS = 400  # p90 then has at least forty samples above it

UNITS = {
    "fit_s": "s",
    "predict_p50_s": "s",
    "predict_p90_s": "s",
    "test_accuracy": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "success_rate": "ratio",
}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["fit-long", "fit-wide", "predict-batch"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes; no reference applies")
    p.add_argument(
        "--record-reference",
        action="store_true",
        help="run once and store the fingerprints as the workload's reference for --seed",
    )
    args = p.parse_args(argv)
    # One BLAS thread unless the caller sets another count: on a small shared
    # machine two OpenBLAS threads made the same fit vary by +-30% between
    # repeats, against about +-10% with one. Set before numpy is imported.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # One CPU for the whole single-threaded run: left free to move between
    # the two vCPUs of a shared host, the p90/p50 ratio of predict latency
    # was higher and varied more from one fit's predicts to the next.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if not (SRC / "divshap" / "__init__.py").is_file():
        print(f"divshap sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_reference:
        record_reference(args.workload, args.seed)
        return 0
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace), tiny=args.tiny)
    OUT_DIR.mkdir(exist_ok=True)
    suffix = ".trace" if args.trace else ""
    (OUT_DIR / f"BENCH_{args.workload}{suffix}.json").write_text(json.dumps(report, indent=1))
    for name, m in result["metrics"].items():
        print(f"{name:<28} {m['value']:>14.6g} {m['unit']}")
    for failure in report["failures"][:5]:
        print(f"FAILED: {failure}")
    print("stamp: " + json.dumps(report["stamp"], sort_keys=True))
    print(json.dumps(result))
    return 0


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    tiny: bool = False,
    reference: dict | None = None,
) -> tuple[dict, dict]:
    """Run one workload and return (result line, full report).

    ``reference`` maps fingerprint keys to expected fingerprints and
    overrides reference.json, which applies to full-size runs only.
    """
    import checks
    import traced
    from workloads import TINY, WORKLOADS

    wl = (TINY if tiny else WORKLOADS)[workload]
    if reference is None and not tiny:
        reference = checks.load_reference(workload, seed)
    gate = checks.Gate(reference)
    if trace:
        metrics, extra = traced.trace_workload(wl, seed, gate)
    else:
        metrics, extra = end_to_end(wl, seed, seconds, gate)
    if gate.attempted == gate.failed:
        raise SystemExit(f"every operation failed: {gate.failures[:3]}")

    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    report = {
        "workload": workload,
        "trace": trace,
        "tiny": tiny,
        "stamp": stamp(seed),
        "reference_used": gate.reference_used,
        "fingerprint": gate.expected,
        "error_rate": gate.failed / gate.attempted,
        "failures": gate.failures,
        **result,
        **extra,
    }
    return result, report


def end_to_end(wl, seed: int, seconds: float, gate) -> tuple[dict, dict]:
    """Untraced run: set up, time the workload's operation, check every result."""
    from checks import batch_fingerprint, checked_fit
    from divshap import predict_pipeline

    data, models, batches = {}, {}, {}

    def fit_op(key):
        try:
            models[key], _, dt = checked_fit(gate, key, *data[key])
            return dt
        except Exception as exc:  # a failed operation is counted, not fatal
            gate.raised(exc)
            return None

    def predict_op(j):
        try:
            t = time.perf_counter()
            pred, acc = predict_pipeline(models["model"], batches[j])
            dt = time.perf_counter() - t
            gate.check(f"batch{j}", batch_fingerprint(pred, acc))
            return dt
        except Exception as exc:
            gate.raised(exc)
            return None

    import_s = statistics.median(timed_imports())
    setups, fit_times, latencies = [], [], []
    for j in range(wl.draws):
        t = time.perf_counter()
        batches[j] = wl.batch(seed, j)
        if wl.timed == "fit":
            data[j] = wl.make(seed, j)
        else:
            # the serving model and one warm-up batch are set-up for a predict workload
            data["model"] = wl.model_data()
            dt = fit_op("model")
            if dt is not None:
                fit_times.append(dt)
                predict_op(j)
        setups.append(time.perf_counter() - t)

    start = time.perf_counter()
    if wl.timed == "fit":
        data["model"] = wl.model_data()
        fit_op("model")  # warm-up; its model serves the predict batches
    if "model" not in models:
        raise SystemExit(f"serving model fit failed: {gate.failures[:3]}")
    if wl.timed == "fit":
        # predicts are spread over the run, so they meet the same machine spells as fits
        per_fit = -(-MIN_PREDICTS // wl.draws)
        i = 0
        # every draw once and draw 0 twice, so a repeat fit checks agreement
        while i <= wl.draws or time.perf_counter() - start < seconds:
            dt = fit_op(i % wl.draws)
            if dt is not None:
                fit_times.append(dt)
            for _ in range(per_fit):
                dt = predict_op(len(latencies) % wl.draws)
                if dt is not None:
                    latencies.append(dt)
            i += 1
    while len(latencies) < MIN_PREDICTS or (
        wl.timed == "predict" and time.perf_counter() - start < seconds
    ):
        dt = predict_op(len(latencies) % wl.draws)
        if dt is not None:
            latencies.append(dt)
    if not fit_times or not latencies:
        raise SystemExit(f"no timed operation succeeded: {gate.failures[:3]}")

    # accuracy of what the timed operation produced: each draw's model, or the batches
    keys = range(wl.draws) if wl.timed == "fit" else [f"batch{j}" for j in range(wl.draws)]
    accuracies = [gate.expected[k]["test_accuracy"] for k in keys if k in gate.expected]
    metrics = {
        "fit_s": statistics.median(fit_times),
        "predict_p50_s": statistics.median(latencies),
        "predict_p90_s": statistics.quantiles(latencies, n=10)[-1],
        "test_accuracy": statistics.fmean(accuracies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": import_s + statistics.median(setups),
        "success_rate": 1.0 - gate.failed / gate.attempted,
    }
    extra = {
        "samples": {"fits": len(fit_times), "predict_batches": len(latencies), "setups": len(setups)},
        "fit_times_s": fit_times,
        "predict_times_s": latencies,
        "setup_times_s": setups,
        "import_s": import_s,
        "accuracies": accuracies,
        "sizes": {
            "train_n": data["model"][0].n,
            "test_n": data["model"][1].n,
            "batch_n": batches[0].n,
            "m": wl.m,
            "draws": wl.draws,
        },
    }
    return {name: (v, UNITS[name]) for name, v in metrics.items()}, extra


def timed_imports() -> list[float]:
    """Wall time of importing divshap in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import divshap"], env=env, check=True, timeout=120)
        times.append(time.perf_counter() - t)
    return times


def record_reference(workload: str, seed: int) -> None:
    """Run the workload at full size and store its fingerprints as the
    reference: the serving model's for every seed, the rest for ``seed``."""
    import checks

    result, report = run(workload, seed, 0.0, False, reference={})
    if not result["correct"]:
        raise SystemExit(f"run failed its checks, not recording: {report['failures'][:3]}")
    fingerprints = {str(k): v for k, v in report["fingerprint"].items()}
    refs = json.loads(checks.REFERENCE_PATH.read_text()) if checks.REFERENCE_PATH.exists() else {}
    refs[workload] = {
        "model": fingerprints.pop("model"),
        "seed": seed,
        "fingerprints": fingerprints,
    }
    checks.REFERENCE_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(json.dumps(refs[workload]))


def stamp(seed: int) -> dict:
    """Where and with what the numbers were taken."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": sorted(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "seed": seed,
        "workers": 1,
    }


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, by library file name."""
    out = {}
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return out
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
