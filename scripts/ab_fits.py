"""In-process interleaved fits of two checkouts, draw by draw.

    python3 scripts/ab_fits.py PARENT CHANGE --workload fit-wide --reps 5 [--tiny]

Copies each checkout's ``src/divshap`` into a temporary directory under its
own package name (``divshap_parent``, ``divshap_change``) and imports both
into this one process; nothing is written under either checkout. The
training sets are the workload's seed-0 draws (for predict-batch, the
serving model's training set), generated once by CHANGE's
``benchmark/workloads.py`` (``--tiny``: at the smoke test's sizes); each side
fits its own ``Dataset`` of the same arrays with ``fit`` and library
defaults. Each repetition fits every draw once on each side, and which side
goes first alternates with each draw and repetition. As in the benchmark,
BLAS runs one thread unless ``OPENBLAS_NUM_THREADS`` says otherwise, and the
process is pinned to one CPU.

It prints one line per draw, with each side's least and median fit time,
then the ratio of the change's sums of those to the parent's. A slow spell of
the machine falls on both sides of interleaved fits, while in benchmark
pairs it can take a pair from either side (the same parent has read 2.13 to
3.45 s, summing its per-draw bests, in consecutive runs), so this sizes a
change in minutes. It does not replace ``scripts/ab_pairs.py``, which runs
the benchmark itself.
"""

from __future__ import annotations

import argparse
import importlib
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")


def load_sides(checkouts: dict, tmp: Path) -> dict:
    """Each side's copy of divshap, imported as divshap_<side> from tmp."""
    sys.path.insert(0, str(tmp))
    sides = {}
    for side, root in checkouts.items():
        shutil.copytree(root / "src" / "divshap", tmp / f"divshap_{side}", ignore=shutil.ignore_patterns("__pycache__"))
        sides[side] = importlib.import_module(f"divshap_{side}")
    return sides


def draws(benchmark: Path, workload: str, tiny: bool, divshap) -> list:
    """(X, y) of each training set of the workload at seed 0. workloads.py
    imports Dataset from divshap, and gets the copy given here."""
    sys.modules["divshap"] = divshap
    sys.path.insert(0, str(benchmark))
    from workloads import TINY, WORKLOADS

    wl = (TINY if tiny else WORKLOADS)[workload]
    sets = [wl.model_data()[0]] if wl.timed == "predict" else [wl.make(0, j)[0] for j in range(wl.draws)]
    return [(d.X, d.y) for d in sets]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--tiny", action="store_true", help="the smoke test's sizes")
    args = p.parse_args(argv)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read when numpy loads
    sys.dont_write_bytecode = True
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with tempfile.TemporaryDirectory() as tmp:
        sides = load_sides({"parent": args.parent.resolve(), "change": args.change.resolve()}, Path(tmp))
        arrays = draws(args.change.resolve() / "benchmark", args.workload, args.tiny, sides["change"])
        data = {s: [sides[s].Dataset(X=X.copy(), y=y.copy()) for X, y in arrays] for s in SIDES}
        times = {s: [[] for _ in arrays] for s in SIDES}
        for s in SIDES:
            sides[s].fit(data[s][0])  # warm up
        for rep in range(args.reps):
            for d in range(len(arrays)):
                for s in SIDES if (rep + d) % 2 == 0 else SIDES[::-1]:
                    t = time.perf_counter()
                    sides[s].fit(data[s][d])
                    times[s][d].append(time.perf_counter() - t)
    sums = {s: [0.0, 0.0] for s in SIDES}
    print(f"{args.workload}, {args.reps} reps: fit s, min / median")
    for d in range(len(arrays)):
        cells = []
        for s in SIDES:
            low, mid = min(times[s][d]), statistics.median(times[s][d])
            sums[s][0] += low
            sums[s][1] += mid
            cells.append(f"{s} {low:.4f} / {mid:.4f}")
        print(f"draw {d}: " + "  ".join(cells), flush=True)
    (pl, pm), (cl, cm) = sums["parent"], sums["change"]
    print(f"sum: parent {pl:.4f} / {pm:.4f}  change {cl:.4f} / {cm:.4f}  ratio {cl / pl:.3f} / {cm / pm:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
