"""Tracemalloc peak of one fit of each training set of one checkout, one line per set.

    python3 scripts/fit_peaks.py CHECKOUT [--tiny]

Imports ``divshap`` from ``CHECKOUT/src`` and the benchmark's generators from
``CHECKOUT/benchmark/workloads.py``, which it only reads. The 15 training sets
are those of ``scripts/mined_hashes.py``: the seed-0 draws 0-5 of fit-long and
fit-wide and the serving-model training set of each of the three workloads
(``--tiny``: the same sets at the smoke test's sizes). Each set is fitted once
with ``fit`` and library defaults (``PipelineConfig()``, one worker) under
``tracemalloc``, after one untraced fit of the first set, so that imports and
caches filled on first use stay out of every peak. Its line gives that fit's
peak of traced memory in MiB (``peak_mib``), i.e. what numpy and Python
allocate, not the process's resident size.

Compare two checkouts with ``paste <(python3 scripts/fit_peaks.py PARENT)
<(python3 scripts/fit_peaks.py CHANGE)``. ``OPENBLAS_NUM_THREADS`` applies as
it does to any fit.
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc
from pathlib import Path


def peak_line(name: str, peak: int) -> str:
    """The printed line of a set whose fit peaked at peak bytes."""
    return f"{name} peak_mib={peak / 2**20:.2f}"


def fit_peak(train) -> int:
    """Bytes of the tracemalloc peak of one fit of train."""
    from divshap import PipelineConfig, fit

    tracemalloc.start()
    try:
        fit(train, PipelineConfig())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("checkout", type=Path)
    p.add_argument("--tiny", action="store_true", help="the smoke test's sizes")
    args = p.parse_args(argv)
    root = args.checkout.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "benchmark"), str(Path(__file__).resolve().parent)]
    from mined_hashes import training_sets
    from workloads import TINY, WORKLOADS

    from divshap import PipelineConfig, fit

    sets = training_sets(TINY if args.tiny else WORKLOADS)
    fit(sets[0][1], PipelineConfig())  # warm up
    for name, train, _ in sets:
        print(peak_line(name, fit_peak(train)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
