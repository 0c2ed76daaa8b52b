"""Work counts of one fit of each training set of one checkout, one line per set.

    python3 scripts/work_counts.py CHECKOUT [--tiny]

Imports ``divshap`` from ``CHECKOUT/src`` and the benchmark's generators from
``CHECKOUT/benchmark/workloads.py``, which it only reads. The 15 training sets
are those of ``scripts/mined_hashes.py``: the seed-0 draws 0-5 of fit-long and
fit-wide and the serving-model training set of each of the three workloads
(``--tiny``: the same sets at the smoke test's sizes). Each set is fitted once
as ``fit`` fits it (``mine_graph`` then ``_fit_from_graph``, library
defaults, one worker), with these kernels wrapped to count what goes
through them, after the first pass the mined table took:

- ``first``: the series of mining's first pass (``_PrunedScoring.first``):
  ``none`` for no first pass (every candidate measured and split at mine
  time), ``all`` for every series (each candidate keyed to its exact gain),
  or their count (a quarter of each class, which bounds each gain);
- ``scored`` and ``measured``: (query, series) cells through mining's
  ``nearest_window_scores`` (pick scores only) and ``nearest_window_dists``
  (picked and measured);
- ``split``: rows through ``mining._batch_best_split``, i.e. candidates
  scored in full;
- ``rounds``: completion rounds, the calls of ``_PrunedScoring.advance`` past
  the first, which mining makes itself;
- ``certified``: rows of the mined table certified when the fit ends;
- ``pairs``: (u, v) pairs through ``graph.pair_dists``, the greedy scan's
  pair distances.

Every name wrapped exists in every checkout since the pick-score first pass,
so ``diff <(python3 scripts/work_counts.py PARENT) <(python3
scripts/work_counts.py CHANGE)`` shows where two checkouts' fits do different
work. The counts do not depend on timing, nor on ``OPENBLAS_NUM_THREADS``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

COUNTS = ("first", "scored", "measured", "split", "rounds", "certified", "pairs")


def counted_fit(train) -> dict[str, int | str]:
    """{count name: count} of one fit of train, in COUNTS order; first is
    a word or a count."""
    from divshap import PipelineConfig, graph, mining
    from divshap.pipeline import _fit_from_graph, mine_graph

    counts = dict.fromkeys(COUNTS, 0)
    advances = []

    def wrap(module, name, count):
        kernel = getattr(module, name)

        def counted(*args, **kwargs):
            count(*args, **kwargs)
            return kernel(*args, **kwargs)

        setattr(module, name, counted)
        return module, name, kernel

    def add(name, amount):
        counts[name] += amount

    wrapped = [
        wrap(mining, "nearest_window_scores", lambda q, w, *_: add("scored", len(q) * len(w.scan))),
        wrap(mining, "nearest_window_dists", lambda q, w, *_: add("measured", len(q) * len(w.scan))),
        wrap(mining, "_batch_best_split", lambda dist, *_: add("split", len(dist))),
        wrap(graph, "pair_dists", lambda us, vs, *_: add("pairs", len(us) * len(vs))),
        wrap(mining._PrunedScoring, "advance", lambda self, *_, **__: advances.append(self)),
    ]
    try:
        cfg = PipelineConfig()
        prepared, mined = mine_graph(train, cfg)
        first = mined.vertices._pending.first
        _fit_from_graph(mined, prepared, cfg)
    finally:
        for module, name, kernel in wrapped:
            setattr(module, name, kernel)
    counts["first"] = "none" if first is None else "all" if len(first) == train.n else len(first)
    counts["rounds"] = len(advances) - len(set(map(id, advances)))
    counts["certified"] = len(mined.vertices._order)
    return counts


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("checkout", type=Path)
    p.add_argument("--tiny", action="store_true", help="the smoke test's sizes")
    args = p.parse_args(argv)
    root = args.checkout.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "benchmark"), str(Path(__file__).resolve().parent)]
    from mined_hashes import training_sets
    from workloads import TINY, WORKLOADS

    for name, train, _ in training_sets(TINY if args.tiny else WORKLOADS):
        print(name, *(f"{k}={v}" for k, v in counted_fit(train).items()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
