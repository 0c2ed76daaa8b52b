"""Hashes of what one checkout mines, selects, saves and predicts, one line per training set.

    python3 scripts/mined_hashes.py CHECKOUT [--tiny]

Imports ``divshap`` from ``CHECKOUT/src`` and the benchmark's generators from
``CHECKOUT/benchmark/workloads.py``, which it only reads. The 15 training sets
are the seed-0 draws 0-5 of fit-long and fit-wide and the serving-model
training set of each of the three workloads (``--tiny``: the same sets at the
smoke test's sizes). Each set is mined and fitted as ``fit`` does, with
library defaults, and its line gives the sha256 of:

- ``mined``: the bytes of the mined ``CandidateTable``'s columns (source,
  start, length, threshold, gain, gap), in table order;
- ``selected``: the ids of the selected shapelets;
- ``pool``: the ids of the kappa pool that ``select_k`` sweeps, from the
  greedy scan that ``select_k`` calls (``batch_div_topk``, or ``div_topk`` in
  a checkout without it) on the fitted graph; ``selected`` is its first k;
- ``model``: the model JSON that ``save_pipeline`` writes;
- ``prefix``: the ids and the hex threshold, gain and gap of the first
  ``PREFIX_ROWS`` rows of a fresh ``mine_shapelets`` table, read before
  anything scores the whole table, so it checks the rows a reader gets
  from the pruned scoring, where ``mined`` checks the whole table;
- ``edges``: the edges ``DiversityGraph.edges`` gives on the first
  ``GRAPH_TOP`` mined rows, the graph ``graph-dump`` writes at its default
  ``--top``;
- ``oracle``: the ids of the selected shapelets and the float bits of each
  one's ``orderline`` over the training set, as the benchmark's oracle check
  (``benchmark/checks.py``) computes them;
- ``features`` (serving-model lines only): the ``transform`` features and the
  ``predict_pipeline`` predictions of each of the workload's seed-0 predict
  batches, in batch order;
- ``raw_features`` (serving-model lines only): the ``transform`` features of
  the same batches and shapelets with raw windows
  (``DistanceConfig(normalize_windows=False)``), in batch order;
- ``raw_mined`` (serving-model lines only): the bytes of the columns of the
  table that ``mine_shapelets`` mines from the same series with raw windows,
  in table order.

Two checkouts mine, select, save and predict bit for bit alike when their
outputs are equal, e.g. ``diff <(python3 scripts/mined_hashes.py PARENT)
<(python3 scripts/mined_hashes.py CHANGE)``. ``OPENBLAS_NUM_THREADS`` applies
as it does to any fit.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import sys
from pathlib import Path

PREFIX_ROWS = 2000
GRAPH_TOP = 200


def training_sets(workloads) -> list[tuple[str, object, list]]:
    """(name, training Dataset, predict batches) of the 15 sets, in print
    order; only a serving model has predict batches."""
    sets = []
    for name in ("fit-long", "fit-wide"):
        sets += [(f"{name}/draw{j}", workloads[name].make(0, j)[0], []) for j in range(6)]
    for name, wl in workloads.items():
        sets.append((f"{name}/model", wl.model_data()[0], [wl.batch(0, j) for j in range(wl.draws)]))
    return sets


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def columns_digest(table) -> str:
    """The digest of a mined table's columns, in table order."""
    return digest(b"".join(c.tobytes() for c in table.columns))


def prefix_digest(table) -> str:
    """The digest of the first PREFIX_ROWS rows of a table, read as rows."""
    rows = table[:PREFIX_ROWS]
    text = "\n".join(f"{s.id} {s.split_threshold.hex()} {s.gain.hex()} {s.gap.hex()}" for s in rows)
    return digest(text.encode())


def oracle_digest(model, train) -> str:
    """The digest of the orderline of each selected shapelet, in selection
    order: distances as hex floats, with their class labels."""
    from divshap import orderline

    lines = []
    for s in model.shapelets:
        ol = orderline(s, train, model.config.distance)
        lines.append(" ".join([s.id] + [f"{d.hex()},{y}" for d, y in ol]))
    return digest("\n".join(lines).encode())


def set_hashes(train, batches: list) -> dict[str, str]:
    """The hashes of one training set, features included when it has predict
    batches."""
    from divshap import DistanceConfig, PipelineConfig, mine_shapelets, pipeline, predict_pipeline, save_pipeline
    from divshap.pipeline import _fit_from_graph, mine_graph, prepare_series
    from divshap.transform import transform

    # fit is mine_graph then _fit_from_graph; calling the two stages keeps
    # the mined table without mining twice
    cfg = PipelineConfig()
    prepared, graph = mine_graph(train, cfg)
    model = _fit_from_graph(graph, prepared, cfg)
    scan = getattr(pipeline, "batch_div_topk", None) or pipeline.div_topk
    saved = io.StringIO()
    save_pipeline(model, saved)
    hashes = {
        "mined": columns_digest(graph.vertices),
        "selected": digest("\n".join(s.id for s in model.shapelets).encode()),
        "pool": digest("\n".join(s.id for s in scan(graph, cfg.kappa)).encode()),
        "model": digest(saved.getvalue().encode()),
        "prefix": prefix_digest(mine_shapelets(prepared, dataclasses.replace(cfg.mining, normalize=cfg.distance))),
        "edges": digest(str(dataclasses.replace(graph, vertices=graph.vertices[:GRAPH_TOP]).edges()).encode()),
        "oracle": oracle_digest(model, train),
    }
    if batches:
        # the features predict_pipeline classifies: transform of the series
        # as the model prepares them
        series = [prepare_series(b, cfg) for b in batches]
        served = [
            (transform(s, model.shapelets, cfg.distance).X, predict_pipeline(model, b)[0])
            for s, b in zip(series, batches)
        ]
        hashes["features"] = digest(b"".join(a.tobytes() for pair in served for a in pair))
        raw = DistanceConfig(normalize_windows=False)
        hashes["raw_features"] = digest(b"".join(transform(s, model.shapelets, raw).X.tobytes() for s in series))
        hashes["raw_mined"] = columns_digest(mine_shapelets(prepared, dataclasses.replace(cfg.mining, normalize=raw)))
    return hashes


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("checkout", type=Path)
    p.add_argument("--tiny", action="store_true", help="the smoke test's sizes")
    args = p.parse_args(argv)
    root = args.checkout.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "benchmark")]
    from workloads import TINY, WORKLOADS

    for name, train, batches in training_sets(TINY if args.tiny else WORKLOADS):
        hashes = set_hashes(train, batches)
        print(name, *(f"{k}={v}" for k, v in hashes.items()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
