"""Per-layer metrics, timed around calls into each layer's public functions.

``fit`` is replayed from public calls (mine_shapelets -> build_graph ->
select_k -> transform/fit_scaling/apply_scaling -> elm.train), each call in
its own span, and must select what ``fit`` itself selected. Every timed
div_topk/select_k call gets a fresh graph, because ``DiversityGraph`` caches
pair results. Counters come from wrapping public functions (``similar``,
``elm.train``) for the duration of one call; timings of the same layer are
taken in separate, unwrapped calls.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
import tracemalloc
import warnings
from collections import Counter
from contextlib import contextmanager

import numpy as np

import divshap.elm as elm_mod
import divshap.graph as graph_mod
from checks import checked_fit
from divshap import (
    PipelineConfig,
    apply_scaling,
    build_graph,
    div_topk,
    fit_scaling,
    generate_candidates,
    mine_shapelets,
    predict_pipeline,
    select_k,
    transform,
)

BATCH_REPEATS = 20  # transform/predict spans are medians over this many batches
LENGTH_REPEATS = 3  # single-length mining rates are medians over this many runs
DGEMM_N = 1024
DGEMM_REPEATS = 5

UNITS = {
    "mining.generate_s": "s",
    "mining.candidates": "count",
    "mining.mine_s": "s",
    "mining.score_order_s": "s",
    "mining.cands_per_s.lo": "1/s",
    "mining.cands_per_s.mid": "1/s",
    "mining.cands_per_s.hi": "1/s",
    "mining.gflops": "GFLOP/s",
    "mining.gemm_frac": "ratio",
    "mining.peak_mb": "MB",
    "graph.divtopk_s": "s",
    "graph.scan_depth": "count",
    "graph.read_ratio": "ratio",
    "graph.pair_checks": "count",
    "graph.pair_check_us": "us",
    "graph.edge_ratio": "ratio",
    "sweep.select_k_s": "s",
    "sweep.elm_fits": "count",
    "sweep.fold_fallbacks": "count",
    "sweep.selected_k": "count",
    "transform.fit_s": "s",
    "transform.batch_s": "s",
    "transform.cells_per_s": "1/s",
    "transform.peak_mb": "MB",
    "elm.train_s": "s",
    "elm.predict_s": "s",
    "trace.coverage": "ratio",
}


class Spans:
    """In-memory spans (name, parent, start, end) on one clock."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.records: list[dict] = []
        self._stack: list[str] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.records.append(
                {"name": name, "parent": parent, "start": start - self.t0, "end": end - self.t0}
            )

    def seconds(self, name: str) -> float:
        """Median duration of the spans called ``name``."""
        return statistics.median(r["end"] - r["start"] for r in self.records if r["name"] == name)


@contextmanager
def wrapped(module, attr: str, counter: Counter, key: str):
    """Count calls to ``module.attr``, their time and truthy results."""
    original = getattr(module, attr)

    def counting(*args, **kwargs):
        t = time.perf_counter()
        out = original(*args, **kwargs)
        counter[key + ".seconds"] += time.perf_counter() - t
        counter[key + ".calls"] += 1
        counter[key + ".true"] += bool(out)
        return out

    setattr(module, attr, counting)
    try:
        yield
    finally:
        setattr(module, attr, original)


def traced_peak_mb(call) -> tuple[object, float]:
    """Run ``call`` under tracemalloc; return its result and the peak in MB."""
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak / 2**20


def window_cells(m: int, shapelets) -> int:
    """Distance work of transforming one series: window count times length, summed."""
    return sum((m - s.length + 1) * s.length for s in shapelets)


def trace_workload(wl, seed: int, gate) -> tuple[dict, dict]:
    """Replay the fit of the workload's timed data (draw 0, or the serving
    model's data on a predict workload) and the serving model's predict path."""
    cfg = PipelineConfig()
    key = 0 if wl.timed == "fit" else "model"
    train, test = wl.make(seed, 0) if wl.timed == "fit" else wl.model_data()
    spans = Spans()
    counts: Counter = Counter()

    # Untraced end-to-end reference for the replay check and for coverage.
    model, pred, fit_s = checked_fit(gate, key, train, test)
    ids = [s.id for s in model.shapelets]

    # Replay of fit from public calls.
    mining_cfg = dataclasses.replace(cfg.mining, normalize=cfg.distance)
    with spans.span("mining.generate"):
        candidates = generate_candidates(train, mining_cfg)
    with spans.span("fit"):
        with spans.span("mining.mine"):
            mined = mine_shapelets(train, mining_cfg)
        with spans.span("graph.build"):
            graph = build_graph(mined, cfg.distance, same_class_only=cfg.same_class_only, lazy=True)
        with (
            wrapped(elm_mod, "train", counts, "elm.train"),
            warnings.catch_warnings(record=True) as caught,
            spans.span("sweep.select_k"),
        ):
            warnings.simplefilter("always")
            k, chosen, _ = select_k(graph, train, cfg)
        with spans.span("transform.fit"):
            feats = transform(train, chosen, cfg.distance)
            scaling = fit_scaling(feats)
            scaled = apply_scaling(feats, scaling)
        with spans.span("elm.train"):
            elm_model = elm_mod.train(scaled.X, train.y, cfg.elm)
    replay_pred = elm_mod.predict(
        elm_model, apply_scaling(transform(test, chosen, cfg.distance), scaling).X
    )
    replay_errors = []
    if [s.id for s in chosen] != ids or k != model.selected_k:
        replay_errors.append(f"replay selected {[s.id for s in chosen]}, fit selected {ids}")
    if not np.array_equal(replay_pred, pred):
        replay_errors.append("replayed model predicts differently from fit")
    gate.check(key, errors=replay_errors)

    # The greedy scan on fresh graphs: once for time, once wrapped for counts.
    kappa = max(1, min(cfg.kappa, len(mined)))
    fresh = build_graph(mined, cfg.distance, same_class_only=cfg.same_class_only, lazy=True)
    with spans.span("graph.divtopk"):
        pool = div_topk(fresh, kappa)
    fresh = build_graph(mined, cfg.distance, same_class_only=cfg.same_class_only, lazy=True)
    with wrapped(graph_mod, "similar", counts, "similar"):
        counted_pool = div_topk(fresh, kappa)
    if len(pool) < kappa:
        scan_depth = len(mined)
    else:
        scan_depth = next(i for i, s in enumerate(mined) if s is pool[-1]) + 1
    gate.check(
        key,
        errors=[]
        if [s.id for s in pool] == [s.id for s in counted_pool] and pool[:k] == chosen
        else ["div_topk on a fresh graph disagrees with select_k's pool"]
    )

    # Mining throughput at single lengths, and the window join's computed rate.
    lo, hi = mining_cfg.band(train.m)
    rates = {}
    for tag, L in (("lo", lo), ("mid", (lo + hi) // 2), ("hi", hi)):
        single = dataclasses.replace(mining_cfg, min_len=L, max_len=L)
        times, n_out = [], 0
        for _ in range(LENGTH_REPEATS):
            t = time.perf_counter()
            n_out = len(mine_shapelets(train, single))
            times.append(time.perf_counter() - t)
        rates[tag] = n_out / statistics.median(times)
    per_length = Counter(c.length for c in candidates)
    join_flops = sum(2.0 * L * c * train.n * (train.m - L + 1) for L, c in per_length.items())
    score_s = spans.seconds("mining.mine") - spans.seconds("mining.generate")
    gflops = join_flops / score_s / 1e9
    dgemm_gflops = dgemm_rate()

    # Peak traced memory of a second mining run, which must repeat the first.
    mined_again, mining_peak = traced_peak_mb(lambda: mine_shapelets(train, mining_cfg))
    gate.check(
        key,
        errors=[]
        if [(s.id, s.gain, s.gap) for s in mined_again] == [(s.id, s.gain, s.gap) for s in mined]
        else ["mined order differs between two runs"]
    )
    del mined_again, candidates

    # Predict path of the serving model on batch 0, layer by layer.
    if wl.timed == "fit":
        model, _, _ = checked_fit(gate, "model", *wl.model_data())
    batch = wl.batch(seed, 0)
    cells = batch.n * window_cells(batch.m, model.shapelets)
    predict_times = []
    for _ in range(BATCH_REPEATS):
        t = time.perf_counter()
        predict_pipeline(model, batch)
        predict_times.append(time.perf_counter() - t)
        with spans.span("transform.batch"):
            feats = transform(batch, model.shapelets, model.config.distance)
        with spans.span("transform.scale"):
            feats = apply_scaling(feats, model.scaling)
        with spans.span("elm.predict"):
            elm_mod.predict(model.elm_model, feats.X)
    _, transform_peak = traced_peak_mb(lambda: transform(batch, model.shapelets, model.config.distance))

    if wl.timed == "fit":
        top = ["mining.mine", "graph.build", "sweep.select_k", "transform.fit", "elm.train"]
        coverage = sum(spans.seconds(n) for n in top) / fit_s
    else:
        top = ["transform.batch", "transform.scale", "elm.predict"]
        coverage = sum(spans.seconds(n) for n in top) / statistics.median(predict_times)

    pair_checks = counts["similar.calls"]
    values = {
        "mining.generate_s": spans.seconds("mining.generate"),
        "mining.candidates": len(mined),
        "mining.mine_s": spans.seconds("mining.mine"),
        "mining.score_order_s": score_s,
        "mining.cands_per_s.lo": rates["lo"],
        "mining.cands_per_s.mid": rates["mid"],
        "mining.cands_per_s.hi": rates["hi"],
        "mining.gflops": gflops,
        "mining.gemm_frac": gflops / dgemm_gflops,
        "mining.peak_mb": mining_peak,
        "graph.divtopk_s": spans.seconds("graph.divtopk"),
        "graph.scan_depth": scan_depth,
        "graph.read_ratio": scan_depth / len(mined),
        "graph.pair_checks": pair_checks,
        "graph.pair_check_us": 1e6 * counts["similar.seconds"] / pair_checks if pair_checks else 0.0,
        "graph.edge_ratio": counts["similar.true"] / pair_checks if pair_checks else 0.0,
        "sweep.select_k_s": spans.seconds("sweep.select_k"),
        "sweep.elm_fits": counts["elm.train.calls"],
        "sweep.fold_fallbacks": len(caught),
        "sweep.selected_k": k,
        "transform.fit_s": spans.seconds("transform.fit"),
        "transform.batch_s": spans.seconds("transform.batch"),
        "transform.cells_per_s": cells / spans.seconds("transform.batch"),
        "transform.peak_mb": transform_peak,
        "elm.train_s": spans.seconds("elm.train"),
        "elm.predict_s": spans.seconds("elm.predict"),
        "trace.coverage": coverage,
    }
    extra = {
        "untraced_fit_s": fit_s,
        "untraced_predict_s": statistics.median(predict_times),
        "batch": {"n": batch.n, "window_cells": cells},
        "computed": ["mining.gflops", "mining.gemm_frac"],
        "join_flops": join_flops,
        "dgemm_gflops": dgemm_gflops,
        "dgemm_n": DGEMM_N,
        "fold_fallback_messages": sorted({str(w.message) for w in caught}),
        "spans": spans.records,
    }
    return {name: (v, UNITS[name]) for name, v in values.items()}, extra


def dgemm_rate() -> float:
    """Median GFLOP/s of an N x N float64 matrix product."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((DGEMM_N, DGEMM_N))
    b = rng.standard_normal((DGEMM_N, DGEMM_N))
    times = []
    for _ in range(DGEMM_REPEATS):
        t = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t)
    return 2.0 * DGEMM_N**3 / statistics.median(times) / 1e9
