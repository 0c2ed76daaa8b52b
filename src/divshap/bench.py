"""Experiment harness: baselines, stage timing, and report files.

run_experiment goes through the pipeline's one path: mine_graph and
_fit_from_graph, the two stages of fit, then predict_pipeline. It times them
as the three columns of the paper's runtime table: candidate_selection
(prepare, the first pass of mining, which bounds every candidate's gain
from a subset of the series, and the diversity graph, which stores no
edges), diversified_selection (the greedy diversified top-k, which scores
in full the candidates it reaches, the k sweep and the final ELM fit) and
classify (transform, scaling and ELM predict on the test split). The
greedy (batch_div_topk, the batched scan fit runs; div_topk is its scalar
reference) scans the mined graph once, for the kappa pool; the sweep then
runs on the graph of the pool alone, which the greedy keeps whole. It reports
the pipeline's accuracy next to an ELM on the raw series and 1NN on the raw
series and on the pool's transformed series.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import elm
from .dataset import Dataset, csv_line, recode_labels
from .errors import EmptyInputError
from .graph import batch_div_topk
from .pipeline import (
    PipelineConfig,
    PipelineModel,
    _fit_from_graph,
    mine_graph,
    predict_pipeline,
    prepare_series,
)
from .transform import Scaling, transform


@dataclass
class ExperimentReport:
    """Accuracies, phase timings (seconds), and configuration echo."""

    dataset: str
    accuracies: dict[str, float | None] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    selected_k: int | None = None
    seeds: dict[str, int] = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=1, sort_keys=True)

    def accuracy_csv(self) -> str:
        keys = sorted(self.accuracies)
        values = [self.accuracies[k] for k in keys]
        return csv_line(["dataset", *keys, "selected_k"]) + csv_line([self.dataset, *values, self.selected_k])

    def table(self) -> str:
        lines = [f"dataset: {self.dataset}"]
        if self.selected_k is not None:
            lines.append(f"selected_k: {self.selected_k}")
        for k in sorted(self.accuracies):
            v = self.accuracies[k]
            lines.append(f"  {k:<18} {'-' if v is None else f'{v:.4f}'}")
        for k in sorted(self.timings):
            lines.append(f"  {k + ' [s]':<24} {self.timings[k]:.4f}")
        return "\n".join(lines)


def _accuracy(pred: np.ndarray, y: np.ndarray) -> float | None:
    """Share of pred equal to y; None for no rows, as in predict_pipeline."""
    return float((pred == y).mean()) if len(y) else None


def baseline_1nn(train_X: np.ndarray, train_y: np.ndarray, test_X: np.ndarray, test_y: np.ndarray) -> float | None:
    """1NN accuracy on rows of raw series or of features, under squared
    euclidean distance; ties go to the lower training row, and no test rows
    give None. No training rows raises EmptyInputError. Both sides are
    first divided by the power of two that brings the largest |value| below
    1: the squares stay finite, even of features that are squared
    distances, and, the division being exact, no nearest row moves."""
    if len(train_X) == 0:
        raise EmptyInputError("1NN needs a non-empty training set")
    tx, vx = np.asarray(train_X, dtype=np.float64), np.asarray(test_X, dtype=np.float64)
    _, e = np.frexp(max(np.abs(tx).max(initial=0.0), np.abs(vx).max(initial=0.0)))
    tx, vx = np.ldexp(tx, -e), np.ldexp(vx, -e)
    d2 = (vx * vx).sum(axis=1)[:, None] + (tx * tx).sum(axis=1)[None, :] - 2.0 * vx @ tx.T
    return _accuracy(train_y[d2.argmin(axis=1)], test_y)


def raw_elm_accuracy(train: Dataset, test: Dataset, cfg: elm.ELMConfig) -> float | None:
    """ELM trained directly on raw series, min-max scaled per timestep on
    the training split; None for an empty test split."""
    scaling = Scaling.fit(train.X)
    model = elm.train(scaling.apply(train.X), train.y, cfg)
    return _accuracy(elm.predict(model, scaling.apply(test.X)), test.y)


def run_experiment(
    train: Dataset, test: Dataset, cfg: PipelineConfig | None = None, *, workers: int = 1
) -> tuple[ExperimentReport, PipelineModel]:
    """Fit and score the pipeline through fit's own stages, timing each,
    then run the baselines.

    The kappa pool comes from batch_div_topk, the scan fit runs, so the
    timed diversified selection is fit's; div_topk, the scalar reference,
    would select the same pool. Test labels are coded against the training
    labels first.
    """
    cfg = cfg or PipelineConfig()
    test = recode_labels(test, train.label_names)
    report = ExperimentReport(dataset=train.name or "train")
    report.config = dataclasses.asdict(cfg)
    report.seeds = {"elm": cfg.elm.seed, "evaluation": cfg.evaluation.seed}
    t_start = time.perf_counter()

    t0 = time.perf_counter()
    train_p, graph = mine_graph(train, cfg, workers=workers)
    report.timings["candidate_selection"] = time.perf_counter() - t0
    report.notes["n_candidates"] = graph.n

    t0 = time.perf_counter()
    kappa_pool = batch_div_topk(graph, cfg.kappa)
    model = _fit_from_graph(dataclasses.replace(graph, vertices=kappa_pool), train_p, cfg)
    report.timings["diversified_selection"] = time.perf_counter() - t0
    report.selected_k = model.selected_k

    t0 = time.perf_counter()
    _, report.accuracies["divshap_elm"] = predict_pipeline(model, test)
    report.timings["classify"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    report.accuracies["raw_elm"] = raw_elm_accuracy(train, test, cfg.elm)
    report.timings["raw_elm_total"] = time.perf_counter() - t0

    report.accuracies["raw_1nn"] = baseline_1nn(train.X, train.y, test.X, test.y)

    tr_feats = transform(train_p, kappa_pool, cfg.distance).X
    te_feats = transform(prepare_series(test, cfg), kappa_pool, cfg.distance).X
    report.accuracies["transformed_1nn"] = baseline_1nn(tr_feats, train.y, te_feats, test.y)
    report.notes["transformed_1nn_k"] = len(kappa_pool)
    report.timings["total"] = time.perf_counter() - t_start
    return report, model


def sweep_csv(model: PipelineModel) -> str:
    """Per-k sweep curve as CSV (one row per evaluated k)."""
    columns = ["k", "mean_accuracy", "n_shapelets"]
    return csv_line(columns) + "".join(csv_line([row[c] for c in columns]) for row in model.k_sweep_report)
