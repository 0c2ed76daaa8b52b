"""Experiment harness: baselines, stage timing, and report files.

run_experiment goes through the pipeline's one path: mine_graph and
_fit_from_graph, the two stages of fit, then predict_pipeline. It times them
as the three columns of the paper's runtime table: candidate_selection
(prepare, mine, and the diversity graph, which stores no edges),
diversified_selection (the greedy diversified top-k, the k sweep and the
final ELM fit) and classify (transform, scaling and ELM predict on the test
split). The greedy scans the mined graph once, for the kappa pool; the
sweep then runs on the graph of the pool alone, which the greedy keeps
whole. It reports the pipeline's accuracy next to an ELM on the raw series
and 1NN on the raw series and on the pool's transformed series.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import elm
from .dataset import Dataset, recode_labels
from .errors import KindMismatchError
from .graph import div_topk
from .pipeline import (
    PipelineConfig,
    PipelineModel,
    _fit_from_graph,
    mine_graph,
    predict_pipeline,
    prepare_series,
)
from .transform import FeatureMatrix, Scaling, transform


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
        head = ",".join(["dataset"] + keys + ["selected_k"])
        vals = [self.dataset] + [
            "" if self.accuracies[k] is None else format(self.accuracies[k], ".17g")
            for k in keys
        ] + ["" if self.selected_k is None else str(self.selected_k)]
        return head + "\n" + ",".join(vals) + "\n"

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


def _nn_predict(train_X: np.ndarray, train_y: np.ndarray, test_X: np.ndarray) -> np.ndarray:
    """1NN under squared euclidean distance; ties go to the lower train index."""
    d2 = (
        (test_X * test_X).sum(axis=1)[:, None]
        + (train_X * train_X).sum(axis=1)[None, :]
        - 2.0 * test_X @ train_X.T
    )
    return train_y[d2.argmin(axis=1)]


def baseline_1nn(train: Dataset | FeatureMatrix, test: Dataset | FeatureMatrix) -> float:
    """Nearest-neighbor accuracy on raw series or on transformed features."""
    if isinstance(train, Dataset) and isinstance(test, Dataset):
        tx, ty, vx, vy = train.X, train.y, test.X, test.y
    elif isinstance(train, FeatureMatrix) and isinstance(test, FeatureMatrix):
        tx, ty, vx, vy = train.X, train.labels, test.X, test.labels
    else:
        raise KindMismatchError("train and test must both be raw datasets or both feature matrices")
    if len(tx) == 0:
        raise ValueError("1NN needs a non-empty training set")
    pred = _nn_predict(np.asarray(tx, dtype=np.float64), ty, np.asarray(vx, dtype=np.float64))
    return float((pred == vy).mean())


def minmax_scale_raw(train: Dataset, test: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-timestep min-max scaling of raw series, fitted on train only."""
    scaling = Scaling.fit(train.X)
    return scaling.apply(train.X), scaling.apply(test.X)


def raw_elm_accuracy(train: Dataset, test: Dataset, cfg: elm.ELMConfig) -> float:
    """ELM trained directly on min-max-scaled raw series."""
    tr, te = minmax_scale_raw(train, test)
    model = elm.train(tr, train.y, cfg)
    return float((elm.predict(model, te) == test.y).mean())


def run_experiment(
    train: Dataset, test: Dataset, cfg: PipelineConfig | None = None, *, workers: int = 1
) -> tuple[ExperimentReport, PipelineModel]:
    """Fit and score the pipeline through fit's own stages, timing each,
    then run the baselines.

    Test labels are coded against the training labels first.
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
    kappa_pool = div_topk(graph, max(1, min(cfg.kappa, graph.n)))
    model = _fit_from_graph(dataclasses.replace(graph, vertices=kappa_pool), train_p, cfg)
    report.timings["diversified_selection"] = time.perf_counter() - t0
    report.selected_k = model.selected_k

    t0 = time.perf_counter()
    _, report.accuracies["divshap_elm"] = predict_pipeline(model, test)
    report.timings["classify"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    report.accuracies["raw_elm"] = raw_elm_accuracy(train, test, cfg.elm)
    report.timings["raw_elm_total"] = time.perf_counter() - t0

    report.accuracies["raw_1nn"] = baseline_1nn(train, test)

    tr_feats = transform(train_p, kappa_pool, cfg.distance)
    te_feats = transform(prepare_series(test, cfg), kappa_pool, cfg.distance)
    report.accuracies["transformed_1nn"] = baseline_1nn(tr_feats, te_feats)
    report.notes["transformed_1nn_k"] = len(kappa_pool)
    report.timings["total"] = time.perf_counter() - t_start
    return report, model


def sweep_csv(model: PipelineModel) -> str:
    """Per-k sweep curve as CSV (one row per evaluated k)."""
    lines = ["k,mean_accuracy,n_shapelets"]
    for row in model.k_sweep_report:
        lines.append(
            f"{row['k']},{format(row['mean_accuracy'], '.17g')},{row['n_shapelets']}"
        )
    return "\n".join(lines) + "\n"
