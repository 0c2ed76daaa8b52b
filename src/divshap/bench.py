"""Experiment harness: baselines, phase timing, and report files.

Reproduces the reporting structure of the accuracy and runtime comparisons:
raw-series ELM vs the shapelet pipeline, 1NN on raw series vs 1NN on
transformed features, and per-phase wall-clock timings.
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
from .graph import build_graph, div_topk
from .mining import mine_shapelets
from .pipeline import PipelineConfig, PipelineModel, _fit_from_graph, prepare_series
from .transform import FeatureMatrix, Scaling, apply_scaling, transform


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
    train: Dataset,
    test: Dataset | None,
    cfg: PipelineConfig | None = None,
    *,
    workers: int = 1,
    mode: str = "compare",
) -> tuple[ExperimentReport, PipelineModel]:
    """Run the pipeline with per-phase timing plus the baselines.

    mode "compare" fills all four accuracy fields against the test split;
    mode "sweep" stops after k selection (the report carries the per-k
    curve through the returned model's sweep report). Test labels are
    coded against the training labels first.
    """
    cfg = cfg or PipelineConfig()
    if test is not None:
        test = recode_labels(test, train.label_names)
    report = ExperimentReport(dataset=train.name or "train")
    report.config = dataclasses.asdict(cfg)
    report.seeds = {"elm": cfg.elm.seed, "evaluation": cfg.evaluation.seed}
    t_start = time.perf_counter()
    train_p = prepare_series(train, cfg)
    test_p = prepare_series(test, cfg) if test is not None else None

    t0 = time.perf_counter()
    mining_cfg = dataclasses.replace(cfg.mining, normalize=cfg.distance)
    all_shapelets = mine_shapelets(train_p, mining_cfg, workers=workers)
    report.timings["candidate_selection"] = time.perf_counter() - t0
    report.notes["n_candidates"] = len(all_shapelets)

    t0 = time.perf_counter()
    graph = build_graph(
        all_shapelets, cfg.distance, same_class_only=cfg.same_class_only, lazy=True
    )
    model = _fit_from_graph(graph, train_p, cfg)
    report.timings["diversified_selection"] = time.perf_counter() - t0
    report.selected_k = model.selected_k

    if mode == "sweep" or test_p is None:
        report.timings["total"] = time.perf_counter() - t_start
        return report, model

    t0 = time.perf_counter()
    test_feats = apply_scaling(
        transform(test_p, model.shapelets, cfg.distance), model.scaling
    )
    report.timings["transform"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    pred = elm.predict(model.elm_model, test_feats.X)
    report.timings["classify"] = time.perf_counter() - t0
    report.accuracies["divshap_elm"] = float((pred == test.y).mean())

    t0 = time.perf_counter()
    report.accuracies["raw_elm"] = raw_elm_accuracy(train, test, cfg.elm)
    report.timings["raw_elm_total"] = time.perf_counter() - t0

    report.accuracies["raw_1nn"] = baseline_1nn(train, test)

    kappa_pool = div_topk(graph, max(1, min(cfg.kappa, graph.n)))
    tr_feats = transform(train_p, kappa_pool, cfg.distance)
    te_feats = transform(test_p, kappa_pool, cfg.distance)
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


def time_predict(model: elm.ELMModel, X: np.ndarray, repetitions: int = 100) -> float:
    """Total wall-clock seconds for repeated predict calls on fixed inputs."""
    elm.predict(model, X)  # warm up
    t0 = time.perf_counter()
    for _ in range(repetitions):
        elm.predict(model, X)
    return time.perf_counter() - t0
