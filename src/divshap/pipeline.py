"""End-to-end pipeline: mine, prune via the diversity graph, sweep k,
train the final ELM, and predict.

The k sweep scores each prefix of the diversified top-kappa pool with ELMs
on one list of evaluation splits, built once per sweep: a pair (rows the
ELM is fitted on, rows it is scored on) per usable stratified fold in mode
"cv", or the training set scored on itself in mode "train" or when no fold
is usable. The k with the best mean accuracy wins, smaller k on ties.
Everything is fitted on training data only.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import elm
from .dataset import Dataset, recode_labels, stratified_folds, znorm_rows
from .distance import DistanceConfig
from .errors import EmptyInputError, InvalidConfigError, LengthMismatchError, ModelFormatError
from .errors import SingleClassTrainingError, require_bool, require_int
from .graph import DiversityGraph, batch_div_topk, build_graph
from .mining import MiningConfig, Shapelet, mine_shapelets
from .transform import Scaling, transform

MODEL_FORMAT = "divshap-pipeline"
MODEL_VERSION = 1
EVAL_MODES = ("cv", "train")
# The Shapelet fields a model file holds after "values", in file order, each
# with the cast the loader checks it with.
SAVED_SHAPELET_FIELDS = dict(
    source_series=int, start=int, length=int, class_label=int, split_threshold=float, gain=float, gap=float
)


@dataclass(frozen=True)
class EvalConfig:
    """How candidate k values are scored during the sweep.

    mode "cv" runs stratified cross-validation on the training split
    (fold count clamps to the dataset size); mode "train" scores plain
    training accuracy. Each is averaged over `repeats` seeded ELM draws.
    Any other mode, folds below 2, repeats below 1, a negative seed or a
    count or seed that is not an integer raises InvalidConfigError.
    """

    mode: str = "cv"
    folds: int = 5
    repeats: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in EVAL_MODES:
            raise InvalidConfigError(f"evaluation mode must be one of {EVAL_MODES}, got {self.mode!r}")
        require_int("evaluation folds", self.folds, 2)
        require_int("evaluation repeats", self.repeats, 1)
        require_int("evaluation seed", self.seed, 0)


@dataclass(frozen=True)
class PipelineConfig:
    """kappa bounds the k sweep; znormalize_series applies whole-series
    z-normalization before mining and again at predict time (window-level
    normalization is governed by `distance` instead). A kappa that is not an
    integer of at least 1, or a flag that is not a bool, raises
    InvalidConfigError."""

    kappa: int = 9
    mining: MiningConfig = field(default_factory=MiningConfig)
    distance: DistanceConfig = field(default_factory=DistanceConfig)
    elm: elm.ELMConfig = field(default_factory=elm.ELMConfig)
    evaluation: EvalConfig = field(default_factory=EvalConfig)
    same_class_only: bool = True
    znormalize_series: bool = False

    def __post_init__(self) -> None:
        require_int("kappa", self.kappa, 1)
        require_bool("same_class_only", self.same_class_only)
        require_bool("znormalize_series", self.znormalize_series)


@dataclass
class PipelineModel:
    selected_k: int
    shapelets: list[Shapelet]
    scaling: Scaling
    elm_model: elm.ELMModel
    k_sweep_report: list[dict]
    config: PipelineConfig
    trained_m: int
    label_names: dict[int, str]


def _sweep_elm_seed(base_seed: int, k: int, repeat: int) -> int:
    """Deterministic ELM seed per (k, repeat) sweep cell."""
    return int(
        np.random.SeedSequence((base_seed & 0xFFFFFFFF, k, repeat)).generate_state(1)[0]
    )


def prepare_series(d: Dataset, cfg: PipelineConfig) -> Dataset:
    """Apply the configured whole-series normalization, if any."""
    if not cfg.znormalize_series:
        return d
    return Dataset(X=znorm_rows(d.X), y=d.y, label_names=d.label_names, name=d.name)


def _eval_splits(train: Dataset, ev: EvalConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """Pairs of row masks (rows an ELM is fitted on, rows it is scored on):
    one per stratified fold whose fit side holds two classes in mode "cv";
    the training set scored on itself in mode "train", or, warned once, in
    mode "cv" when no fold is usable."""
    if ev.mode == "cv":
        folds = stratified_folds(train, min(ev.folds, train.n), ev.seed)
        splits = [(folds != f, folds == f) for f in np.unique(folds)]
        splits = [(tr, val) for tr, val in splits if len(np.unique(train.y[tr])) >= 2]
        if splits:
            return splits
        warnings.warn("no usable CV folds; falling back to training accuracy")
    everything = np.ones(train.n, dtype=bool)
    return [(everything, everything)]


def select_k(
    graph: DiversityGraph, train: Dataset, cfg: PipelineConfig
) -> tuple[int, list[Shapelet], list[dict]]:
    """Sweep k in [1, kappa] and pick the best-evaluating shapelet count.

    The pool is the graph's diversified top-kappa from batch_div_topk, the
    batched greedy scan; div_topk is its scalar reference and selects the
    same shapelets. Each split of _eval_splits is scaled once on all pool
    columns (scaling is per column), and cell (k, repeat) fits one ELM per
    split on the first k. The sweep stops early if the greedy pool holds
    fewer than kappa shapelets. Ties in mean accuracy resolve to the smaller
    k. An empty graph raises EmptyInputError.
    """
    if graph.n == 0:
        raise EmptyInputError("diversity graph has no vertices")
    pool = batch_div_topk(graph, cfg.kappa)
    feats = transform(train, pool, cfg.distance).X

    splits = []
    for tr, val in _eval_splits(train, cfg.evaluation):
        scaling = Scaling.fit(feats[tr])
        splits.append((scaling.apply(feats[tr]), train.y[tr], scaling.apply(feats[val]), train.y[val]))

    report: list[dict] = []
    best_k, best_acc = None, -1.0
    for k in range(1, len(pool) + 1):
        per_repeat = []
        for rep in range(cfg.evaluation.repeats):
            elm_cfg = dataclasses.replace(cfg.elm, seed=_sweep_elm_seed(cfg.evaluation.seed, k, rep))
            accs = [
                float((elm.predict(elm.train(X_tr[:, :k], y_tr, elm_cfg), X_val[:, :k]) == y_val).mean())
                for X_tr, y_tr, X_val, y_val in splits
            ]
            per_repeat.append(float(np.mean(accs)))
        mean_acc = float(np.mean(per_repeat))
        labels, counts = np.unique([s.class_label for s in pool[:k]], return_counts=True)
        report.append(
            {
                "k": k,
                "mean_accuracy": mean_acc,
                "per_repeat": per_repeat,
                "n_shapelets": k,
                "class_counts": {int(c): int(n) for c, n in zip(labels, counts)},
            }
        )
        if mean_acc > best_acc:
            best_k, best_acc = k, mean_acc
    return best_k, pool[:best_k], report


def mine_graph(
    train: Dataset, cfg: PipelineConfig, *, workers: int = 1
) -> tuple[Dataset, DiversityGraph]:
    """Candidate selection, the first stage of fit: prepare the series, mine
    the candidates under the pipeline's distance settings, and wrap them in
    the diversity graph. Returns the prepared training set and the graph.
    Mining returns after its first pass; the graph's readers score the
    rows they reach (mine_shapelets).
    """
    train = prepare_series(train, cfg)
    mining_cfg = dataclasses.replace(cfg.mining, normalize=cfg.distance)
    all_shapelets = mine_shapelets(train, mining_cfg, workers=workers)
    return train, build_graph(all_shapelets, cfg.distance, same_class_only=cfg.same_class_only)


def fit(train: Dataset, cfg: PipelineConfig | None = None, *, workers: int = 1) -> PipelineModel:
    """Mine, build the diversity graph, select k, and train the final ELM.

    Test data never enters: shapelets, scaling, and the classifier all come
    from the training split alone.
    """
    cfg = cfg or PipelineConfig()
    if len(train.classes) < 2:
        raise SingleClassTrainingError("pipeline training needs at least two classes")
    train, graph = mine_graph(train, cfg, workers=workers)
    return _fit_from_graph(graph, train, cfg)


def _fit_from_graph(graph: DiversityGraph, train: Dataset, cfg: PipelineConfig) -> PipelineModel:
    """Diversified selection, the second stage of fit: sweep k over the
    graph of mine_graph and train the final ELM on the prepared train set."""
    k, shapelets, report = select_k(graph, train, cfg)
    feats = transform(train, shapelets, cfg.distance).X
    scaling = Scaling.fit(feats)
    elm_model = elm.train(scaling.apply(feats), train.y, cfg.elm)
    return PipelineModel(
        selected_k=k,
        shapelets=shapelets,
        scaling=scaling,
        elm_model=elm_model,
        k_sweep_report=report,
        config=cfg,
        trained_m=train.m,
        label_names=dict(train.label_names),
    )


def predict_pipeline(model: PipelineModel, test: Dataset) -> tuple[np.ndarray, float | None]:
    """Transform test data with the fitted shapelets and classify.

    Returns predictions in the model's label codes and the accuracy against
    the test labels, or None when the test set is empty. Test labels are
    matched to training labels by name; an unseen one raises
    UnknownLabelError.
    """
    if test.m != model.trained_m:
        raise LengthMismatchError(
            f"test series length {test.m} != training length {model.trained_m}"
        )
    if test.n == 0:
        return np.asarray([], dtype=np.int64), None
    test = prepare_series(recode_labels(test, model.label_names), model.config)
    feats = model.scaling.apply(transform(test, model.shapelets, model.config.distance).X)
    pred = elm.predict(model.elm_model, feats)
    return pred, float((pred == test.y).mean())


def _config_from_dict(cls, d: dict):
    """Rebuild config dataclass cls, nested configs included, from its asdict
    form. Every field must be present; keys naming no field are ignored, so
    files written before an option was removed still load."""
    defaults = cls()
    kwargs = {}
    for f in dataclasses.fields(cls):
        default = getattr(defaults, f.name)
        value = d[f.name]
        kwargs[f.name] = (
            _config_from_dict(type(default), value) if dataclasses.is_dataclass(default) else value
        )
    return cls(**kwargs)


def save_pipeline(model: PipelineModel, stream) -> None:
    """Serialize a fitted pipeline to versioned JSON."""
    blob = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "selected_k": model.selected_k,
        "trained_m": model.trained_m,
        "config": dataclasses.asdict(model.config),
        "label_names": {str(k): v for k, v in model.label_names.items()},
        "shapelets": [
            {"values": s.values.tolist(), **{f: getattr(s, f) for f in SAVED_SHAPELET_FIELDS}}
            for s in model.shapelets
        ],
        "scaling": {"mins": model.scaling.mins.tolist(), "maxs": model.scaling.maxs.tolist()},
        "elm": elm.model_to_dict(model.elm_model),
        "sweep": model.k_sweep_report,
    }
    json.dump(blob, stream, indent=1)


def load_pipeline(stream) -> PipelineModel:
    """Read a model written by save_pipeline.

    A file that is not a complete, self-consistent model that predict can
    serve (all numbers finite; JSON allows NaN) raises ModelFormatError.
    """
    try:
        blob = json.load(stream)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"model file is not JSON: {exc}") from exc
    if not isinstance(blob, dict) or blob.get("format") != MODEL_FORMAT:
        raise ModelFormatError("not a divshap pipeline model file")
    if blob.get("version") != MODEL_VERSION:
        raise ModelFormatError(f"unsupported model version {blob.get('version')}")
    try:
        model = _model_from_blob(blob)
    except (KeyError, TypeError, ValueError, AttributeError, InvalidConfigError) as exc:
        raise ModelFormatError(f"malformed model file: {type(exc).__name__}: {exc}") from exc
    k = model.selected_k
    hidden, beta = model.elm_model.hidden, model.elm_model.beta
    if not (
        len(model.shapelets) == k
        and model.scaling.mins.shape == model.scaling.maxs.shape == (k,)
        and hidden.W.ndim == beta.ndim == 2
        and hidden.W.shape[1] == k
        and hidden.b.shape == (hidden.W.shape[0],)
        and model.elm_model.codebook.shape == (beta.shape[1],)
        and beta.shape[0] == hidden.W.shape[0]
    ):
        raise ModelFormatError("model file sizes disagree: shapelets, scaling and ELM weights")
    if not all(s.values.ndim == 1 and 0 < s.length == len(s.values) <= model.trained_m for s in model.shapelets):
        raise ModelFormatError("a shapelet's length disagrees with its values or the series length")
    arrays = [s.values for s in model.shapelets]
    arrays += [model.scaling.mins, model.scaling.maxs, hidden.W, hidden.b, beta]
    if not all(np.isfinite(a).all() for a in arrays):
        raise ModelFormatError("model file holds a non-finite number")
    return model


def _model_from_blob(blob: dict) -> PipelineModel:
    shapelets = [
        Shapelet(
            values=np.asarray(s["values"], dtype=np.float64),
            **{f: cast(s[f]) for f, cast in SAVED_SHAPELET_FIELDS.items()},
        )
        for s in blob["shapelets"]
    ]
    sweep = [
        {**row, "class_counts": {int(k): v for k, v in row["class_counts"].items()}}
        for row in blob["sweep"]
    ]
    return PipelineModel(
        selected_k=int(blob["selected_k"]),
        shapelets=shapelets,
        scaling=Scaling(**{k: np.asarray(v, dtype=np.float64) for k, v in blob["scaling"].items()}),
        elm_model=elm.model_from_dict(blob["elm"]),
        k_sweep_report=sweep,
        config=_config_from_dict(PipelineConfig, blob["config"]),
        trained_m=int(blob["trained_m"]),
        label_names={int(k): v for k, v in blob["label_names"].items()},
    )
