"""divshap: diversified top-k shapelet extraction with ELM classification.

Mines discriminative subsequences from labeled time series, prunes
redundant ones through a similarity graph and greedy top-k selection,
represents each series by its distances to the survivors, and classifies
with an analytically trained single-hidden-layer network.
"""

from .dataset import Dataset, parse_ucr, read_ucr, stratified_folds, write_ucr, znormalize
from .distance import DistanceConfig, shapelet_dist, shapelet_dists, subsequence_dist, window_distances
from .elm import ELMConfig, ELMModel, HiddenLayer, hidden_output, pinv_solve
from .graph import DiversityGraph, batch_div_topk, build_graph, div_topk, similar
from .mining import (
    MiningConfig,
    Shapelet,
    best_split,
    entropy,
    generate_candidates,
    mine_shapelets,
    orderline,
)
from .pipeline import (
    EvalConfig,
    PipelineConfig,
    PipelineModel,
    fit,
    load_pipeline,
    predict_pipeline,
    save_pipeline,
    select_k,
)
from .transform import FeatureMatrix, Scaling, apply_scaling, fit_scaling, transform

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "parse_ucr",
    "read_ucr",
    "write_ucr",
    "znormalize",
    "stratified_folds",
    "DistanceConfig",
    "subsequence_dist",
    "window_distances",
    "shapelet_dist",
    "shapelet_dists",
    "Shapelet",
    "MiningConfig",
    "generate_candidates",
    "entropy",
    "orderline",
    "best_split",
    "mine_shapelets",
    "DiversityGraph",
    "similar",
    "build_graph",
    "div_topk",
    "batch_div_topk",
    "FeatureMatrix",
    "Scaling",
    "transform",
    "fit_scaling",
    "apply_scaling",
    "ELMConfig",
    "HiddenLayer",
    "ELMModel",
    "hidden_output",
    "pinv_solve",
    "EvalConfig",
    "PipelineConfig",
    "PipelineModel",
    "select_k",
    "fit",
    "predict_pipeline",
    "save_pipeline",
    "load_pipeline",
    "__version__",
]
