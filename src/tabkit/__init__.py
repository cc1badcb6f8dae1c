"""tabkit: a self-contained toolbox for learning on tabular data.

Load CSV datasets, preprocess and encode their features, fit any of a
roster of models under one interface, tune hyperparameters by random
search, evaluate across seeds, and compare methods by average rank.
"""

__version__ = "0.1.0"

from .data import (
    Dataset,
    DatasetInfo,
    TaskType,
    load_dataset,
    save_dataset,
    split_holdout,
)
from .errors import (
    ConfigError,
    DatasetError,
    DivergenceError,
    FitError,
    LoadError,
    MetricError,
    ParseError,
    RankError,
    SchemaError,
    ShapeError,
    SpaceError,
    TabkitError,
    TuningError,
)
from .methods import MethodConfig, get_method, registered_methods
from .metrics import MetricSet, average_ranks, compute_metrics
from .pipeline import FeaturePipeline, PipelineConfig
from .report import (
    RankTable,
    RunRecord,
    emit_report,
    rank_methods,
    run_seeds,
    summarize_records,
)
from .tune import SearchSpace, parse_space, sample_trial, tune_hyper_parameters

__all__ = [
    "Dataset",
    "DatasetInfo",
    "TaskType",
    "load_dataset",
    "save_dataset",
    "split_holdout",
    "TabkitError",
    "DatasetError",
    "LoadError",
    "SchemaError",
    "ParseError",
    "FitError",
    "ConfigError",
    "ShapeError",
    "DivergenceError",
    "SpaceError",
    "TuningError",
    "MetricError",
    "RankError",
    "MethodConfig",
    "get_method",
    "registered_methods",
    "MetricSet",
    "average_ranks",
    "compute_metrics",
    "FeaturePipeline",
    "PipelineConfig",
    "RankTable",
    "RunRecord",
    "emit_report",
    "rank_methods",
    "run_seeds",
    "summarize_records",
    "SearchSpace",
    "parse_space",
    "sample_trial",
    "tune_hyper_parameters",
    "__version__",
]
