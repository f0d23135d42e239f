"""driverlens: driver-behavior classification with explanation-driven
feature selection.

Pipeline: ingest a tabular dataset, balance and standardize it, evaluate a
zoo of from-scratch classifiers over repeated stratified splits, explain the
best model with local ridge surrogates, keep the most influential features,
retrain everything, and report the before/after comparison.
"""

from .config import PipelineConfig, config_from_dict, config_from_json, config_schema
from .data import (
    ColumnSchema,
    Dataset,
    EncodingMap,
    RawTable,
    encode,
    handle_missing,
    load_csv,
)
from .errors import ConfigError, DataError, DriverlensError
from .explain import (
    Discretizer,
    Explanation,
    LimeConfig,
    explain_instance,
    fit_discretizer,
    fit_surrogate,
    kernel_weights,
    perturb,
)
from .metrics import (
    ConfusionCounts,
    MetricsRecord,
    classification_metrics,
    confusion_counts,
    evaluate,
    regression_style_metrics,
)
from .models import ALGORITHMS, ModelSpec, train
from .pipeline import run_stage
from .preprocess import (
    ScalerParams,
    SplitIndices,
    apply_scaler,
    fit_scaler,
    random_oversample,
    stratified_shuffle_splits,
)
from .selection import (
    ComparisonReport,
    FeatureRanking,
    aggregate_importance,
    reduce_dataset,
    select_top_k,
)
from .synth import SynthSpec, dump_csv, synth_generate

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "ColumnSchema",
    "ComparisonReport",
    "ConfigError",
    "ConfusionCounts",
    "DataError",
    "Dataset",
    "Discretizer",
    "DriverlensError",
    "EncodingMap",
    "Explanation",
    "FeatureRanking",
    "LimeConfig",
    "MetricsRecord",
    "ModelSpec",
    "PipelineConfig",
    "RawTable",
    "ScalerParams",
    "SplitIndices",
    "SynthSpec",
    "aggregate_importance",
    "apply_scaler",
    "classification_metrics",
    "config_from_dict",
    "config_from_json",
    "config_schema",
    "confusion_counts",
    "dump_csv",
    "encode",
    "evaluate",
    "explain_instance",
    "fit_discretizer",
    "fit_scaler",
    "fit_surrogate",
    "handle_missing",
    "kernel_weights",
    "load_csv",
    "perturb",
    "random_oversample",
    "reduce_dataset",
    "regression_style_metrics",
    "run_stage",
    "select_top_k",
    "stratified_shuffle_splits",
    "synth_generate",
    "train",
]
