"""Modular anomaly detection and diagnosis for multivariate time series.

The pipeline factors into exchangeable stages: a model turns the signal
into residuals, a scoring function turns residuals into channel scores
and an aggregate score series, and a threshold turns scores into binary
predictions. Evaluation covers point-wise, point-adjusted and composite
F-scores, ranking metrics, root-cause diagnosis quality, and rank-based
comparison of many methods across datasets.
"""
from __future__ import annotations

from .core import (
    ConfigError,
    Entity,
    Event,
    InsufficientDataError,
    ParseError,
    SeriesMatrix,
    TrainingError,
    ValidationError,
    events_from_labels,
    labels_from_events,
    validate_labels,
)
from .diagnosis import EventDiagnosis, hitrate_at, rank_channels, rc_top_k
from .experiment import (
    DiagnosisConfig,
    EntitySource,
    ExperimentConfig,
    ResultsRecord,
    ScoringConfig,
    ThresholdConfig,
    compare_metrics,
    config_from_dict,
    config_from_json,
    emit_results,
    load_results,
    run_experiment,
)
from .ingest import (
    AnomalySpec,
    NormStats,
    SyntheticSpec,
    WindowSpec,
    apply_normalizer,
    fit_normalizer,
    generate_synthetic,
    load_entity,
    make_windows,
)
from .metrics import (
    ConfusionCounts,
    MetricReport,
    adjusted_prediction,
    auprc,
    auroc,
    compute_report,
    confusion,
    f1_point,
    f1_point_adjusted,
    fc1,
    rad_scores,
)
from .models import (
    MlpAutoencoder,
    ModelConfig,
    PcaModel,
    TrainedModel,
    fit,
    residuals,
)
from .rankstats import (
    RankTable,
    average_ranks,
    compare_to_best,
    friedman,
    hochberg_stepup,
)
from .scoring import (
    GaussParams,
    KernelSpec,
    fit_gauss,
    score_error,
    score_gauss_d,
    score_gauss_d_k,
    score_gauss_s,
)
from .thresholding import (
    ThresholdResult,
    threshold_best_f,
    threshold_tail_p,
    threshold_top_k,
)

__version__ = "0.1.0"

__all__ = [
    "AnomalySpec",
    "ConfigError",
    "ConfusionCounts",
    "DiagnosisConfig",
    "Entity",
    "EntitySource",
    "Event",
    "EventDiagnosis",
    "ExperimentConfig",
    "GaussParams",
    "InsufficientDataError",
    "KernelSpec",
    "MetricReport",
    "MlpAutoencoder",
    "ModelConfig",
    "NormStats",
    "ParseError",
    "PcaModel",
    "RankTable",
    "ResultsRecord",
    "ScoringConfig",
    "SeriesMatrix",
    "SyntheticSpec",
    "ThresholdConfig",
    "ThresholdResult",
    "TrainedModel",
    "TrainingError",
    "ValidationError",
    "WindowSpec",
    "adjusted_prediction",
    "apply_normalizer",
    "auprc",
    "auroc",
    "average_ranks",
    "compare_metrics",
    "compare_to_best",
    "compute_report",
    "config_from_dict",
    "config_from_json",
    "confusion",
    "emit_results",
    "events_from_labels",
    "f1_point",
    "f1_point_adjusted",
    "fc1",
    "fit",
    "fit_gauss",
    "fit_normalizer",
    "friedman",
    "generate_synthetic",
    "hitrate_at",
    "hochberg_stepup",
    "labels_from_events",
    "load_entity",
    "load_results",
    "make_windows",
    "rad_scores",
    "rank_channels",
    "rc_top_k",
    "residuals",
    "run_experiment",
    "score_error",
    "score_gauss_d",
    "score_gauss_d_k",
    "score_gauss_s",
    "threshold_best_f",
    "threshold_tail_p",
    "threshold_top_k",
    "validate_labels",
]
