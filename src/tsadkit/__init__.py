"""Modular anomaly detection and diagnosis for multivariate time series.

The pipeline factors into exchangeable stages: a model turns the signal
into residuals, a scoring function turns residuals into channel scores
and an aggregate score series, and a threshold turns scores into binary
predictions. Evaluation covers point-wise, point-adjusted and composite
F-scores, ranking metrics, root-cause diagnosis quality, and rank-based
comparison of many methods across datasets.

The flat names below are the README's Quick start. Every other name is
imported from the stage module that defines it.
"""
from .diagnosis import rank_channels
from .ingest import (
    AnomalySpec,
    SyntheticSpec,
    WindowSpec,
    apply_normalizer,
    fit_normalizer,
    generate_synthetic,
)
from .metrics import compute_report
from .models import ModelConfig, fit, residuals
from .scoring import score_gauss_d
from .thresholding import threshold_top_k

__version__ = "0.1.0"

__all__ = [
    "AnomalySpec",
    "ModelConfig",
    "SyntheticSpec",
    "WindowSpec",
    "apply_normalizer",
    "compute_report",
    "fit",
    "fit_normalizer",
    "generate_synthetic",
    "rank_channels",
    "residuals",
    "score_gauss_d",
    "threshold_top_k",
]
