"""Linear reconstruction via principal components.

The component count q is the smallest number of components whose
cumulative explained variance reaches the configured fraction (0.9 by
default). Reconstruction projects centered rows onto the retained
components and back.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import (
    FloatArray,
    InsufficientDataError,
    ValidationError,
    check_float_matrix,
)

_TOTAL_VARIANCE_FLOOR = 1e-24


@dataclass(frozen=True)
class PcaModel:
    mean: FloatArray
    components: FloatArray           # (q, m), orthonormal rows
    explained_variance_ratio: FloatArray  # per singular vector, all of them

    window_length = 1  # reconstructs each row on its own
    fit_reports = ()  # nothing trained

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        comp = np.asarray(self.components, dtype=np.float64)
        if comp.ndim != 2 or comp.shape[1] != mean.shape[0]:
            raise ValidationError("components must be (q, m) matching the mean")
        mean.flags.writeable = False
        comp.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "components", comp)

    @property
    def q(self) -> int:
        return self.components.shape[0]

    @property
    def retained_variance(self) -> float:
        return float(self.explained_variance_ratio[: self.q].sum())

    @classmethod
    def fit(cls, values: FloatArray, variance_fraction: float = 0.9) -> "PcaModel":
        """Fit on per-time-point channel vectors (rows)."""
        if not (0 < variance_fraction <= 1):
            raise ValidationError(
                f"variance_fraction must be in (0, 1], got {variance_fraction}"
            )
        x = check_float_matrix(values, "train values")
        if x.shape[0] < 2:
            raise InsufficientDataError("PCA needs at least 2 rows")
        mean = x.mean(axis=0)
        centered = x - mean
        _, s, vt = np.linalg.svd(centered, full_matrices=False)
        power = s * s
        total = float(power.sum())
        if total <= _TOTAL_VARIANCE_FLOOR:
            # constant data: nothing to retain, reconstruction is the mean
            ratios = np.zeros_like(power)
            q = 0
        else:
            ratios = power / total
            cumulative = np.cumsum(ratios)
            # tolerance so an exact-rational 0.9 reached up to rounding counts
            q = int(np.searchsorted(cumulative, variance_fraction - 1e-12) + 1)
        return cls(mean, vt[:q].copy(), ratios)

    def residuals(self, values: FloatArray) -> FloatArray:
        """Each row minus its reconstruction from the retained components."""
        x = check_float_matrix(values)
        if x.shape[1] != self.mean.shape[0]:
            raise ValidationError(
                f"{x.shape[1]} channels, model has {self.mean.shape[0]}"
            )
        if self.q == 0:
            return x - self.mean
        centered = x - self.mean
        return x - (self.mean + (centered @ self.components.T) @ self.components)
