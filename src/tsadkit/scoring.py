"""Scoring functions: transform residuals into per-time anomaly scores.

Four scorers share the same shape contract: per-channel scores for all m
channels plus an aggregated series over the scored channel subset.

  error    RMS of mean-centered residuals across scored channels.
  gauss_s  -log10 survival of a static per-channel Gaussian fitted on
           training residuals; channel scores are summed.
  gauss_d  the same transform with rolling mean/std over the W most
           recent errors (current point included), the training tail
           prepended so the window never starts empty.
  gauss_d_k  gauss_d channel scores smoothed by a truncated, unit-sum
           Gaussian kernel before aggregation.

All logs are base 10 so that the tail-p threshold -m*log10(eps) lives on
the same scale as the scores. z-scores are clamped to [-8, 8] before the
survival function, capping each channel score near 15.2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .core import (
    ChannelScores,
    ErrorMatrix,
    FloatArray,
    InsufficientDataError,
    ScoreSeries,
    ValidationError,
    check_float_matrix,
    resolve_scored,
)

SIGMA_FLOOR = 1e-4
Z_CLAMP = 8.0
_LN10 = math.log(10.0)


def _neg_log10_survival(z: FloatArray) -> FloatArray:
    # -log10(1 - Phi(z)) = -log(Phi(-z))/ln(10), stable deep into the tail
    return -special.log_ndtr(-z) / _LN10


@dataclass(frozen=True)
class GaussParams:
    """Static per-channel mean and standard deviation of training residuals."""

    mu: FloatArray
    sigma: FloatArray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64)
        sigma = np.maximum(np.asarray(self.sigma, dtype=np.float64), SIGMA_FLOOR)
        if mu.ndim != 1 or mu.shape != sigma.shape:
            raise ValidationError("mu and sigma must be 1-D of equal length")
        mu.flags.writeable = False
        sigma.flags.writeable = False
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def m(self) -> int:
        return self.mu.shape[0]


@dataclass(frozen=True)
class DynamicWindow:
    """Rolling window length for gauss_d; at least 2 points."""

    w: int

    def __post_init__(self):
        if self.w < 2:
            raise ValidationError(f"dynamic window must be >= 2, got {self.w}")


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian smoothing kernel: sigma_k > 0, truncated at 3*ceil(sigma_k)."""

    sigma_k: float

    def __post_init__(self):
        if not (self.sigma_k > 0):
            raise ValidationError(f"sigma_k must be > 0, got {self.sigma_k}")

    @property
    def radius(self) -> int:
        return 3 * math.ceil(self.sigma_k)

    def weights(self) -> FloatArray:
        u = np.arange(-self.radius, self.radius + 1, dtype=np.float64)
        w = np.exp(-0.5 * (u / self.sigma_k) ** 2)
        return w / w.sum()


def score_error(test_err: ErrorMatrix, train_mean: FloatArray, scored=None) -> ScoreSeries:
    """Root-mean-square of mean-centered errors across scored channels.

    a_t = sqrt(mean_i (Er_t^i - train_mean^i)^2) over i in the scored set.
    """
    err = check_float_matrix(test_err, "test errors")
    mean = np.asarray(train_mean, dtype=np.float64)
    if mean.shape != (err.shape[1],):
        raise ValidationError(
            f"train_mean has shape {mean.shape}, expected ({err.shape[1]},)"
        )
    idx = resolve_scored(err.shape[1], scored)
    centered = err[:, idx] - mean[idx]
    return np.sqrt(np.mean(centered * centered, axis=1))


def fit_gauss(train_err: ErrorMatrix) -> GaussParams:
    """Sample mean and sample std (n-1 denominator) per channel, floored."""
    err = check_float_matrix(train_err, "train errors")
    if err.shape[0] < 2:
        raise InsufficientDataError(
            f"need at least 2 training error rows to fit, got {err.shape[0]}"
        )
    return GaussParams(err.mean(axis=0), err.std(axis=0, ddof=1))


def score_gauss_s(
    test_err: ErrorMatrix, params: GaussParams, scored=None
) -> tuple[ChannelScores, ScoreSeries]:
    """Static Gaussian survival scores; aggregation is a plain channel sum."""
    err = check_float_matrix(test_err, "test errors")
    if err.shape[1] != params.m:
        raise ValidationError(f"{err.shape[1]} channels, params has {params.m}")
    idx = resolve_scored(err.shape[1], scored)
    z = np.clip((err - params.mu) / params.sigma, -Z_CLAMP, Z_CLAMP)
    channels = _neg_log10_survival(z)
    return channels, channels[:, idx].sum(axis=1)


def score_gauss_d(
    test_err: ErrorMatrix,
    train_tail_err: ErrorMatrix | None,
    window: DynamicWindow,
    scored=None,
) -> tuple[ChannelScores, ScoreSeries]:
    """Gaussian survival scores with rolling mean and sample std.

    The statistics at time t cover the W most recent errors ending at and
    including t. The last W-1 training residual rows should be passed as
    ``train_tail_err``; with a shorter tail the early windows shrink to
    the available history. A window of a single point carries no deviation
    evidence, so its z is 0.
    """
    err = check_float_matrix(test_err, "test errors")
    m = err.shape[1]
    if train_tail_err is None:
        tail = np.empty((0, m), dtype=np.float64)
    else:
        tail = check_float_matrix(train_tail_err, "train tail errors")
        if tail.shape[1] != m:
            raise ValidationError(f"tail has {tail.shape[1]} channels, errors have {m}")
    w = window.w
    if tail.shape[0] > w - 1:
        tail = tail[-(w - 1) :]
    idx = resolve_scored(m, scored)

    stream = np.concatenate([tail, err], axis=0)
    # center per channel for numerical conditioning; z-scores are exactly
    # invariant to a constant shift
    stream = stream - stream.mean(axis=0)
    n_stream = stream.shape[0]
    cs = np.zeros((n_stream + 1, m))
    cs2 = np.zeros((n_stream + 1, m))
    np.cumsum(stream, axis=0, out=cs[1:])
    np.cumsum(stream * stream, axis=0, out=cs2[1:])

    tail_len = tail.shape[0]
    end = tail_len + np.arange(1, err.shape[0] + 1)
    win = np.minimum(w, end).astype(np.float64)[:, None]
    start = end - win[:, 0].astype(np.int64)
    sums = cs[end] - cs[start]
    sums2 = cs2[end] - cs2[start]
    mean = sums / win
    var = (sums2 - win * mean * mean) / np.maximum(win - 1.0, 1.0)
    sigma = np.maximum(np.sqrt(np.clip(var, 0.0, None)), SIGMA_FLOOR)

    z = (stream[tail_len:] - mean) / sigma
    z[win[:, 0] < 2.0] = 0.0
    z = np.clip(z, -Z_CLAMP, Z_CLAMP)
    channels = _neg_log10_survival(z)
    return channels, channels[:, idx].sum(axis=1)


def score_gauss_d_k(
    gauss_d_channels: ChannelScores, kernel: KernelSpec, scored=None
) -> tuple[ChannelScores, ScoreSeries]:
    """Smooth gauss_d channel scores with a truncated Gaussian kernel.

    Each channel is convolved with the unit-sum kernel, boundaries handled
    by edge replication, then aggregated by the usual channel sum.
    """
    channels_in = check_float_matrix(gauss_d_channels, "channel scores")
    n, m = channels_in.shape
    idx = resolve_scored(m, scored)
    weights = kernel.weights()
    r = kernel.radius
    smoothed = np.empty_like(channels_in)
    for i in range(m):
        padded = np.pad(channels_in[:, i], r, mode="edge")
        smoothed[:, i] = np.convolve(padded, weights, mode="valid")
    return smoothed, smoothed[:, idx].sum(axis=1)
