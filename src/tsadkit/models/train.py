"""The reconstruction-model stage: raw, PCA, UAE, and FC AE.

``fit`` is the one place that reads the model kind. A fitted model has a
``window_length`` (1 for raw and PCA) and ``residuals(stream)``: the
signed errors for a stream that already holds any training tail, one row
per window. RawModel's error is the signal; PcaModel reconstructs each
row; WindowedAutoencoder serves UAE (one MLP per channel) and FC-AE (one
MLP on all channels), and its error at time t is the observed minus the
reconstructed value at the LAST position of the window ending at t.
``residuals`` checks the series, prepends the training tail and runs
stride-1 inference.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Protocol

import numpy as np

from ..core import (
    ConfigError,
    Entity,
    ErrorMatrix,
    FloatArray,
    InsufficientDataError,
    SeriesMatrix,
    TrainingError,
    ValidationError,
)
from ..ingest import WindowSpec, make_windows
from .mlp import Adam, MlpAutoencoder, autoencoder_widths
from .pca import PcaModel

MODEL_KINDS = ("raw", "pca", "uae", "fc_ae")

_FORWARD_CHUNK = 8192


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters for the model stage.

    Fields left at None resolve to per-kind defaults at fit time:
    latent_dim 5 (uae) or max(1, m//2) (fc_ae); learning_rate 1e-3 (uae)
    or 1e-4 (fc_ae); batch_size 256 (uae) or 128 (fc_ae).
    """

    kind: str = "uae"
    latent_dim: int | None = None
    pca_variance_fraction: float = 0.9
    learning_rate: float | None = None
    batch_size: int | None = None
    max_epochs: int = 100
    patience: int = 10
    validation_fraction: float = 0.25
    seed: int = field(default=0, metadata={"config": False})  # set per cell from the run's seeds

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigError(f"model kind must be one of {MODEL_KINDS}, got {self.kind!r}")
        if self.latent_dim is not None and self.latent_dim < 1:
            raise ConfigError(f"latent_dim must be >= 1, got {self.latent_dim}")
        if not (0 < self.pca_variance_fraction <= 1):
            raise ConfigError("pca_variance_fraction must be in (0, 1]")
        if not (0 < self.validation_fraction < 1):
            raise ConfigError("validation_fraction must be in (0, 1)")
        if self.max_epochs < 1 or self.patience < 1:
            raise ConfigError("max_epochs and patience must be >= 1")
        if self.learning_rate is not None and self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")

    def resolved(self, m: int) -> "ModelConfig":
        """Fill kind-specific defaults for an entity with m channels."""
        if self.kind == "uae":
            defaults = {"latent_dim": 5, "learning_rate": 1e-3, "batch_size": 256}
        elif self.kind == "fc_ae":
            defaults = {"latent_dim": max(1, m // 2), "learning_rate": 1e-4, "batch_size": 128}
        else:
            return self
        updates = {
            k: v for k, v in defaults.items() if getattr(self, k) is None
        }
        if not updates:
            return self
        return replace(self, **updates)


@dataclass(frozen=True)
class FitReport:
    """Per-model training summary (one per channel for UAE)."""

    channel: int | None
    epochs_run: int
    best_epoch: int
    best_val_loss: float
    final_train_loss: float


class ReconstructionModel(Protocol):
    """A fitted model; see the module docstring."""

    window_length: int

    def residuals(self, stream: FloatArray) -> ErrorMatrix: ...


class RawModel:
    """No model: everything reconstructs to zero, so the error is the signal."""

    window_length = 1

    def residuals(self, stream: FloatArray) -> ErrorMatrix:
        return stream.copy()


def _group_rows(windows: FloatArray, channels: tuple[int, ...]) -> FloatArray:
    """(count, l_w, m) windows as one row per window: the group's channels
    flattened time-major, so the last len(channels) columns are the last
    time-point."""
    return np.ascontiguousarray(windows[:, :, channels].reshape(windows.shape[0], -1))


@dataclass(frozen=True)
class WindowedAutoencoder:
    """MLP autoencoders on sliding windows, one per group of channels.

    UAE has one group per channel, FC-AE one group of all channels. The
    error at time t is the signed difference between the observed and the
    reconstructed value at the last position of the window ending at t.
    """

    window_length: int
    groups: tuple[tuple[MlpAutoencoder, tuple[int, ...]], ...]

    def residuals(self, stream: FloatArray) -> ErrorMatrix:
        l_w = self.window_length
        n_out = stream.shape[0] - l_w + 1
        # (n_out, l_w, m), no copy
        windows = np.moveaxis(np.lib.stride_tricks.sliding_window_view(stream, l_w, axis=0), -1, 1)
        observed_last = stream[l_w - 1 :]
        err = np.empty((n_out, stream.shape[1]), dtype=np.float64)
        for model, channels in self.groups:
            for lo in range(0, n_out, _FORWARD_CHUNK):
                hi = min(lo + _FORWARD_CHUNK, n_out)
                recon = model.forward(_group_rows(windows[lo:hi], channels))
                err[lo:hi, channels] = observed_last[lo:hi, channels] - recon[:, -len(channels) :]
        return err


@dataclass(frozen=True)
class TrainedModel:
    """A fitted model plus the training residuals scoring needs.

    ``train_residuals`` rows align with training rows l_w-1, l_w, ...
    (every training row when l_w is 1). ``fit_reports`` has one entry per
    trained autoencoder, none for raw and PCA.
    """

    model: ReconstructionModel
    train_residuals: ErrorMatrix
    fit_reports: tuple[FitReport, ...]

    @property
    def m(self) -> int:
        return self.train_residuals.shape[1]


def _chronological_split(count: int, validation_fraction: float) -> int:
    n_train = int(count * (1.0 - validation_fraction))
    if n_train < 1 or n_train >= count:
        raise InsufficientDataError(
            f"{count} windows cannot be split {1 - validation_fraction:.0%}/"
            f"{validation_fraction:.0%} with at least one window on each side"
        )
    return n_train


def _train_mlp(
    windows: FloatArray, config: ModelConfig, channel: int | None
) -> tuple[MlpAutoencoder, FitReport]:
    """Train one autoencoder on 2-D window rows with early stopping.

    The split is chronological: first (1 - validation_fraction) of windows
    train, the rest validate. The best-validation weights are restored.
    """
    n_split = _chronological_split(windows.shape[0], config.validation_fraction)
    x_train = np.ascontiguousarray(windows[:n_split])
    x_val = np.ascontiguousarray(windows[n_split:])

    rng = np.random.default_rng(config.seed)
    model = MlpAutoencoder(autoencoder_widths(windows.shape[1], config.latent_dim), rng)
    params = model.parameters()
    optimizer = Adam(params, config.learning_rate)

    best_val = np.inf
    best_epoch = -1
    best_params = model.copy_parameters()
    stall = 0
    epochs_run = 0
    batch_size = config.batch_size
    for epoch in range(config.max_epochs):
        epochs_run = epoch + 1
        order = rng.permutation(n_split)
        for lo in range(0, n_split, batch_size):
            batch = x_train[order[lo : lo + batch_size]]
            loss, grads = model.loss_and_gradients(batch)
            if not np.isfinite(loss):
                raise TrainingError(f"training loss became non-finite at epoch {epoch}")
            flat_grads = [g for pair in grads for g in pair]
            optimizer.step(params, flat_grads)
        val_loss = model.loss(x_val)
        if not np.isfinite(val_loss):
            raise TrainingError(f"validation loss became non-finite at epoch {epoch}")
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_params = model.copy_parameters()
            stall = 0
        else:
            stall += 1
            if stall >= config.patience:
                break
    model.set_parameters(best_params)
    report = FitReport(
        channel=channel,
        epochs_run=epochs_run,
        best_epoch=best_epoch,
        best_val_loss=float(best_val),
        final_train_loss=model.loss(x_train),
    )
    return model, report


def fit(entity: Entity, config: ModelConfig, spec: WindowSpec) -> TrainedModel:
    """Fit the configured model on the entity's training series.

    Deterministic for a fixed seed. Every UAE channel model draws its
    weight initialization and batch shuffles from an identically seeded
    generator, so permuting input channels permutes the per-channel
    residuals without changing any of them.
    """
    train = entity.train
    m = train.m
    config = config.resolved(m)
    reports: list[FitReport] = []
    if config.kind == "raw":
        model: ReconstructionModel = RawModel()
    elif config.kind == "pca":
        model = PcaModel.fit(train.values, config.pca_variance_fraction)
    else:
        # (report channel, input channels) per autoencoder
        if config.kind == "uae":
            groups = [(i, (i,)) for i in range(m)]
        else:  # fc_ae
            groups = [(None, tuple(range(m)))]
        windows = make_windows(train, spec)
        trained = []
        for channel, channels in groups:
            mlp, report = _train_mlp(_group_rows(windows, channels), config, channel)
            trained.append((mlp, channels))
            reports.append(report)
        model = WindowedAutoencoder(spec.length, tuple(trained))
    return TrainedModel(model, model.residuals(train.values), tuple(reports))


def residuals(
    model: TrainedModel,
    x: SeriesMatrix,
    spec: WindowSpec,
    train_tail: SeriesMatrix | None = None,
) -> ErrorMatrix:
    """Signed reconstruction errors for x, one row per scored time-point.

    Inference always uses stride 1 regardless of the training step. For
    windowed models, pass the training rows (at least the last l_w - 1) as
    ``train_tail`` to obtain an error for every row of x; without a tail
    the first l_w - 1 rows cannot be scored and the output is
    correspondingly shorter (rows align with x rows l_w - 1 onward).
    """
    if x.m != model.m:
        raise ValidationError(f"series has {x.m} channels, model has {model.m}")
    keep = model.model.window_length - 1
    stream = x.values
    if train_tail is not None:
        if train_tail.m != model.m:
            raise ValidationError(
                f"train_tail has {train_tail.m} channels, model has {model.m}"
            )
        if keep:
            stream = np.concatenate([train_tail.values[-keep:], stream], axis=0)
    if stream.shape[0] <= keep:
        raise InsufficientDataError(
            f"need at least {keep + 1} rows for windowed inference, got {stream.shape[0]}"
        )
    return model.model.residuals(stream)
