"""The reconstruction-model stage: raw, PCA, UAE, and FC AE.

``fit`` produces a TrainedModel holding fitted parameters plus the signed
training residuals every scoring function needs. ``residuals`` runs
stride-1 inference; for windowed models the error at time t is the signed
difference between the observed and reconstructed value at the LAST
position of the window ending at t.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

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


@dataclass(frozen=True)
class TrainedModel:
    """Fitted model stage plus the training residuals scoring needs.

    ``train_residuals`` rows align with training rows l_w-1, l_w, ... for
    windowed kinds (length n1 - l_w + 1) and with every training row for
    raw and PCA.
    """

    kind: str
    m: int
    window_length: int | None
    channel_models: tuple[MlpAutoencoder, ...] | None = None
    fc_model: MlpAutoencoder | None = None
    pca: PcaModel | None = None
    train_residuals: ErrorMatrix | None = None
    train_error_mean: FloatArray | None = None
    fit_reports: tuple[FitReport, ...] = ()


def _chronological_split(count: int, validation_fraction: float) -> int:
    n_train = int(count * (1.0 - validation_fraction))
    if n_train < 1 or n_train >= count:
        raise InsufficientDataError(
            f"{count} windows cannot be split {1 - validation_fraction:.0%}/"
            f"{validation_fraction:.0%} with at least one window on each side"
        )
    return n_train


def _train_mlp(
    windows: FloatArray,
    latent_dim: int,
    learning_rate: float,
    batch_size: int,
    max_epochs: int,
    patience: int,
    validation_fraction: float,
    seed: int,
    channel: int | None,
) -> tuple[MlpAutoencoder, FitReport]:
    """Train one autoencoder on 2-D window rows with early stopping.

    The split is chronological: first (1 - validation_fraction) of windows
    train, the rest validate. The best-validation weights are restored.
    """
    n_split = _chronological_split(windows.shape[0], validation_fraction)
    x_train = np.ascontiguousarray(windows[:n_split])
    x_val = np.ascontiguousarray(windows[n_split:])

    rng = np.random.default_rng(seed)
    model = MlpAutoencoder(autoencoder_widths(windows.shape[1], latent_dim), rng)
    params = model.parameters()
    optimizer = Adam(params, learning_rate)

    best_val = np.inf
    best_epoch = -1
    best_params = model.copy_parameters()
    stall = 0
    epochs_run = 0
    for epoch in range(max_epochs):
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
            if stall >= patience:
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

    if config.kind == "raw":
        residual = train.values.copy()
        return TrainedModel(
            kind="raw",
            m=m,
            window_length=None,
            train_residuals=residual,
            train_error_mean=residual.mean(axis=0),
        )

    if config.kind == "pca":
        pca = PcaModel.fit(train.values, config.pca_variance_fraction)
        residual = pca.residuals(train.values)
        return TrainedModel(
            kind="pca",
            m=m,
            window_length=None,
            pca=pca,
            train_residuals=residual,
            train_error_mean=residual.mean(axis=0),
        )

    windows = make_windows(train, spec)

    if config.kind == "uae":
        channel_models = []
        reports = []
        for i in range(m):
            model_i, report_i = _train_mlp(
                np.ascontiguousarray(windows[:, :, i]),
                config.latent_dim,
                config.learning_rate,
                config.batch_size,
                config.max_epochs,
                config.patience,
                config.validation_fraction,
                config.seed,
                channel=i,
            )
            channel_models.append(model_i)
            reports.append(report_i)
        trained = TrainedModel(
            kind="uae",
            m=m,
            window_length=spec.length,
            channel_models=tuple(channel_models),
            fit_reports=tuple(reports),
        )
    else:  # fc_ae
        flat = windows.reshape(windows.shape[0], -1)
        fc_model, report = _train_mlp(
            flat,
            config.latent_dim,
            config.learning_rate,
            config.batch_size,
            config.max_epochs,
            config.patience,
            config.validation_fraction,
            config.seed,
            channel=None,
        )
        trained = TrainedModel(
            kind="fc_ae",
            m=m,
            window_length=spec.length,
            fc_model=fc_model,
            fit_reports=(report,),
        )

    train_res = residuals(trained, train, spec, train_tail=None)
    return TrainedModel(
        kind=trained.kind,
        m=m,
        window_length=spec.length,
        channel_models=trained.channel_models,
        fc_model=trained.fc_model,
        train_residuals=train_res,
        train_error_mean=train_res.mean(axis=0),
        fit_reports=trained.fit_reports,
    )


def _sliding_last_position_residuals(model: TrainedModel, stream: FloatArray) -> ErrorMatrix:
    l_w = model.window_length
    n_out = stream.shape[0] - l_w + 1
    view = np.lib.stride_tricks.sliding_window_view(stream, l_w, axis=0)
    # view shape (n_out, m, l_w)
    observed_last = stream[l_w - 1 :]
    err = np.empty((n_out, model.m), dtype=np.float64)
    if model.kind == "uae":
        for i, channel_model in enumerate(model.channel_models):
            for lo in range(0, n_out, _FORWARD_CHUNK):
                hi = min(lo + _FORWARD_CHUNK, n_out)
                chunk = np.ascontiguousarray(view[lo:hi, i, :])
                recon = channel_model.forward(chunk)
                err[lo:hi, i] = observed_last[lo:hi, i] - recon[:, -1]
    else:  # fc_ae
        m = model.m
        for lo in range(0, n_out, _FORWARD_CHUNK):
            hi = min(lo + _FORWARD_CHUNK, n_out)
            chunk = np.moveaxis(view[lo:hi], -1, 1).reshape(hi - lo, l_w * m)
            recon = model.fc_model.forward(chunk).reshape(hi - lo, l_w, m)
            err[lo:hi] = observed_last[lo:hi] - recon[:, -1, :]
    return err


def residuals(
    model: TrainedModel,
    x: SeriesMatrix,
    spec: WindowSpec,
    train_tail: SeriesMatrix | None = None,
) -> ErrorMatrix:
    """Signed reconstruction errors for x, one row per scored time-point.

    Inference always uses stride 1 regardless of the training step. For
    windowed models, pass the last l_w - 1 training rows as ``train_tail``
    to obtain an error for every row of x; without a tail the first
    l_w - 1 rows cannot be scored and the output is correspondingly
    shorter (rows align with x rows l_w - 1 onward).
    """
    if x.m != model.m:
        raise ValidationError(f"series has {x.m} channels, model has {model.m}")

    if model.kind == "raw":
        # a model that reconstructs everything to zero: error is the signal
        return x.values.copy()
    if model.kind == "pca":
        return model.pca.residuals(x.values)

    l_w = model.window_length
    if train_tail is None:
        stream = x.values
    else:
        if train_tail.m != model.m:
            raise ValidationError(
                f"train_tail has {train_tail.m} channels, model has {model.m}"
            )
        stream = np.concatenate([train_tail.values[-(l_w - 1) :], x.values], axis=0)
    if stream.shape[0] < l_w:
        raise InsufficientDataError(
            f"need at least {l_w} rows for windowed inference, got {stream.shape[0]}"
        )
    return _sliding_last_position_residuals(model, stream)
