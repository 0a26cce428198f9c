"""The reconstruction-model stage: raw, PCA, UAE, and FC AE.

``fit`` returns the model its config's kind names and runs no inference.
A fitted model has a ``window_length`` (1 for raw and PCA),
``fit_reports`` (none for raw and PCA) and ``residuals(stream)``: the
signed errors for a stream that already holds any training tail, one row
per window. RawModel's error is the signal; PcaModel reconstructs each
row; WindowedAutoencoder serves UAE (one MLP per channel) and FC-AE (one
MLP on all channels), and its error at time t is the observed minus the
reconstructed value at the LAST position of the window ending at t.
``residuals`` prepends the training tail and runs stride-1 inference,
training and test errors alike.
"""
from __future__ import annotations

from concurrent.futures import wait
from dataclasses import dataclass, replace
from typing import Protocol

import numpy as np

from ..blas import blas_threads, lend_threads
from ..core import (
    ConfigError,
    ErrorMatrix,
    FloatArray,
    InsufficientDataError,
    SeriesMatrix,
    TrainingError,
    ValidationError,
)
from ..ingest import WindowSpec, make_windows
from .mlp import Adam, MlpAutoencoder, MlpStack, autoencoder_widths
from .pca import PcaModel

MODEL_KINDS = ("raw", "pca", "uae", "fc_ae")

_FORWARD_CHUNK = 8192
# most groups in one stack: larger stacks hold more buffers and gain little
_STACK_MEMBERS = 4


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters for the model stage.

    Fields left at None resolve to per-kind defaults at fit time:
    latent_dim 5 (uae) or max(1, m//2) (fc_ae); learning_rate 1e-3 (uae)
    or 1e-4 (fc_ae); batch_size 256 (uae) or 128 (fc_ae). Raw and PCA
    refuse them set.
    """

    kind: str = "uae"
    latent_dim: int | None = None
    pca_variance_fraction: float = 0.9
    learning_rate: float | None = None
    batch_size: int | None = None
    max_epochs: int = 100
    patience: int = 10
    validation_fraction: float = 0.25

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
        for key in ("latent_dim", "learning_rate", "batch_size"):
            if self.kind in ("raw", "pca") and getattr(self, key) is not None:
                raise ConfigError(f"{key} is used only by uae and fc_ae, got kind {self.kind!r}")

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
    fit_reports: tuple[FitReport, ...]

    def residuals(self, stream: FloatArray) -> ErrorMatrix: ...


class RawModel:
    """No model: everything reconstructs to zero, so the error is the signal."""

    window_length = 1
    fit_reports = ()

    def residuals(self, stream: FloatArray) -> ErrorMatrix:
        # a read-only view: no caller writes into residuals
        view = stream.view()
        view.flags.writeable = False
        return view


def _group_rows(windows: FloatArray, channels: tuple[int, ...]) -> FloatArray:
    """(count, l_w, m) windows as one row per window: the group's channels
    flattened time-major, so the last len(channels) columns are the last
    time-point.

    A group's channels are adjacent (one for UAE, all for FC-AE), so this
    is a view of the windows. numpy multiplies a non-contiguous matrix in
    its own loop, which rounds differently from BLAS, so callers multiply
    contiguous copies only.
    """
    lo = channels[0]
    return windows[:, :, lo : lo + len(channels)].reshape(windows.shape[0], -1)


@dataclass(frozen=True)
class WindowedAutoencoder:
    """MLP autoencoders on sliding windows, one per group of channels.

    UAE has one group per channel, FC-AE one group of all channels; a
    group's channels are adjacent and ascending. ``fit`` trains the groups
    in stacks, but each group keeps its own network. The error at time t
    is the signed difference between the observed and the reconstructed
    value at the last position of the window ending at t. Inference maps
    the groups over the BLAS's lent threads, one group per task.
    """

    window_length: int
    groups: tuple[tuple[MlpAutoencoder, tuple[int, ...]], ...]
    fit_reports: tuple[FitReport, ...]

    def residuals(self, stream: FloatArray) -> ErrorMatrix:
        m = sum(len(channels) for _, channels in self.groups)
        if stream.shape[1] != m:
            raise ValidationError(f"series has {stream.shape[1]} channels, model has {m}")
        l_w = self.window_length
        n_out = stream.shape[0] - l_w + 1
        # (n_out, l_w, m), no copy
        windows = np.moveaxis(np.lib.stride_tricks.sliding_window_view(stream, l_w, axis=0), -1, 1)
        observed_last = stream[l_w - 1 :]
        err = np.empty((n_out, stream.shape[1]), dtype=np.float64)

        def infer_group(group: tuple[MlpAutoencoder, tuple[int, ...]]) -> None:
            # each group writes only its own columns of err
            model, channels = group
            for lo in range(0, n_out, _FORWARD_CHUNK):
                hi = min(lo + _FORWARD_CHUNK, n_out)
                rows = np.ascontiguousarray(_group_rows(windows[lo:hi], channels))
                recon = model.forward(rows)
                err[lo:hi, channels] = (
                    observed_last[lo:hi, channels] - recon[:, -len(channels) :]
                )

        _on_lent_threads(infer_group, self.groups)
        return err


def _on_lent_threads(fn, tasks) -> list:
    """``fn`` over ``tasks`` (groups or stacks of them) in order, on the
    BLAS's lent threads; the first task to fail in that order raises."""
    with lend_threads() as pool:
        futures = [pool.submit(fn, task) for task in tasks]
        try:
            return [future.result() for future in futures]
        finally:
            # after a failure the pin is left only once this call's queued
            # tasks are cancelled and its running ones done
            for future in futures:
                future.cancel()
            wait(futures)


def _chronological_split(count: int, validation_fraction: float) -> int:
    n_train = int(count * (1.0 - validation_fraction))
    if n_train < 1 or n_train >= count:
        raise InsufficientDataError(
            f"{count} windows cannot be split {1 - validation_fraction:.0%}/"
            f"{validation_fraction:.0%} with at least one window on each side"
        )
    return n_train


def _train_stack(
    windows: FloatArray,
    stack: list[tuple[int | None, tuple[int, ...]]],
    config: ModelConfig,
    seed: int,
) -> list[tuple[tuple[MlpAutoencoder, tuple[int, ...]], FitReport]]:
    """Train one autoencoder per (report channel, input channels) group of
    ``stack``, in lockstep, each on its own group's window rows.

    The split is chronological: first (1 - validation_fraction) of windows
    train, the rest validate. Each member stops on its own patience and
    gets its best-validation weights back. Every member draws its initial
    weights and batch orders from one generator seeded ``seed``, the draws
    one network would make alone, so a member's weights and report do not
    depend on its stack. A member that stops leaves the stack. One whose
    loss is non-finite leaves it with every later member, and the stack
    raises the error of its first failing member once the earlier ones
    are done, as one network after another would.
    """
    n_split = _chronological_split(windows.shape[0], config.validation_fraction)
    rows = [_group_rows(windows, channels) for _, channels in stack]
    rng = np.random.default_rng(seed)
    widths = autoencoder_widths(rows[0].shape[1], config.latent_dim)
    init = MlpAutoencoder(widths, rng).flat_params
    net = MlpStack(widths, np.tile(init, (len(stack), 1)))
    optimizer = Adam(net.flat_params, config.learning_rate)

    live = list(range(len(stack)))  # the stack position of each member left
    best_val = [np.inf] * len(stack)
    best_epoch = [-1] * len(stack)
    best_params = net.flat_params.copy()
    stall = [0] * len(stack)
    epochs_run = [0] * len(stack)
    failure: TrainingError | None = None
    batch_size = config.batch_size

    def keep(positions: list[int]) -> None:
        nonlocal live
        live = [live[j] for j in positions]
        net.keep(positions)
        optimizer.keep(positions)

    for epoch in range(config.max_epochs):
        order = rng.permutation(n_split)
        for lo in range(0, n_split, batch_size):
            batch = order[lo : lo + batch_size]
            for g, inputs in zip(live, net.inputs(len(batch))):
                inputs[...] = rows[g][batch]
            bad = np.flatnonzero(~np.isfinite(net.losses()))
            if bad.size:
                failure = TrainingError(f"training loss became non-finite at epoch {epoch}")
                keep(list(range(bad[0])))
                if not live:
                    break
            net.backward()
            optimizer.step(net.flat_params, net.flat_grads)
        staying = []
        for j, (g, params) in enumerate(zip(live, net.flat_params)):
            member = MlpAutoencoder.on(widths, params)
            epochs_run[g] = epoch + 1
            # copied per epoch: a stack holding every member's copy peaks higher
            val_loss = member.loss(np.ascontiguousarray(rows[g][n_split:]))
            if not np.isfinite(val_loss):
                failure = TrainingError(f"validation loss became non-finite at epoch {epoch}")
                break
            if val_loss < best_val[g]:
                best_val[g] = val_loss
                best_epoch[g] = epoch
                best_params[g] = params
                stall[g] = 0
            else:
                stall[g] += 1
                if stall[g] >= config.patience:
                    continue
            staying.append(j)
        if len(staying) < len(live):
            keep(staying)
        if not live:
            break
    if failure is not None:
        raise failure
    del net, optimizer  # before the full-size passes below
    trained = []
    for g, (channel, channels) in enumerate(stack):
        model = MlpAutoencoder.on(widths, best_params[g].copy())
        report = FitReport(
            channel=channel,
            epochs_run=epochs_run[g],
            best_epoch=best_epoch[g],
            best_val_loss=float(best_val[g]),
            final_train_loss=model.loss(np.ascontiguousarray(rows[g][:n_split])),
        )
        trained.append(((model, channels), report))
    return trained


def fit(
    train: SeriesMatrix, config: ModelConfig, window: WindowSpec, seed: int = 0
) -> ReconstructionModel:
    """Fit the configured model on a (normalized) training series and
    return it; its errors, training ones included, come from ``residuals``.

    Deterministic for a fixed seed. Every UAE channel model draws its
    weight initialization and batch shuffles from an identically seeded
    generator, so permuting input channels permutes the per-channel
    residuals without changing any of them. Every kind fits inside
    ``blas.lend_threads``, on one BLAS thread, so the result is the serial
    one at any BLAS thread count. Autoencoders train their groups on the
    B threads the pin takes, in contiguous stacks of min(ceil(groups /
    2B), 4) groups, each stack a task on one thread; a member's bits do
    not depend on its stack.
    """
    m = train.m
    config = config.resolved(m)
    with lend_threads():
        if config.kind == "raw":
            return RawModel()
        if config.kind == "pca":
            return PcaModel.fit(train.values, config.pca_variance_fraction)
        # (report channel, input channels) per autoencoder
        if config.kind == "uae":
            groups = [(i, (i,)) for i in range(m)]
        else:  # fc_ae
            groups = [(None, tuple(range(m)))]
        windows = make_windows(train, window)
        # two stacks a thread, so one whose members stop early takes
        # another while a slower one still trains
        size = min(-(-len(groups) // (2 * (blas_threads() or 1))), _STACK_MEMBERS)
        stacks = [groups[lo : lo + size] for lo in range(0, len(groups), size)]
        trained = [
            member
            for members in _on_lent_threads(
                lambda stack: _train_stack(windows, stack, config, seed), stacks
            )
            for member in members
        ]
    return WindowedAutoencoder(
        window.length,
        tuple(group for group, _ in trained),
        tuple(report for _, report in trained),
    )


def residuals(
    model: ReconstructionModel,
    x: SeriesMatrix,
    train_tail: SeriesMatrix | None = None,
) -> ErrorMatrix:
    """Signed reconstruction errors for x, one row per scored time-point.

    Inference always uses stride 1 regardless of the training step. For
    windowed models, pass the training rows (at least the last l_w - 1) as
    ``train_tail`` to obtain an error for every row of x; without a tail
    the first l_w - 1 rows cannot be scored and the output is
    correspondingly shorter (rows align with x rows l_w - 1 onward), as
    for the training series itself. The model checks x's width. Inference
    runs inside the BLAS pin, as ``fit`` does.
    """
    keep = model.window_length - 1
    stream = x.values
    if train_tail is not None:
        if train_tail.m != x.m:
            raise ValidationError(f"train_tail has {train_tail.m} channels, series has {x.m}")
        if keep:
            stream = np.concatenate([train_tail.values[-keep:], stream], axis=0)
    if stream.shape[0] <= keep:
        raise InsufficientDataError(
            f"need at least {keep + 1} rows for windowed inference, got {stream.shape[0]}"
        )
    with lend_threads():
        return model.residuals(stream)
