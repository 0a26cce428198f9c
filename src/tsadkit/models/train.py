"""The reconstruction-model stage: raw, PCA, UAE, and FC AE.

``fit`` returns the model its config's kind names and runs no inference.
A fitted model has a ``window_length`` (1 for raw and PCA),
``fit_reports`` (none for raw and PCA) and ``residuals(stream)``: the
signed errors for a stream that already holds any training tail, one row
per window. RawModel's error is the signal; PcaModel reconstructs each
row; WindowedAutoencoder serves UAE (one MLP per channel) and FC-AE (one
MLP on all channels), each MLP a row of one parameter matrix, and its
error at time t is the observed minus the reconstructed value at the
LAST position of the window ending at t.
``residuals`` prepends the training tail and runs stride-1 inference,
training and test errors alike.
"""
from __future__ import annotations

import threading
from concurrent.futures import wait
from dataclasses import dataclass, replace
from itertools import accumulate
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
from .mlp import DTYPE, MlpStack, adam_step, autoencoder_widths, forward, init_params, loss
from .pca import PcaModel

MODEL_KINDS = ("raw", "pca", "uae", "fc_ae")

_DTYPE_MAX = float(np.finfo(DTYPE).max)
MAX_LEARNING_RATE = _DTYPE_MAX
_FORWARD_CHUNK = 8192
# most groups in one slice: larger slices hold more buffers and gain little
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
        # Adam scales float32 steps by the rate, which must cast to float32
        if self.learning_rate is not None and not 0 < self.learning_rate <= MAX_LEARNING_RATE:
            raise ConfigError(
                f"learning_rate must be in (0, {MAX_LEARNING_RATE:.8g}], got {self.learning_rate}"
            )
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


def _group_rows(windows: FloatArray, g: int, width: int) -> FloatArray:
    """(count, l_w, m) windows as one row per window for group g, channels
    g*width to (g+1)*width flattened time-major, so the last ``width``
    columns are the last time-point.

    This is a view of the windows. numpy multiplies a non-contiguous
    matrix in its own loop, which rounds differently from BLAS, so callers
    multiply contiguous copies only.
    """
    return windows[:, :, g * width : (g + 1) * width].reshape(windows.shape[0], -1)


@dataclass(frozen=True, eq=False)
class WindowedAutoencoder:
    """MLP autoencoders on sliding windows, one per group of ``width``
    adjacent channels: one channel a group for UAE, all of them for FC-AE.

    Row g of the read-only (G, P) ``params`` is group g's network, of the
    chain ``widths``. The error at time t is the signed difference between
    the observed and the reconstructed value at the last position of the
    window ending at t. Inference maps the groups over the BLAS's lent
    threads, one group per task.
    """

    window_length: int
    widths: tuple[int, ...]
    params: FloatArray
    width: int
    fit_reports: tuple[FitReport, ...]

    def __post_init__(self):
        self.params.flags.writeable = False

    def residuals(self, stream: FloatArray) -> ErrorMatrix:
        m = len(self.params) * self.width
        if stream.shape[1] != m:
            raise ValidationError(f"series has {stream.shape[1]} channels, model has {m}")
        # inference casts to DTYPE, where such a value would become inf
        if stream.max() > _DTYPE_MAX or stream.min() < -_DTYPE_MAX:
            row, channel = np.argwhere(np.abs(stream) > _DTYPE_MAX)[0]
            raise ValidationError(
                f"channel {channel} holds {stream[row, channel]:.6g}, outside "
                f"{np.dtype(DTYPE).name}'s range of +-{_DTYPE_MAX:.6g}"
            )
        l_w = self.window_length
        n_out = stream.shape[0] - l_w + 1
        windows = make_windows(stream, WindowSpec(l_w))  # (n_out, l_w, m), no copy
        observed_last = stream[l_w - 1 :]
        err = np.empty((n_out, stream.shape[1]), dtype=np.float64)

        def infer_group(g: int) -> None:
            # each group writes only its own columns of err
            channels = slice(g * self.width, (g + 1) * self.width)
            for lo in range(0, n_out, _FORWARD_CHUNK):
                hi = min(lo + _FORWARD_CHUNK, n_out)
                rows = np.ascontiguousarray(_group_rows(windows[lo:hi], g, self.width), DTYPE)
                recon = forward(self.widths, self.params[g], rows)
                err[lo:hi, channels] = observed_last[lo:hi, channels] - recon[:, -self.width :]

        _on_lent_threads(infer_group, range(len(self.params)))
        return err


def _on_lent_threads(fn, tasks) -> list:
    """``fn`` over ``tasks`` (groups, or slices of them) in order, on the
    BLAS's lent threads; the first task to fail in that order raises.

    Called from outside the pool: a task that waited on the pool it runs
    in could wait for itself."""
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


class _Groups:
    """The training state of a fit's autoencoder groups, which every
    epoch's slices share.

    Row r of the (G, P) ``params``, ``m`` and ``v`` (the parameters and
    Adam moments) belongs to group ``live[r]`` for r below ``len(live)``;
    the rows after those are spent. ``best`` (the best-validation
    parameters) and the report lists are indexed by group. A slice writes
    only its own rows and its own groups' entries.
    """

    def __init__(self, windows: FloatArray, width: int, config: ModelConfig, seed: int):
        self.config = config
        self.n_split = _chronological_split(windows.shape[0], config.validation_fraction)
        count = windows.shape[2] // width
        self.rows = [_group_rows(windows, g, width) for g in range(count)]
        # one generator draws the init and every batch order, as for one network alone
        self.rng = np.random.default_rng(seed)
        self.widths = autoencoder_widths(self.rows[0].shape[1], config.latent_dim)
        self.params = np.tile(init_params(self.widths, self.rng), (count, 1))
        self.m = np.zeros_like(self.params)
        self.v = np.zeros_like(self.params)
        self.best = self.params.copy()
        self.live = list(range(count))
        self.best_val = [np.inf] * count
        self.best_epoch = [-1] * count
        self.stall = [0] * count
        self.epochs_run = [0] * count
        self.stores: dict[int, list[FloatArray]] = {}  # stack buffers by lent thread


def _slices(live: int, threads: int) -> list[tuple[int, int]]:
    """(lo, hi) of k = min(live, B * ceil(live / (B * _STACK_MEMBERS)))
    contiguous slices of ``live`` members for B threads, sizes differing
    by at most one, the larger first: at B = 2, 8 members are 4 + 4, 5
    are 3 + 2 and 33 are ten slices of at most 4."""
    k = min(live, threads * -(-live // (threads * _STACK_MEMBERS)))
    size, larger = divmod(live, k)
    bounds = list(accumulate((size + (i < larger) for i in range(k)), initial=0))
    return list(zip(bounds[:-1], bounds[1:]))


def _train_slice(
    fit: _Groups, lo: int, hi: int, order: np.ndarray, epoch: int
) -> tuple[list[int], tuple[int, TrainingError] | None]:
    """One epoch of the members in rows lo:hi of ``fit``, in lockstep on
    the batches of ``order``, then each member's validation. The i-th
    batch (from 1) is Adam's step ``epoch * len(batches) + i`` over the
    moments in the same rows of ``fit.m`` and ``fit.v``.

    Returns the rows whose members train on, and the (group, error) of
    the first member whose loss became non-finite, or None. That member
    and every later member of the slice run on, unread, until the epoch
    ends, then leave; the earlier ones go on.
    """
    config = fit.config
    members = fit.live[lo:hi]  # those before the first failure
    thread = threading.get_ident()
    batches = range(0, fit.n_split, config.batch_size)
    net = MlpStack(fit.widths, fit.params[lo:hi], fit.stores.get(thread, ()))
    failure = None
    for i, start in enumerate(batches, 1):
        batch = order[start : start + config.batch_size]
        # a value beyond DTYPE's range casts to inf and an update may
        # overflow: a non-finite loss, read for the members before a failure
        with np.errstate(over="ignore", invalid="ignore"):
            for g, inputs in zip(members, net.inputs(len(batch))):
                inputs[...] = fit.rows[g][batch]
            bad = np.flatnonzero(~np.isfinite(net.losses()[: len(members)]))
            if bad.size:
                error = TrainingError(f"training loss became non-finite at epoch {epoch}")
                failure = (members[bad[0]], error)
                members = members[: bad[0]]
            net.backward()
            adam_step(net.flat_params, net.flat_grads, fit.m[lo:hi], fit.v[lo:hi],
                      epoch * len(batches) + i, config.learning_rate)
    fit.stores[thread] = net.store  # for this thread's next slice
    del net  # the gradients, before validation
    staying = []
    for row, g in enumerate(members, lo):
        fit.epochs_run[g] = epoch + 1
        # copied per epoch: holding every member's copy peaks higher
        with np.errstate(over="ignore"):
            val_rows = np.ascontiguousarray(fit.rows[g][fit.n_split :], DTYPE)
        val_loss = loss(fit.widths, fit.params[row], val_rows)
        if not np.isfinite(val_loss):
            error = TrainingError(f"validation loss became non-finite at epoch {epoch}")
            return staying, (g, error)
        if val_loss < fit.best_val[g]:
            fit.best_val[g] = val_loss
            fit.best_epoch[g] = epoch
            fit.best[g] = fit.params[row]
            fit.stall[g] = 0
        else:
            fit.stall[g] += 1
            if fit.stall[g] >= config.patience:
                continue
        staying.append(row)
    return staying, failure


def _train_groups(
    windows: FloatArray, width: int, config: ModelConfig, seed: int
) -> WindowedAutoencoder:
    """Train one autoencoder per group of ``width`` adjacent channels,
    each on its own group's window rows, in one epoch loop.

    The split is chronological: first (1 - validation_fraction) of windows
    train, the rest validate. Each member stops on its own patience and
    gets its best-validation weights back. Every member draws its initial
    weights and batch orders from one generator seeded ``seed``, the draws
    one network would make alone. Each epoch cuts the members left into
    ``_slices`` for the B lent threads, one ``_train_slice`` task each, so
    a member's weights and report do not depend on its slice. A member
    whose loss is non-finite leaves with every later member, and the fit
    raises the error of its first failing member once the earlier ones
    are done, as one network after another would. The fitted model's
    parameters are the best-validation matrix itself.
    """
    fit = _Groups(windows, width, config, seed)
    threads = blas_threads() or 1
    failure = None
    for epoch in range(config.max_epochs):
        order = fit.rng.permutation(fit.n_split)
        outcomes = _on_lent_threads(
            lambda bounds: _train_slice(fit, *bounds, order, epoch),
            _slices(len(fit.live), threads),
        )
        staying = [row for rows, _ in outcomes for row in rows]
        failures = [f for _, f in outcomes if f is not None]
        if failures:
            # slices are in group order, and every member left precedes
            # an earlier failure: the first is the lowest group's
            failure = failures[0]
            staying = [row for row in staying if fit.live[row] < failure[0]]
        fit.live = [fit.live[row] for row in staying]
        if staying != list(range(len(staying))):
            # the rows left move to the front; a prefix is already there
            for state in (fit.params, fit.m, fit.v):
                state[: len(staying)] = state[staying]
        if not fit.live:
            break
    if failure is not None:
        raise failure[1]
    del fit.params, fit.m, fit.v, fit.stores  # before the full-size passes below

    def report(g: int) -> FitReport:
        train_rows = np.ascontiguousarray(fit.rows[g][: fit.n_split], DTYPE)
        return FitReport(
            channel=g if config.kind == "uae" else None,
            epochs_run=fit.epochs_run[g],
            best_epoch=fit.best_epoch[g],
            best_val_loss=float(fit.best_val[g]),
            final_train_loss=float(loss(fit.widths, fit.best[g], train_rows)),
        )

    reports = _on_lent_threads(report, range(len(fit.rows)))
    return WindowedAutoencoder(windows.shape[1], fit.widths, fit.best, width, tuple(reports))


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
    one at any BLAS thread count. Autoencoders train their groups in one
    epoch loop on this thread: each epoch cuts the groups still training
    into k = min(live, B * ceil(live / 4B)) contiguous slices whose sizes
    differ by at most one, each a task on one of the B threads the pin
    takes; a member's bits do not depend on its slice. The parameters and
    Adam moments of every group are one (G, P) matrix each for the whole
    fit, the groups still training in its first rows.
    """
    m = train.m
    config = config.resolved(m)
    with lend_threads():
        if config.kind == "raw":
            return RawModel()
        if config.kind == "pca":
            return PcaModel.fit(train.values, config.pca_variance_fraction)
        width = 1 if config.kind == "uae" else m  # fc_ae: one group of all channels
        return _train_groups(make_windows(train, window), width, config, seed)


def residuals(
    model: ReconstructionModel,
    x: SeriesMatrix,
    train_tail: SeriesMatrix | None = None,
) -> ErrorMatrix:
    """Signed reconstruction errors for x, one row per scored time-point.

    Inference always uses stride 1 regardless of the training step. For
    windowed models, pass the training rows (at least the last l_w - 1; a
    shorter tail is refused) as ``train_tail`` to obtain an error for
    every row of x; without a tail the first l_w - 1 rows cannot be scored
    and the output is correspondingly shorter (rows align with x rows
    l_w - 1 onward), as for the training series itself. The model checks
    x's width. Inference runs inside the BLAS pin, as ``fit`` does.
    """
    keep = model.window_length - 1
    stream = x.values
    if train_tail is not None:
        if train_tail.m != x.m:
            raise ValidationError(f"train_tail has {train_tail.m} channels, series has {x.m}")
        if train_tail.n < keep:
            raise InsufficientDataError(
                f"train_tail has {train_tail.n} rows, windowed inference needs its last {keep}"
            )
        if keep:
            stream = np.concatenate([train_tail.values[-keep:], stream], axis=0)
    if stream.shape[0] <= keep:
        raise InsufficientDataError(
            f"need at least {keep + 1} rows for windowed inference, got {stream.shape[0]}"
        )
    with lend_threads():
        return model.residuals(stream)
