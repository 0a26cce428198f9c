"""Scoring functions: transform residuals into per-time anomaly scores.

Four scorers share the same shape contract: per-channel scores for every
column they are given plus a series that sums them all, in index order.
A caller that scores a channel subset passes only its columns.

  error    squared mean-centered residuals; the series is their RMS.
  gauss_s  -log10 survival of a static per-channel Gaussian fitted on
           training residuals; channel scores are summed. Computed in
           steps of ``_STEP`` rows, as gauss_d's survival is.
  gauss_d  the same transform with rolling mean/std over the W most
           recent errors (current point included), the training tail
           prepended so the window never starts empty; computed in row
           blocks, each block's window statistics and survival in
           steps of ``_STEP`` rows.
  gauss_d_k  gauss_d channel scores smoothed by a truncated, unit-sum
           Gaussian kernel before aggregation.

Every scorer is a pure function of its inputs: it allocates its own
work arrays and keeps nothing between calls, so calls on other threads
share no state. Each works on any run of rows: error and gauss_s row by
row, gauss_d on the ``row_blocks`` grid given the W-1 error rows before
a piece, gauss_d_k given the kernel radius of rows on each side. A run
scores its test stream one block at a time this way (see experiment),
carrying rows with ``last_rows`` as gauss_d does between its own
blocks, and gets the whole-stream scores bit for bit.

All logs are base 10 so that the tail-p threshold -m*log10(eps) lives on
the same scale as the scores. z-scores are clamped to [-8, 8] before the
survival function, capping each channel score near 15.2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._special import neg_log_normal_sf
from .core import (
    ChannelScores,
    ErrorMatrix,
    FloatArray,
    InsufficientDataError,
    ScoreSeries,
    ValidationError,
    check_float_matrix,
)

SIGMA_FLOOR = 1e-4
# gauss_d indexes its windows in int64
MAX_WINDOW = 2**63 - 1
# a float per kernel tap: 2 * 3 * 2**16 + 1 taps, ~3 MB at most
MAX_KERNEL_SIGMA = 2**16
Z_CLAMP = 8.0
_LN10 = math.log(10.0)
# rows per block of gauss_d scoring and of the series sums; their
# temporaries are sized by it, not by the test length
_BLOCK = 1 << 14
# rows per step of gauss_d's window statistics and survival within a
# block: each row needs only its own prefix sums, so the step sizes their
# temporaries and not the block; two cells scoring at once then hold two
# blocks of prefix sums rather than two blocks of survival temporaries
_STEP = 1 << 11
# a window whose squared spread is below this fraction of its row's prefix
# sum of squares keeps fewer than ~32 of its 53 bits through the difference
# of two prefix sums, so gauss_d sums it again from its own rows
_LOST = 2.0**-20


def _row_sums(channels: ChannelScores) -> ScoreSeries:
    """Sum of the channels per row, added to 0.0 one at a time in index
    order, one block of rows at a time. The loop, not the array's layout,
    fixes the order: numpy sums a lone row of 8 or more pairwise."""
    series = np.zeros(channels.shape[0])
    for a in range(0, channels.shape[0], _BLOCK):
        out = series[a : a + _BLOCK]
        for i in range(channels.shape[1]):
            out += channels[a : a + _BLOCK, i]
    return series


def row_blocks(n: int):
    """[a, b) blocks of ``_BLOCK`` rows on the grid gauss_d scores on; the
    last block also takes the rows left over, so no block is shorter than
    ``_BLOCK`` unless the stream is. A product over a few rows can round
    differently from the same rows inside a larger one: numpy sends a
    single row to gemv, and OpenBLAS sends small products to other
    kernels."""
    starts = range(0, n - _BLOCK + 1, _BLOCK) or range(1)
    return zip(starts, [*starts[1:], n])


def last_rows(before: FloatArray, block: FloatArray, k: int) -> FloatArray:
    """The last ``k`` rows of ``before`` followed by ``block``, as a new
    array that holds on to neither: the rows a stage carries from one
    block to the next."""
    take = min(k, block.shape[0])
    return np.concatenate(
        [before[max(before.shape[0] - (k - take), 0) :], block[block.shape[0] - take :]]
    )


def _neg_log10_survival(z: FloatArray) -> FloatArray:
    # -log10(1 - Phi(z)), stable deep into the upper tail
    return neg_log_normal_sf(z) / _LN10


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
class KernelSpec:
    """Gaussian smoothing kernel: 0 < sigma_k <= MAX_KERNEL_SIGMA, truncated
    at 3*ceil(sigma_k)."""

    sigma_k: float

    def __post_init__(self):
        if not 0 < self.sigma_k <= MAX_KERNEL_SIGMA:
            raise ValidationError(f"sigma_k must be in (0, 2**16], got {self.sigma_k}")

    @property
    def radius(self) -> int:
        return 3 * math.ceil(self.sigma_k)

    def weights(self) -> FloatArray:
        u = np.arange(-self.radius, self.radius + 1, dtype=np.float64)
        # below sigma_k ~1e-154 the square overflows to inf off the centre,
        # and exp(-inf) = 0 is the one-hot limit the kernel tends to
        with np.errstate(over="ignore"):
            w = np.exp(-0.5 * (u / self.sigma_k) ** 2)
        return w / w.sum()


def score_error(test_err: ErrorMatrix, train_mean: FloatArray) -> tuple[ChannelScores, ScoreSeries]:
    """Squared mean-centered errors per channel; the series is their
    root mean over the channels.

    a_t = sqrt(mean_i (Er_t^i - train_mean^i)^2).
    """
    err = check_float_matrix(test_err, "test errors")
    if not err.shape[1]:
        raise ValidationError("no channels to score")
    mean = np.asarray(train_mean, dtype=np.float64)
    if mean.shape != (err.shape[1],):
        raise ValidationError(
            f"train_mean has shape {mean.shape}, expected ({err.shape[1]},)"
        )
    # centred and squared in place: no temporary beside the output
    channels = np.subtract(err, mean, out=np.empty(err.shape))
    channels **= 2
    return channels, np.sqrt(_row_sums(channels) / err.shape[1])


def fit_gauss(train_err: ErrorMatrix) -> GaussParams:
    """Sample mean and sample std (n-1 denominator) per channel, floored."""
    err = check_float_matrix(train_err, "train errors")
    if err.shape[0] < 2:
        raise InsufficientDataError(
            f"need at least 2 training error rows to fit, got {err.shape[0]}"
        )
    return GaussParams(err.mean(axis=0), err.std(axis=0, ddof=1))


def score_gauss_s(test_err: ErrorMatrix, params: GaussParams) -> tuple[ChannelScores, ScoreSeries]:
    """Static Gaussian survival scores; aggregation is a plain channel sum."""
    err = check_float_matrix(test_err, "test errors")
    if err.shape[1] != params.m:
        raise ValidationError(f"{err.shape[1]} channels, params has {params.m}")
    n = err.shape[0]
    channels = np.empty(err.shape)
    scratch = np.empty((min(n, _STEP), params.m))
    for a in range(0, n, _STEP):
        b = min(a + _STEP, n)
        z = np.subtract(err[a:b], params.mu, out=scratch[: b - a])
        z /= params.sigma
        np.clip(z, -Z_CLAMP, Z_CLAMP, out=z)
        channels[a:b] = _neg_log10_survival(z)
    return channels, _row_sums(channels)


def _padded_lengths(w: int) -> tuple[list[int], list[int]]:
    """The row lengths numpy's pairwise sum reaches from a row of ``w``
    entries by dropping left halves, and the entries dropped to reach each.

    A row of more than 128 entries is summed as its two halves, split at
    half its length rounded down to a multiple of 8, and a left half of
    +0.0 entries adds exactly +0.0, so a row padded at its start with +0.0
    sums to the same bits once every all-zero left half is dropped.
    """
    lengths, drops = [w], [0]
    while lengths[-1] > 128:
        half = lengths[-1] // 2 - lengths[-1] // 2 % 8
        lengths.append(lengths[-1] - half)
        drops.append(drops[-1] + half)
    return lengths, drops


def _sum_again(stream, end, w: int, lost, mu, q) -> None:
    """Two-pass mean and squared spread of the ``lost`` windows, the last
    ``w`` rows of ``stream`` before ``end`` (fewer at its start), over
    their entries of ``mu`` and ``q``; a step array's worth at a time.

    A window that starts before the stream is padded with +0.0 only to the
    length its full row of ``w`` sums at (``_padded_lengths``), so its
    cost is bounded by the rows it reaches, not by W; the windows of each
    padded length are summed together.
    """
    rows, cols = np.nonzero(lost)
    lengths, drops = _padded_lengths(w)
    # halves dropped per window: those that lie wholly before the stream
    dropped = np.searchsorted(drops[1:], w - end[rows], "right")
    for k, length in enumerate(lengths):
        pick = np.flatnonzero(dropped == k)
        if not pick.size:  # a row of W entries may not fit in memory
            continue
        span = np.arange(length)
        chunk = max(1, _STEP * stream.shape[1] // length)
        for lo in range(0, pick.size, chunk):
            r, c = rows[pick[lo : lo + chunk]], cols[pick[lo : lo + chunk]]
            at = end[r, None] - length + span
            x = stream[np.maximum(at, 0), c[:, None]]
            x[at < 0] = 0.0
            mu[r, c] = x.sum(axis=1) / np.minimum(w, end[r])
            x -= mu[r, c][:, None]
            x[at < 0] = 0.0
            q[r, c] = (x * x).sum(axis=1)


def score_gauss_d(
    test_err: ErrorMatrix,
    train_tail_err: ErrorMatrix | None,
    w: int,
) -> tuple[ChannelScores, ScoreSeries]:
    """Gaussian survival scores with rolling mean and sample std.

    The statistics at time t cover the W = ``w`` >= 2 most recent errors
    ending at and including t. The last W-1 training residual rows should
    be passed as ``train_tail_err``; with a shorter tail the early windows
    shrink to the available history. A window of a single point carries no
    deviation evidence, so its z is 0.

    Rows are scored in blocks of ``_BLOCK``, each with the W-1 rows before
    it carried over by ``last_rows`` and centered on its own mean, so only
    the outputs are full length and the prefix sums stay at the scale of
    one block. A window whose squared spread falls below ``_LOST`` of its
    row's prefix sum of squares, as after a level shift within the block,
    would keep too few digits of it, so its mean and spread are summed
    again from its own rows. A caller that scores a stream in pieces passes
    each piece starting on that grid with the W-1 error rows before
    it as the tail; it then gets the whole-stream scores bit for bit.
    """
    if w < 2:
        raise ValidationError(f"dynamic window must be >= 2, got {w}")
    if w > MAX_WINDOW:
        raise ValidationError(f"dynamic window must be <= 2**63 - 1, got {w}")
    err = check_float_matrix(test_err, "test errors")
    m = err.shape[1]
    if train_tail_err is None:
        history = np.empty((0, m), dtype=np.float64)
    else:
        history = check_float_matrix(train_tail_err, "train tail errors")
        if history.shape[1] != m:
            raise ValidationError(f"tail has {history.shape[1]} channels, errors have {m}")
    history = history[max(history.shape[0] - (w - 1), 0) :]

    n = err.shape[0]
    step = min(n, _STEP)
    # a block's stream: its rows and the at most W-1 rows carried before it
    cs = np.empty((min(n, _BLOCK) + min(w - 1, history.shape[0] + n) + 1, m))
    cs2 = np.empty_like(cs)
    cs[0] = cs2[0] = 0.0
    mean, sigma, scratch = (np.empty((step, m)) for _ in range(3))
    channels = np.empty((n, m))
    for a in range(0, n, _BLOCK):
        b = min(a + _BLOCK, n)
        k, pre = b - a, history.shape[0]
        n_stream = pre + k
        # the stream is written, centered and summed in place in the prefix
        # sums; centered per channel on its own mean, they scale with the
        # block rather than with n, and z is invariant to a shift
        stream, square = cs[1 : n_stream + 1], cs2[1 : n_stream + 1]
        stream[:pre] = history
        stream[pre:] = err[a:b]
        centre = stream.mean(axis=0)
        stream -= centre
        np.multiply(stream, stream, out=square)
        np.cumsum(square, axis=0, out=square)
        np.cumsum(stream, axis=0, out=stream)
        rebuilt = None  # the centered stream, built again only for lost windows

        for s in range(0, k, step):
            e = min(s + step, k)
            j = e - s
            # the stream starts at the first row or W-1 rows back, so its
            # local end index caps the window as the global one would
            end = pre + np.arange(s + 1, e + 1)
            win = np.minimum(w, end).astype(np.float64)[:, None]
            start = end - win[:, 0].astype(np.int64)
            # take with mode="clip" writes straight into ``out``; every
            # index is in range, so it is the plain gather
            mu = np.take(cs, end, axis=0, out=mean[:j], mode="clip")
            mu -= np.take(cs, start, axis=0, out=scratch[:j], mode="clip")
            mu /= win
            var = np.take(cs2, end, axis=0, out=sigma[:j], mode="clip")
            var -= np.take(cs2, start, axis=0, out=scratch[:j], mode="clip")
            spread = np.multiply(win, mu, out=scratch[:j])
            spread *= mu
            var -= spread
            limit = np.take(cs2, end, axis=0, out=scratch[:j], mode="clip")
            limit *= _LOST
            lost = var < limit
            if lost.any():
                # a window flagged under a limit below the floor gets SIGMA_FLOOR anyway
                lost &= limit > SIGMA_FLOOR**2
                if rebuilt is None:
                    rebuilt = np.concatenate([history, err[a:b]])
                    rebuilt -= centre
                _sum_again(rebuilt, end, w, lost, mu, var)
            var /= np.maximum(win - 1.0, 1.0)
            np.clip(var, 0.0, None, out=var)
            sd = np.sqrt(var, out=var)
            np.maximum(sd, SIGMA_FLOOR, out=sd)

            # the row's centered error, as the prefix sums took it
            z = np.subtract(err[a + s : a + e], centre, out=scratch[:j])
            z -= mu
            z /= sd
            z[win[:, 0] < 2.0] = 0.0
            np.clip(z, -Z_CLAMP, Z_CLAMP, out=z)
            channels[a + s : a + e] = _neg_log10_survival(z)
        history = last_rows(history, err[a:b], w - 1)
    return channels, _row_sums(channels)


def score_gauss_d_k(
    gauss_d_channels: ChannelScores,
    kernel: KernelSpec,
    context: tuple[int, int] = (0, 0),
) -> tuple[ChannelScores, ScoreSeries]:
    """Smooth gauss_d channel scores with a truncated Gaussian kernel.

    Each channel is convolved with the unit-sum kernel, boundaries handled
    by edge replication, then aggregated by the usual channel sum.

    ``context`` counts rows at the start and at the end of the input that
    only feed their neighbours' smoothing; the output covers the rows
    between them. Each side is replicated from its outermost row for the
    part of the kernel radius its context does not cover, so a caller
    smoothing a stream in pieces passes the radius of rows on each side,
    or fewer only where the piece reaches the stream's end; it then gets
    the whole-stream smoothing bit for bit.
    """
    channels_in = check_float_matrix(gauss_d_channels, "channel scores")
    n_in, m = channels_in.shape
    r = kernel.radius
    before, after = context
    if min(before, after) < 0 or before + after >= n_in:
        raise ValidationError(f"context {context} leaves no rows of {n_in} to smooth")
    # context beyond the radius reaches no output row
    rows = channels_in[before - min(before, r) : n_in - after + min(after, r)]
    pad = (r - min(before, r), r - min(after, r))
    weights = kernel.weights()
    smoothed = np.empty((n_in - before - after, m))
    for i in range(m):
        padded = np.pad(rows[:, i], pad, mode="edge")
        smoothed[:, i] = np.convolve(padded, weights, mode="valid")
    return smoothed, _row_sums(smoothed)
