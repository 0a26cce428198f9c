"""Small fully-connected autoencoders in plain numpy.

Encoder widths halve repeatedly from the input dimension down to the
latent size p; the decoder mirrors them. Hidden layers use tanh, the
output layer is linear. Training uses hand-written backpropagation with
the Adam update rule, so gradients are checkable against finite
differences.

``MlpStack`` holds G networks of one width chain, one per row of a
(G, P) parameter matrix, and is where the backpropagation lives: every
step runs once over the whole stack. A stacked product of C-contiguous
(or transposed) members is one BLAS call per member in numpy's matmul
loop, the call the member would make alone, and elementwise work rounds
the same whatever array holds it, so a member's gradients do not depend
on its stack. A network is its parameter vector alone (``init_params``):
``forward`` and ``loss`` run one for inference and validation, each
layer through the same ``_activate`` step as the stack.

Parameters, activations, gradients and Adam moments are float32
(``DTYPE``), half the bytes of float64. Callers cast every input in the
copy they make, since numpy promotes a float64 @ float32 product to
float64 without a word. ``adam_step`` is one step over moments its
caller holds, and it writes its denominator into the gradients; its
scratch, like the stack's buffers, takes the dtype of the parameters it
is given, so a float64 network runs the same code.
"""
from __future__ import annotations

import math

import numpy as np

from ..core import ConfigError, FloatArray

DTYPE = np.float32


def encoder_widths(input_dim: int, latent_dim: int) -> tuple[int, ...]:
    """Width chain from input_dim down to latent_dim, halving each step.

    Each step is max(latent_dim, prev // 2); for input 100 and latent 5
    this gives 100-50-25-12-6-5. The input must be strictly wider than the
    latent size, otherwise there is no bottleneck to speak of.
    """
    if latent_dim < 1:
        raise ConfigError(f"latent_dim must be >= 1, got {latent_dim}")
    if input_dim <= latent_dim:
        raise ConfigError(
            f"input_dim must exceed latent_dim, got {input_dim} <= {latent_dim}"
        )
    widths = [input_dim]
    while widths[-1] > latent_dim:
        widths.append(max(latent_dim, widths[-1] // 2))
    return tuple(widths)


def autoencoder_widths(input_dim: int, latent_dim: int) -> tuple[int, ...]:
    """Full encoder + mirrored decoder width chain."""
    enc = encoder_widths(input_dim, latent_dim)
    return enc + enc[-2::-1]


def _layers(
    widths: tuple[int, ...], flat: FloatArray
) -> tuple[list[FloatArray], list[FloatArray]]:
    """Weight and bias views into ``flat``, laid out w0, b0, w1, b1, ...
    along its last axis: one network's vector, or a stack's (G, P) matrix."""
    weights, biases = [], []
    lo = 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        mid = lo + fan_in * fan_out
        weights.append(flat[..., lo:mid].reshape(*flat.shape[:-1], fan_in, fan_out))
        biases.append(flat[..., mid : mid + fan_out])
        lo = mid + fan_out
    return weights, biases


def _activate(h: FloatArray, bias: FloatArray, last: bool) -> None:
    """The elementwise half of a layer, in place on its product ``h``: add
    the bias, then tanh unless this is the output layer.

    Inference (``forward``) and training (``MlpStack.losses``) both run
    each layer as the member's own 2-D product followed by this step, so
    a member trains on the activations its network computes at inference.
    """
    h += bias
    if not last:
        np.tanh(h, out=h)


def init_params(widths: tuple[int, ...], rng: np.random.Generator) -> FloatArray:
    """A network's parameter vector, laid out w0, b0, w1, b1, ..., in
    ``DTYPE``: weights uniform in +-sqrt(6/(fan_in+fan_out)), drawn layer
    by layer from the given generator so the draw is deterministic, and
    biases at zero."""
    if len(widths) < 2:
        raise ConfigError("need at least an input and an output layer")
    size = sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(widths[:-1], widths[1:]))
    params = np.zeros(size, dtype=DTYPE)
    for w in _layers(widths, params)[0]:
        fan_in, fan_out = w.shape
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
    return params


def forward(widths: tuple[int, ...], params: FloatArray, x: FloatArray) -> FloatArray:
    """The reconstruction of ``x``'s rows by the network ``params``, in the
    parameters' dtype; an input of another dtype is cast first."""
    h = x.astype(params.dtype, copy=False)
    weights, biases = _layers(widths, params)
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w
        _activate(h, b, i == last)
    return h


def loss(widths: tuple[int, ...], params: FloatArray, batch: FloatArray) -> np.floating:
    """Mean squared reconstruction error of the network ``params`` over
    every element of the batch, computed in the parameters' dtype."""
    batch = batch.astype(params.dtype, copy=False)
    # inf and nan are fine here; callers treat non-finite loss as divergence
    with np.errstate(over="ignore", invalid="ignore"):
        # forward's output is a fresh array: subtract and square in place
        diff = forward(widths, params, batch)
        diff -= batch
        np.multiply(diff, diff, out=diff)
        return np.mean(diff)


class MlpStack:
    """G autoencoders of one width chain, trained in lockstep on a batch each.

    Row g of the (G, P) ``flat_params`` is member g's parameter vector, in
    ``init_params``' layout, and ``backward`` writes its gradient into
    row g of ``flat_grads``. A step fills each member's input rows
    (``inputs``), runs the forward pass (``losses``) and the backward pass
    (``backward``). The activations and deltas live in buffers that the
    stack reuses from step to step.
    """

    def __init__(
        self, widths: tuple[int, ...], flat_params: FloatArray, store: list[FloatArray] = ()
    ):
        """``store``, the buffers of an earlier stack of these widths, is
        reused for every batch it holds."""
        self.widths = tuple(widths)
        self.flat_params = flat_params
        self.flat_grads = np.zeros_like(flat_params)
        self.store = list(store)  # buffers for self._capacity rows a member
        self._capacity = len(self.store) and self.store[0].size // (self.size * self.widths[0])
        # stacked (G, fan_in, fan_out) weight and weight-gradient views, and
        # the weights' transposes; stacked bias views
        self._weights, biases = _layers(self.widths, self.flat_params)
        self._weights_t = [w.transpose(0, 2, 1) for w in self._weights]
        self._grad_w, self._grad_b = _layers(self.widths, self.flat_grads)
        # (G, 1, fan_out), to broadcast over a (G, rows, fan_out) stack
        self._biases = [b[:, None, :] for b in biases]
        self._rows = 0  # the batch the buffer views below are cut for; 0: none

    @property
    def size(self) -> int:
        return self.flat_params.shape[0]

    def inputs(self, rows: int) -> FloatArray:
        """The (G, rows, input width) input buffer, one (rows, input width)
        block a member, for the caller to fill before ``losses``."""
        if rows > self._capacity:
            # one buffer per activation, and two that the deltas alternate in
            dtype = self.flat_params.dtype
            self.store = [np.empty(self.size * rows * w, dtype) for w in self.widths]
            self.store += [np.empty(self.size * rows * max(self.widths), dtype) for _ in range(2)]
            self._capacity = rows
        if rows != self._rows:
            self._view(rows)
        return self._acts[0]

    def _view(self, rows: int) -> None:
        """Contiguous (G, rows, width) views of the buffers."""
        count = self.size
        self._rows = rows
        self._acts = [s[: count * rows * w].reshape(count, rows, w)
                      for s, w in zip(self.store, self.widths)]
        # the delta at layer i's input, in the delta buffer of i's parity
        self._deltas = [self.store[-2 + i % 2][: count * rows * w].reshape(count, rows, w)
                        for i, w in enumerate(self.widths)]

    def losses(self) -> FloatArray:
        """Forward pass on the filled inputs: each member's reconstruction MSE."""
        acts = self._acts
        last = len(self._weights) - 1
        # inf and nan are fine here, as in ``loss``
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(last + 1):
                # each member's product as ``forward`` makes it
                np.matmul(acts[i], self._weights[i], out=acts[i + 1])
                _activate(acts[i + 1], self._biases[i], i == last)
            delta = acts[-1]
            delta -= acts[0]
            squares = np.multiply(delta, delta, out=self._deltas[-1])
            return np.add.reduce(squares.reshape(self.size, -1), axis=1) / delta[0].size

    def backward(self) -> None:
        """Gradients of the last ``losses`` into ``flat_grads``, row by member.

        Overwrites the activations it no longer needs.
        """
        acts = self._acts
        delta = acts[-1]
        delta *= 2.0 / delta[0].size
        for i in range(len(self._weights) - 1, -1, -1):
            np.matmul(acts[i].transpose(0, 2, 1), delta, out=self._grad_w[i])
            delta.sum(axis=1, out=self._grad_b[i])
            if i > 0:
                nxt = self._deltas[i]
                np.matmul(delta, self._weights_t[i], out=nxt)
                # tanh' = 1 - tanh^2, from the activation this layer no longer needs
                a_prev = acts[i]
                np.multiply(a_prev, a_prev, out=a_prev)
                np.subtract(1.0, a_prev, out=a_prev)
                nxt *= a_prev
                delta = nxt


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's decay rates and denominator floor


def adam_step(
    params: FloatArray, grads: FloatArray, m: FloatArray, v: FloatArray, t: int,
    learning_rate: float,
) -> None:
    """Adam's step ``t`` (from 1) over one flat parameter vector, or a
    (G, P) stack of them, and its moments ``m`` and ``v``, all in place.
    ``grads`` is overwritten: it holds the denominator once ``v`` is done.

    Every operation is elementwise, so one fused update rounds exactly as
    separate updates of each network and of each of its arrays would.
    """
    bias1, bias2 = 1.0 - BETA1**t, 1.0 - BETA2**t
    step = np.empty_like(params)
    # the operations of params -= lr * (m / bias1) / (sqrt(v / bias2) + eps),
    # in that order, with m and v updated first
    m *= BETA1
    m += np.multiply(grads, 1.0 - BETA1, out=step)
    v *= BETA2
    np.multiply(grads, grads, out=step)
    step *= 1.0 - BETA2
    v += step
    denom = np.divide(v, bias2, out=grads)
    np.sqrt(denom, out=denom)
    denom += EPS
    np.divide(m, bias1, out=step)
    step *= float(learning_rate)
    step /= denom
    params -= step
