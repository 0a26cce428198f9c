"""Small fully-connected autoencoders in plain numpy.

Encoder widths halve repeatedly from the input dimension down to the
latent size p; the decoder mirrors them. Hidden layers use tanh, the
output layer is linear. Training uses hand-written backpropagation with
the Adam update rule, so gradients are checkable against finite
differences.

``MlpStack`` holds G networks of one width chain, one per row of a
(G, P) parameter matrix, and is where the backpropagation lives: every
matrix product is a member's own 2-D BLAS call, while every elementwise
step and reduction runs once over the whole stack. Elementwise work
rounds the same whatever array holds it, and each member's products are
the calls it would make alone, so a member's gradients do not depend on
its stack. ``MlpAutoencoder`` is one such network, for inference and
its loss; both run each layer through the same ``_activate`` step.

Parameters, activations, gradients and Adam state are float32
(``DTYPE``), half the bytes of float64. Callers cast every input in the
copy they make, since numpy promotes a float64 @ float32 product to
float64 without a word. Buffers and Adam state take the dtype of the
parameters they are given, so a float64 network runs the same code.
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


def _keep_rows(stacked: FloatArray, rows: list[int]) -> FloatArray:
    """The given rows (ascending) of ``stacked``, moved to its front and
    returned as a view of it; a prefix moves nothing."""
    if rows != list(range(len(rows))):
        stacked[: len(rows)] = stacked[rows]
    return stacked[: len(rows)]


def _activate(h: FloatArray, bias: FloatArray, last: bool) -> None:
    """The elementwise half of a layer, in place on its product ``h``: add
    the bias, then tanh unless this is the output layer.

    Inference (``MlpAutoencoder.forward``) and training
    (``MlpStack.losses``) both run each layer as the member's own 2-D
    product followed by this step, so a member trains on the activations
    its network computes at inference.
    """
    h += bias
    if not last:
        np.tanh(h, out=h)


class MlpAutoencoder:
    """Multi-layer perceptron with tanh hidden layers and linear output.

    Weights start uniform in +-sqrt(6/(fan_in+fan_out)), biases at zero,
    drawn from the given generator so construction is deterministic, then
    stored in ``DTYPE``. Every weight and bias is a view into one vector,
    ``flat_params``, laid out w0, b0, w1, b1, ..., so a network is
    trained (as a row of an ``MlpStack``) and kept as one array.
    """

    def __init__(self, widths: tuple[int, ...], rng: np.random.Generator):
        if len(widths) < 2:
            raise ConfigError("need at least an input and an output layer")
        widths = tuple(int(w) for w in widths)
        size = sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(widths[:-1], widths[1:]))
        self._bind(widths, np.zeros(size, dtype=DTYPE))
        for w in self.weights:
            fan_in, fan_out = w.shape
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            w[...] = rng.uniform(-bound, bound, size=(fan_in, fan_out))

    @classmethod
    def on(cls, widths: tuple[int, ...], flat_params: FloatArray) -> "MlpAutoencoder":
        """The network whose parameters are ``flat_params`` itself, not a copy."""
        model = cls.__new__(cls)
        model._bind(tuple(widths), flat_params)
        return model

    def _bind(self, widths: tuple[int, ...], flat_params: FloatArray) -> None:
        self.widths = widths
        self.flat_params = flat_params
        self.weights, self.biases = _layers(widths, flat_params)

    def forward(self, x: FloatArray) -> FloatArray:
        """The reconstruction of ``x``'s rows, in the parameters' dtype; an
        input of another dtype is cast first."""
        h = x.astype(self.flat_params.dtype, copy=False)
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w
            _activate(h, b, i == last)
        return h

    def loss(self, batch: FloatArray) -> np.floating:
        """Mean squared reconstruction error over every element of the
        batch, computed in the parameters' dtype."""
        batch = batch.astype(self.flat_params.dtype, copy=False)
        # inf and nan are fine here; callers treat non-finite loss as divergence
        with np.errstate(over="ignore", invalid="ignore"):
            # forward's output is a fresh array: subtract and square in place
            diff = self.forward(batch)
            diff -= batch
            np.multiply(diff, diff, out=diff)
            return np.mean(diff)


class MlpStack:
    """G autoencoders of one width chain, trained in lockstep on a batch each.

    Row g of the (G, P) ``flat_params`` is member g's parameter vector, in
    ``MlpAutoencoder`` layout, and ``backward`` writes its gradient into
    row g of ``flat_grads``. A step fills each member's input rows
    (``inputs``), runs the forward pass (``losses``), may drop members
    (``keep``) and runs the backward pass on those left. The activations
    and deltas live in buffers that the stack reuses from step to step.
    """

    def __init__(self, widths: tuple[int, ...], flat_params: FloatArray):
        self.widths = tuple(widths)
        self.flat_params = flat_params
        self.flat_grads = np.zeros_like(flat_params)
        self._store: list[FloatArray] = []  # buffers for self._capacity rows a member
        self._capacity = 0
        self._bind()

    @property
    def size(self) -> int:
        return self.flat_params.shape[0]

    def _bind(self) -> None:
        """Per-member weight and weight-gradient views, stacked bias views."""
        weights, biases = _layers(self.widths, self.flat_params)
        grad_w, self._grad_b = _layers(self.widths, self.flat_grads)
        self._weights = [list(w) for w in weights]
        self._weights_t = [[w.T for w in layer] for layer in self._weights]
        self._grad_w = [list(w) for w in grad_w]
        # (G, 1, fan_out), to broadcast over a (G, rows, fan_out) stack
        self._biases = [b[:, None, :] for b in biases]
        self._rows = 0  # the batch the buffer views below are cut for; 0: none

    def keep(self, positions: list[int]) -> None:
        """Keep only the members at ``positions`` (ascending), in that order.

        A prefix moves nothing, so the activations of the current step
        stay valid for the members kept and ``backward`` may follow.
        """
        self.flat_params = _keep_rows(self.flat_params, positions)
        self.flat_grads = self.flat_grads[: len(positions)]
        batch = self._rows
        self._bind()
        if batch:
            self._view(batch)

    def inputs(self, rows: int) -> list[FloatArray]:
        """Each member's (rows, input width) input buffer, for the caller to
        fill before ``losses``."""
        if rows > self._capacity:
            # one buffer per activation, and two that the deltas alternate in
            dtype = self.flat_params.dtype
            self._store = [np.empty(self.size * rows * w, dtype) for w in self.widths]
            self._store += [np.empty(self.size * rows * max(self.widths), dtype) for _ in range(2)]
            self._capacity = rows
        if rows != self._rows:
            self._view(rows)
        return self._member_acts[0]

    def _view(self, rows: int) -> None:
        """Contiguous (G, rows, width) views of the buffers, and each
        member's (rows, width) slices of them."""
        count = self.size
        self._rows = rows
        self._acts = [s[: count * rows * w].reshape(count, rows, w)
                      for s, w in zip(self._store, self.widths)]
        # the delta at layer i's input, in the delta buffer of i's parity
        self._deltas = [self._store[-2 + i % 2][: count * rows * w].reshape(count, rows, w)
                        for i, w in enumerate(self.widths)]
        self._member_acts = [list(a) for a in self._acts]
        self._member_deltas = [list(d) for d in self._deltas]

    def losses(self) -> FloatArray:
        """Forward pass on the filled inputs: each member's reconstruction MSE."""
        acts, member_acts = self._acts, self._member_acts
        last = len(self._weights) - 1
        # inf and nan are fine here, as in ``MlpAutoencoder.loss``
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(last + 1):
                # each member's product as ``forward`` makes it, then one
                # elementwise step for the whole stack
                for x, w, y in zip(member_acts[i], self._weights[i], member_acts[i + 1]):
                    np.matmul(x, w, out=y)
                _activate(acts[i + 1], self._biases[i], i == last)
            delta = acts[-1]
            delta -= acts[0]
            squares = np.multiply(delta, delta, out=self._deltas[-1])
            return np.add.reduce(squares.reshape(self.size, -1), axis=1) / delta[0].size

    def backward(self) -> None:
        """Gradients of the last ``losses`` into ``flat_grads``, row by member.

        Overwrites the activations it no longer needs.
        """
        acts, member_acts = self._acts, self._member_acts
        delta, member_delta = acts[-1], member_acts[-1]
        delta *= 2.0 / delta[0].size
        for i in range(len(self._weights) - 1, -1, -1):
            for a, d, gw in zip(member_acts[i], member_delta, self._grad_w[i]):
                np.matmul(a.T, d, out=gw)
            delta.sum(axis=1, out=self._grad_b[i])
            if i > 0:
                nxt, member_nxt = self._deltas[i], self._member_deltas[i]
                for d, wt, out in zip(member_delta, self._weights_t[i], member_nxt):
                    np.matmul(d, wt, out=out)
                # tanh' = 1 - tanh^2, from the activation this layer no longer needs
                a_prev = acts[i]
                np.multiply(a_prev, a_prev, out=a_prev)
                np.subtract(1.0, a_prev, out=a_prev)
                nxt *= a_prev
                delta, member_delta = nxt, member_nxt


class Adam:
    """Adam optimizer over one flat parameter vector, or a (G, P) stack of
    them, updated in place.

    Every step is elementwise, so one fused update rounds exactly as
    separate updates of each network and of each of its arrays would.
    """

    def __init__(
        self,
        params: FloatArray,
        learning_rate: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.lr = float(learning_rate)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._temps = (np.empty_like(params), np.empty_like(params))

    def keep(self, positions: list[int]) -> None:
        """Keep the state of the stacked members at ``positions``, as
        ``MlpStack.keep`` does."""
        self.m = _keep_rows(self.m, positions)
        self.v = _keep_rows(self.v, positions)
        self._temps = tuple(s[: len(positions)] for s in self._temps)

    def step(self, params: FloatArray, grads: FloatArray) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        m, v = self.m, self.v
        step, denom = self._temps
        # the operations of params -= lr * (m / bias1) / (sqrt(v / bias2) + eps),
        # in that order, with m and v updated first
        m *= b1
        m += np.multiply(grads, 1.0 - b1, out=step)
        v *= b2
        np.multiply(grads, grads, out=step)
        step *= 1.0 - b2
        v += step
        np.divide(v, bias2, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        np.divide(m, bias1, out=step)
        step *= self.lr
        step /= denom
        params -= step
