"""A small fully-connected autoencoder in plain numpy.

Encoder widths halve repeatedly from the input dimension down to the
latent size p; the decoder mirrors them. Hidden layers use tanh, the
output layer is linear. Training uses hand-written backpropagation with
the Adam update rule, so gradients are checkable against finite
differences.
"""
from __future__ import annotations

import math

import numpy as np

from ..core import ConfigError, FloatArray


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


class MlpAutoencoder:
    """Multi-layer perceptron with tanh hidden layers and linear output.

    Weights start uniform in +-sqrt(6/(fan_in+fan_out)), biases at zero,
    drawn from the given generator so construction is deterministic.
    Every weight and bias is a view into one float64 vector,
    ``flat_params``, in ``parameters()`` order, and ``loss_and_gradients``
    writes into a matching ``flat_grads``, so the optimizer updates and
    checkpoints the whole network as one array.
    """

    def __init__(self, widths: tuple[int, ...], rng: np.random.Generator):
        if len(widths) < 2:
            raise ConfigError("need at least an input and an output layer")
        self.widths = tuple(int(w) for w in widths)
        shapes = list(zip(self.widths[:-1], self.widths[1:]))
        size = sum(fan_in * fan_out + fan_out for fan_in, fan_out in shapes)
        self.flat_params = np.zeros(size)
        self.flat_grads = np.zeros(size)
        self.weights, self.biases = self._layers(self.flat_params)
        self._grads = list(zip(*self._layers(self.flat_grads)))
        for w, (fan_in, fan_out) in zip(self.weights, shapes):
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            w[...] = rng.uniform(-bound, bound, size=(fan_in, fan_out))

    def _layers(self, flat: FloatArray) -> tuple[list[FloatArray], list[FloatArray]]:
        """Weight and bias views into ``flat``, laid out w0, b0, w1, b1, ..."""
        weights, biases = [], []
        lo = 0
        for fan_in, fan_out in zip(self.widths[:-1], self.widths[1:]):
            mid = lo + fan_in * fan_out
            weights.append(flat[lo:mid].reshape(fan_in, fan_out))
            biases.append(flat[mid : mid + fan_out])
            lo = mid + fan_out
        return weights, biases

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def forward(self, x: FloatArray) -> FloatArray:
        h = x
        for i in range(self.n_layers):
            h = self._layer(i, h)
        return h

    def _layer(self, i: int, x: FloatArray) -> FloatArray:
        """Layer i's output for input x, in one new array."""
        h = x @ self.weights[i]
        h += self.biases[i]
        if i != self.n_layers - 1:
            np.tanh(h, out=h)
        return h

    def _forward_trace(self, x: FloatArray) -> list[FloatArray]:
        # activations[0] is the input; activations[i] the output of layer i-1
        acts = [x]
        for i in range(self.n_layers):
            acts.append(self._layer(i, acts[-1]))
        return acts

    def loss(self, batch: FloatArray) -> float:
        """Mean squared reconstruction error over every element of the batch."""
        diff = self.forward(batch) - batch
        # overflow to inf is fine here; callers treat non-finite loss as divergence
        with np.errstate(over="ignore"):
            return float(np.mean(diff * diff))

    def loss_and_gradients(
        self, batch: FloatArray
    ) -> tuple[float, list[tuple[FloatArray, FloatArray]]]:
        """Reconstruction MSE and its analytic gradient for every weight and bias.

        The gradients are (weight, bias) views into ``flat_grads``, which
        the next call overwrites.
        """
        batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
        if batch.shape[0] == 0:
            raise ValueError("batch must be non-empty")
        acts = self._forward_trace(batch)
        delta = acts[-1]
        delta -= batch
        loss = float(np.mean(delta * delta))
        delta *= 2.0 / delta.size
        for i in range(self.n_layers - 1, -1, -1):
            a_prev = acts[i]
            grad_w, grad_b = self._grads[i]
            np.matmul(a_prev.T, delta, out=grad_w)
            delta.sum(axis=0, out=grad_b)
            if i > 0:
                delta = delta @ self.weights[i].T
                # tanh' = 1 - tanh^2, from the activation this layer no longer needs
                np.multiply(a_prev, a_prev, out=a_prev)
                np.subtract(1.0, a_prev, out=a_prev)
                delta *= a_prev
        return loss, self._grads

    def parameters(self) -> list[FloatArray]:
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    def copy_parameters(self) -> FloatArray:
        return self.flat_params.copy()

    def set_parameters(self, params: FloatArray) -> None:
        if params.shape != self.flat_params.shape:
            raise ValueError("parameter shape mismatch")
        self.flat_params[...] = params


class Adam:
    """Adam optimizer over one flat parameter vector, updated in place.

    Every step is elementwise, so one fused update of the vector rounds
    exactly as separate updates of its pieces would.
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

    def step(self, params: FloatArray, grads: FloatArray) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        m, v = self.m, self.v
        m *= b1
        m += (1.0 - b1) * grads
        v *= b2
        v += (1.0 - b2) * (grads * grads)
        params -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
