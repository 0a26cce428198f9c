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
    """

    def __init__(self, widths: tuple[int, ...], rng: np.random.Generator):
        if len(widths) < 2:
            raise ConfigError("need at least an input and an output layer")
        self.widths = tuple(int(w) for w in widths)
        self.weights: list[FloatArray] = []
        self.biases: list[FloatArray] = []
        for fan_in, fan_out in zip(self.widths[:-1], self.widths[1:]):
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def forward(self, x: FloatArray) -> FloatArray:
        h = x
        last = self.n_layers - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b
            if i != last:
                h = np.tanh(h)
        return h

    def _forward_trace(self, x: FloatArray) -> list[FloatArray]:
        # activations[0] is the input; activations[i] the output of layer i-1
        acts = [x]
        last = self.n_layers - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = acts[-1] @ w + b
            if i != last:
                h = np.tanh(h)
            acts.append(h)
        return acts

    def loss(self, batch: FloatArray, target: FloatArray | None = None) -> float:
        """Mean squared error over every element of the batch."""
        target = batch if target is None else target
        diff = self.forward(batch) - target
        # overflow to inf is fine here; callers treat non-finite loss as divergence
        with np.errstate(over="ignore"):
            return float(np.mean(diff * diff))

    def loss_and_gradients(
        self, batch: FloatArray, target: FloatArray | None = None
    ) -> tuple[float, list[tuple[FloatArray, FloatArray]]]:
        """MSE loss and its analytic gradient for every weight and bias."""
        batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
        if batch.shape[0] == 0:
            raise ValueError("batch must be non-empty")
        target = batch if target is None else np.atleast_2d(target)
        acts = self._forward_trace(batch)
        diff = acts[-1] - target
        loss = float(np.mean(diff * diff))
        delta = (2.0 / diff.size) * diff
        grads: list[tuple[FloatArray, FloatArray]] = [None] * self.n_layers  # type: ignore
        for i in range(self.n_layers - 1, -1, -1):
            a_prev = acts[i]
            grads[i] = (a_prev.T @ delta, delta.sum(axis=0))
            if i > 0:
                delta = delta @ self.weights[i].T
                delta = delta * (1.0 - a_prev * a_prev)  # tanh' = 1 - tanh^2
        return loss, grads

    def parameters(self) -> list[FloatArray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def copy_parameters(self) -> list[FloatArray]:
        return [p.copy() for p in self.parameters()]

    def set_parameters(self, params: list[FloatArray]) -> None:
        own = self.parameters()
        if len(own) != len(params):
            raise ValueError("parameter list length mismatch")
        for dst, src in zip(own, params):
            if dst.shape != src.shape:
                raise ValueError("parameter shape mismatch")
            dst[...] = src


class Adam:
    """Adam optimizer over a flat list of parameter arrays (in-place updates)."""

    def __init__(
        self,
        params: list[FloatArray],
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
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params: list[FloatArray], grads: list[FloatArray]) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            p -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
