"""Slow, from-definition oracle implementations used to check the fast paths.

Everything here favors obviousness over speed: explicit loops, slicing,
no shared code with the package internals.
"""
from __future__ import annotations

import csv
import decimal
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy import special


def events_by_scan(labels):
    """Run-length scan for contiguous stretches of 1s: list of (start, end)."""
    spans = []
    start = None
    for i, v in enumerate(labels):
        if v == 1 and start is None:
            start = i
        elif v == 0 and start is not None:
            spans.append((start, i - 1))
            start = None
    if start is not None:
        spans.append((start, len(labels) - 1))
    return spans


def _prf(tp, fp, fn):
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    # one integer division, so the float is the exact rational rounded once
    f = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
    return prec, rec, f


def f1_naive(pred, truth):
    tp = sum(1 for p, t in zip(pred, truth) if p == 1 and t == 1)
    fp = sum(1 for p, t in zip(pred, truth) if p == 1 and t == 0)
    fn = sum(1 for p, t in zip(pred, truth) if p == 0 and t == 1)
    return _prf(tp, fp, fn)[2]


def adjusted_naive(pred, truth):
    """The prediction with every detected truth event filled in whole."""
    adjusted = list(pred)
    for start, end in events_by_scan(truth):
        if any(adjusted[start : end + 1]):
            for i in range(start, end + 1):
                adjusted[i] = 1
    return adjusted


def fpa1_naive(pred, truth):
    return f1_naive(adjusted_naive(pred, truth), truth)


def fc1_naive(pred, truth):
    tp = sum(1 for p, t in zip(pred, truth) if p == 1 and t == 1)
    fp = sum(1 for p, t in zip(pred, truth) if p == 1 and t == 0)
    spans = events_by_scan(truth)
    detected = sum(1 for s, e in spans if any(pred[s : e + 1]))
    # harmonic mean of tp/(tp+fp) and detected/len(spans) as one division
    denom = tp * len(spans) + detected * (tp + fp)
    return 2 * tp * detected / denom if denom else 0.0


def _exact_metric(pred, truth, metric):
    """F-scores in exact rational arithmetic, for unambiguous tie-breaking."""
    if metric == "fpa1":
        pred = adjusted_naive(pred, truth)
    tp = sum(1 for p, t in zip(pred, truth) if p == 1 and t == 1)
    fp = sum(1 for p, t in zip(pred, truth) if p == 1 and t == 0)
    fn = sum(1 for p, t in zip(pred, truth) if p == 0 and t == 1)
    if metric in ("f1", "fpa1"):
        denom = 2 * tp + fp + fn
        return Fraction(2 * tp, denom) if denom else Fraction(0)
    spans = events_by_scan(truth)
    detected = sum(1 for s, e in spans if any(pred[s : e + 1]))
    denom = tp * len(spans) + detected * (tp + fp)
    return Fraction(2 * tp * detected, denom) if denom else Fraction(0)


def best_f_exhaustive(scores, truth, metric):
    """Try every distinct score plus +inf as a threshold, largest first."""
    candidates = [math.inf] + sorted(set(float(s) for s in scores), reverse=True)
    best_th, best_val = math.inf, Fraction(-1)
    for th in candidates:
        pred = [1 if s >= th else 0 for s in scores]
        val = _exact_metric(pred, truth, metric)
        if val > best_val:
            best_val, best_th = val, th
    return best_th, float(best_val)


def rolling_mean_std(stream, w, t):
    """Sample stats of the w most recent values ending at t (inclusive)."""
    lo = max(0, t + 1 - w)
    window = stream[lo : t + 1]
    mu = float(np.mean(window))
    sd = float(np.std(window, ddof=1)) if len(window) > 1 else 0.0
    return mu, sd


def gauss_nls(z):
    """-log10 of the Gaussian survival function, safe for z <= 8."""
    return float(-np.log10(special.ndtr(-z)))


def neg_log_normal_sf(z):
    """-ln(1 - Phi(z)) elementwise, from scipy's log_ndtr."""
    return -special.log_ndtr(-np.asarray(z, dtype=np.float64))


def two_sided_normal_p(z):
    """2 * (1 - Phi(|z|)) elementwise, from scipy's ndtr."""
    return 2.0 * special.ndtr(-np.abs(np.asarray(z, dtype=np.float64)))


def chi2_sf_scipy(stat, df):
    """Chi-squared survival from scipy's regularized upper incomplete gamma."""
    return float(special.gammaincc(df / 2.0, stat / 2.0))


def _decimal_pi():
    """pi to the current decimal precision, by Machin's formula."""
    def arctan_inv(x):
        eps = decimal.Decimal(10) ** -(decimal.getcontext().prec + 2)
        total, power, k = decimal.Decimal(0), decimal.Decimal(1) / x, 0
        while power > eps:
            total += (-1) ** k * power / (2 * k + 1)
            power /= x * x
            k += 1
        return total

    return 16 * arctan_inv(5) - 4 * arctan_inv(239)


def chi2_sf_decimal(stat, df, digits=400):
    """Chi-squared survival at a float ``stat`` with integer ``df``, as
    1 - P(df/2, stat/2) from the lower series e^-h h^a sum_n h^n/Gamma(a+n+1)
    in ``digits``-digit decimals: the subtraction leaves ~100 digits down to
    1e-300, where scipy's gammaincc is itself off by ~1e-12 near df = 1000.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        D = decimal.Decimal
        h = D(stat) / 2  # exact: every float is a finite decimal
        a = D(df) / 2
        # Gamma(a + 1) by a*Gamma(a), from Gamma(1) = 1 or Gamma(1/2) = sqrt(pi)
        t = D(1) if df % 2 == 0 else D(1) / 2
        gamma = D(1) if df % 2 == 0 else _decimal_pi().sqrt()
        while t <= a:
            gamma *= t
            t += 1
        term = (-h).exp() * h**a / gamma if h else D(0)
        lower, n, eps = term, 0, D(10) ** -(digits + 5)
        while term > eps or n < h:
            n += 1
            term = term * h / (a + n)
            lower += term
        return float(1 - lower)


def fd_gradient(loss_fn, params, h=1e-5):
    """Central finite differences of loss_fn over a list of arrays."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat_p = p.ravel()
        flat_g = g.ravel()
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + h
            up = loss_fn()
            flat_p[i] = orig - h
            down = loss_fn()
            flat_p[i] = orig
            flat_g[i] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def auroc_pairwise(scores, truth):
    """Probability a random positive outscores a random negative."""
    pos = [s for s, t in zip(scores, truth) if t == 1]
    neg = [s for s, t in zip(scores, truth) if t == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def auprc_cuts(scores, truth):
    """Average precision over distinct-score cuts, largest score first."""
    order = sorted(set(float(s) for s in scores), reverse=True)
    n_pos = sum(truth)
    total = 0.0
    prev_rec = 0.0
    for th in order:
        pred = [1 if s >= th else 0 for s in scores]
        tp = sum(1 for p, t in zip(pred, truth) if p == 1 and t == 1)
        fp = sum(1 for p, t in zip(pred, truth) if p == 1 and t == 0)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / n_pos
        total += prec * (rec - prev_rec)
        prev_rec = rec
    return total


def cuts_by_position(s, y):
    """Tie blocks of one stable descending argsort of the scores: each
    block's exclusive end, the positives up to it and its value, which is
    the score of its latest point (the sign of a 0.0/-0.0 block)."""
    order = np.argsort(-s, kind="stable")
    sorted_scores = s[order]
    stops = np.concatenate((np.flatnonzero(np.diff(sorted_scores) != 0) + 1, [s.shape[0]]))
    return stops, np.cumsum(y[order])[stops - 1], sorted_scores[stops - 1]


def auroc_from_cuts(stops, tp):
    """The Mann-Whitney AUROC of tie-block cuts, as the metrics module
    computed it from cuts_by_position."""
    n = int(stops[-1])
    n_pos = int(tp[-1])
    starts = np.concatenate(([0], stops[:-1]))
    positives = np.diff(np.concatenate(([0], tp)))
    twice_rank_sum = int(np.sum(positives * (2 * n + 1 - starts - stops)))
    rank_sum = twice_rank_sum / 2
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * (n - n_pos))


def auprc_from_cuts(stops, tp):
    """Average precision of tie-block cuts, as the metrics module computed
    it from cuts_by_position: the same float operations in the same order."""
    tp = tp.astype(np.float64)
    precision = tp / stops
    recall = tp / tp[-1]
    recall_steps = np.diff(np.concatenate(([0.0], recall)))
    return float(np.sum(recall_steps * precision))


def convolve_edge(values, weights):
    """1-d correlation with edge replication; weights length 2r+1."""
    r = (len(weights) - 1) // 2
    n = len(values)
    out = np.zeros(n)
    for t in range(n):
        acc = 0.0
        for j, w in enumerate(weights):
            idx = min(max(t + j - r, 0), n - 1)
            acc += w * values[idx]
        out[t] = acc
    return out


def pairwise_sum(values):
    """numpy's pairwise sum of at most 128 floats, as it sums one
    contiguous column: in order from 0.0 below 8 values, else in eight
    interleaved running sums joined as a tree, then the rest in order."""
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    r, i = list(values[:8]), 8
    while i < n - n % 8:
        for j in range(8):
            r[j] += values[i + j]
        i += 8
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for v in values[i:]:
        total += v
    return total


def midranks(values):
    """Average ranks with midrank ties, rank 1 for the smallest value."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def friedman_naive(rank_means, k, n_groups):
    """Friedman chi-square from the average ranks."""
    ssq = sum(r * r for r in rank_means)
    return 12.0 * n_groups / (k * (k + 1)) * (ssq - k * (k + 1) ** 2 / 4.0)


def hochberg_naive(p_values, alpha):
    """Step-up over sorted p-values; reject all at or below the cutoff."""
    h = len(p_values)
    order = sorted(range(h), key=lambda i: p_values[i])
    cutoff = -1
    for rank_from_top in range(h, 0, -1):
        idx = order[rank_from_top - 1]
        if p_values[idx] <= alpha / (h - rank_from_top + 1):
            cutoff = rank_from_top
            break
    reject = [False] * h
    for pos in range(cutoff):
        reject[order[pos]] = True
    return reject


def read_csv_naive(path):
    """Header and float cells of a headered CSV, one cell at a time.

    csv.reader splits the rows and float() parses every cell. Raises
    ValueError with the message the package's reader gives for a missing
    or empty file, a file with no data rows, a row of the wrong width
    (checked over all rows first) and the first cell, row by row, that
    float() refuses. Line numbers are 1-based and count the header.
    """
    path = Path(path)
    if not path.exists():
        raise ValueError(f"{path}: file not found")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty file, expected a header row")
    header, data = rows[0], rows[1:]
    if not data:
        raise ValueError(f"{path}: no data rows after the header")
    for line, row in enumerate(data, start=2):
        if len(row) != len(header):
            raise ValueError(
                f"{path} line {line}: expected {len(header)} cells, got {len(row)}"
            )
    values = []
    for line, row in enumerate(data, start=2):
        parsed = []
        for name, cell in zip(header, row):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise ValueError(
                    f"{path} line {line} column {name!r}: non-numeric value {cell!r}"
                ) from None
        values.append(parsed)
    return header, values


class AdamPerArray:
    """Adam as separate updates of each parameter array, in place."""

    def __init__(self, params, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = float(learning_rate)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads):
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


class MlpNaive:
    """One tanh autoencoder as separate float32 weight and bias arrays, with
    the per-network forward pass and backpropagation, one layer at a time.
    Its inputs must be float32 too."""

    def __init__(self, widths, rng):
        self.weights, self.biases = [], []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            draw = rng.uniform(-bound, bound, size=(fan_in, fan_out))
            self.weights.append(draw.astype(np.float32))
            self.biases.append(np.zeros(fan_out, np.float32))

    def parameters(self):
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    def flat_params(self):
        return np.concatenate([p.ravel() for p in self.parameters()])

    def _trace(self, x):
        acts = [x]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = acts[-1] @ w
            h += b
            if i != len(self.weights) - 1:
                np.tanh(h, out=h)
            acts.append(h)
        return acts

    def loss(self, x):
        diff = self._trace(x)[-1] - x
        with np.errstate(over="ignore"):
            return float(np.mean(diff * diff))

    def loss_and_gradients(self, batch):
        acts = self._trace(batch)
        delta = acts[-1]
        delta -= batch
        loss = float(np.mean(delta * delta))
        delta *= 2.0 / delta.size
        grads = [None] * (2 * len(self.weights))
        for i in range(len(self.weights) - 1, -1, -1):
            a_prev = acts[i]
            grads[2 * i] = a_prev.T @ delta
            grads[2 * i + 1] = delta.sum(axis=0)
            if i > 0:
                delta = delta @ self.weights[i].T
                delta *= 1.0 - a_prev * a_prev
        return loss, grads


class Diverged(Exception):
    """A non-finite loss in ``train_mlp``; the message names the epoch."""


def train_mlp(rows, widths, config, seed):
    """One autoencoder trained alone on its (count, width) window rows:
    Adam, a chronological split, early stopping and the best-validation
    weights restored. The rows are cast to float32 once, up front.

    Returns the flat parameters (w0, b0, w1, b1, ...) and the report
    fields (epochs_run, best_epoch, best_val_loss, final_train_loss).
    """
    count = rows.shape[0]
    n_split = int(count * (1.0 - config.validation_fraction))
    rows = rows.astype(np.float32)
    x_train = rows[:n_split]
    x_val = rows[n_split:]
    rng = np.random.default_rng(seed)
    model = MlpNaive(widths, rng)
    optimizer = AdamPerArray(model.parameters(), config.learning_rate)
    best_val, best_epoch, stall, epochs_run = np.inf, -1, 0, 0
    best = [p.copy() for p in model.parameters()]
    for epoch in range(config.max_epochs):
        epochs_run = epoch + 1
        order = rng.permutation(n_split)
        for lo in range(0, n_split, config.batch_size):
            batch = x_train[order[lo : lo + config.batch_size]]
            loss, grads = model.loss_and_gradients(batch)
            if not np.isfinite(loss):
                raise Diverged(f"training loss became non-finite at epoch {epoch}")
            optimizer.step(model.parameters(), grads)
        val_loss = model.loss(x_val)
        if not np.isfinite(val_loss):
            raise Diverged(f"validation loss became non-finite at epoch {epoch}")
        if val_loss < best_val:
            best_val, best_epoch, stall = val_loss, epoch, 0
            best = [p.copy() for p in model.parameters()]
        else:
            stall += 1
            if stall >= config.patience:
                break
    for p, saved in zip(model.parameters(), best):
        p[...] = saved
    final = model.loss(x_train)
    return model.flat_params(), (epochs_run, best_epoch, float(best_val), final)
