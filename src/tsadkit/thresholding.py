"""Thresholds turning a score series into binary predictions.

Predictions follow the >= rule: a point is anomalous when its score is at
or above the threshold. The one documented exception is top-k with ties
at the boundary, where earlier time-points win so the positive count is
exactly k.

best_f takes every tie-block cut's F-score from the metrics module,
which counts as compute_report does, so the value it reports is the
value compute_report gives its prediction. A ThresholdResult keeps the
int64 0/1 vector its threshold function built, with no copy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, LabelVector, ScoreSeries, ValidationError, check_score_series
from .metrics import _checked, _f_by_cut

BEST_F_METRICS = ("f1", "fpa1", "fc1")
# tail_p's cut m * neg_log_eps is formed in float64, which holds every
# integer up to 2**53; a channel scores at most ~15.2, so any eps >= 16
# already predicts nothing
MAX_NEG_LOG_EPS = 2**53


@dataclass(frozen=True)
class ThresholdResult:
    threshold: float
    predictions: LabelVector
    method: str
    metadata: dict


def threshold_top_k(scores: ScoreSeries, k: int) -> ThresholdResult:
    """Mark exactly the k highest-scoring time-points as anomalous.

    Ties at the k-th score resolve by earlier-time priority, so the
    positive count is k for every input, all-tied scores included. The
    k-th score comes from a selection (np.partition), not a sort.
    """
    s = check_score_series(scores)
    n = s.shape[0]
    if not (0 <= k <= n):
        raise ValidationError(f"k must be in 0..{n}, got {k}")
    if k == 0:
        return ThresholdResult(float("inf"), np.zeros(n, dtype=np.int64), "top_k", {"k": 0})
    kth = np.partition(s, n - k)[n - k]  # the k-th largest score
    preds = (s > kth).astype(np.int64)
    ties = np.flatnonzero(s == kth)[: k - int(preds.sum())]
    preds[ties] = 1
    # the last point taken: its own score, so a tie of 0.0 and -0.0 keeps
    # the sign of the point a stable sort by position would end on
    return ThresholdResult(float(s[ties[-1]]), preds, "top_k", {"k": int(k)})


def threshold_tail_p(scores: ScoreSeries, m_scored: int, neg_log_eps: int) -> ThresholdResult:
    """Fixed threshold m_scored * neg_log_eps on summed survival scores.

    For a Gauss-family score summed over m channels, a threshold of
    -m*log10(eps) flags points whose average channel survival probability
    is below eps. neg_log_eps is a positive integer, conventionally 1..5.
    """
    s = check_score_series(scores)
    if m_scored < 1:
        raise ValidationError(f"m_scored must be >= 1, got {m_scored}")
    if not 1 <= neg_log_eps <= MAX_NEG_LOG_EPS or int(neg_log_eps) != neg_log_eps:
        raise ValidationError(f"neg_log_eps must be an integer in 1..2**53, got {neg_log_eps}")
    threshold = float(m_scored * int(neg_log_eps))
    preds = (s >= threshold).astype(np.int64)
    return ThresholdResult(
        threshold,
        preds,
        "tail_p",
        {"m_scored": int(m_scored), "neg_log_eps": int(neg_log_eps)},
    )


def threshold_best_f(scores: ScoreSeries, truth, metric: str = "fc1") -> ThresholdResult:
    """The threshold maximizing f1, fpa1, or fc1 against the given truth.

    Candidates are +inf and the distinct score values, the metrics
    module's tie-block cuts; all three metrics are step functions of the
    threshold, so nothing between distinct values can do better. Ties in
    the metric resolve toward the larger threshold (fewer positives).
    Evaluation-only: requires test labels.

    The metrics module scores every cut in one O(n log n) sweep.
    """
    if metric not in BEST_F_METRICS:
        raise ConfigError(f"metric must be one of {BEST_F_METRICS}, got {metric!r}")
    s, y = _checked(scores, truth)
    if s.shape[0] == 0:
        raise ValidationError("cannot threshold an empty score series")
    values, f = _f_by_cut(s, y, metric)
    best = int(np.argmax(f))  # the first maximum: the largest threshold
    if f[best] > 0:
        threshold, value = float(values[best]), float(f[best])
    else:  # +inf predicts nothing and scores 0: it wins only when no cut scores
        threshold, value = float("inf"), 0.0
    return ThresholdResult(
        threshold,
        (s >= threshold).astype(np.int64),
        "best_f",
        {"metric": metric, "value": value},
    )
