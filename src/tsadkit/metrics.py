"""Evaluation metrics: point, point-adjusted, and composite F-scores,
ranking metrics, and the random-score baseline.

Conventions: every 0/0 ratio defines to 0 (a trivial detector scores 0,
never 1), events are maximal runs of the truth vector, and an event
counts as detected when at least one of its points is predicted.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    LabelVector,
    ScoreSeries,
    ValidationError,
    check_score_series,
    run_bounds,
    validate_labels,
)


@dataclass(frozen=True)
class ConfusionCounts:
    """Point-level and event-level confusion counts."""

    tp_t: int
    fp_t: int
    fn_t: int
    tn_t: int
    tp_e: int
    fn_e: int

    @property
    def n(self) -> int:
        return self.tp_t + self.fp_t + self.fn_t + self.tn_t

    @property
    def n_events(self) -> int:
        return self.tp_e + self.fn_e


@dataclass(frozen=True)
class MetricReport:
    """All detection metrics for one prediction against one truth vector.

    The three F-scores; fc1's parts, the point precision prec_t and the
    event recall rec_e; the point recall rec_point; and the ranking
    metrics auroc and auprc, which are None when no scores were given or
    the truth is single-class. Every results cell writes all of these.
    """

    f1: float
    fpa1: float
    fc1: float
    prec_t: float
    rec_e: float
    rec_point: float
    auroc: float | None = None
    auprc: float | None = None


def _pair(pred, truth) -> tuple[LabelVector, LabelVector]:
    p = validate_labels(pred)
    y = validate_labels(truth)
    if p.shape[0] != y.shape[0]:
        raise ValidationError(f"{p.shape[0]} predictions for {y.shape[0]} labels")
    return p, y


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _f_terms(metric: str, tp, fp, n_pos, tp_adjusted, tp_e, n_events):
    """One F-score as a (numerator, denominator) pair of integer counts:
    of Python ints, which _ratio divides once to the correctly rounded
    value of the exact rational (chaining precision, recall and the
    harmonic mean can land one ulp off), or of arrays, one per threshold.

    tp_adjusted is the total length of the detected events, tp_e the
    detected events out of n_events.
    """
    if metric == "f1":
        return 2 * tp, tp + fp + n_pos  # 2tp + fp + fn
    if metric == "fpa1":
        # the adjusted prediction keeps every false positive; its misses
        # are the points of undetected events
        return 2 * tp_adjusted, tp_adjusted + fp + n_pos
    # fc1: 2*prec_t*rec_e/(prec_t + rec_e) over the common denominator
    return 2 * tp * tp_e, tp * n_events + tp_e * (tp + fp)


def _f_score(metric: str, counts: ConfusionCounts, tp_adjusted: int = 0) -> float:
    return _ratio(*_f_terms(
        metric, counts.tp_t, counts.fp_t, counts.tp_t + counts.fn_t,
        tp_adjusted, counts.tp_e, counts.n_events,
    ))


def _counts(p: LabelVector, y: LabelVector) -> tuple[ConfusionCounts, int]:
    """Confusion counts and the point-adjusted true-positive count.

    One pass: prefix sums of the prediction give each truth event's hits,
    and every count follows from those as an integer. All true positives
    lie inside events, and point adjustment fills each detected event, so
    the adjusted true positives are the total length of detected events.
    """
    starts, stops = run_bounds(y)
    predicted_before = np.concatenate(([0], np.cumsum(p)))
    hits = predicted_before[stops] - predicted_before[starts]
    lengths = stops - starts
    detected = hits > 0
    tp_t = int(hits.sum())
    n_pred = int(predicted_before[-1])
    n_pos = int(lengths.sum())
    tp_e = int(detected.sum())
    counts = ConfusionCounts(
        tp_t=tp_t,
        fp_t=n_pred - tp_t,
        fn_t=n_pos - tp_t,
        tn_t=y.shape[0] - n_pred - n_pos + tp_t,
        tp_e=tp_e,
        fn_e=starts.shape[0] - tp_e,
    )
    return counts, int(lengths[detected].sum())


def confusion(pred, truth) -> ConfusionCounts:
    """Point counts by element-wise comparison; event counts by the
    at-least-one-true-positive rule over runs of the truth vector."""
    return _counts(*_pair(pred, truth))[0]


def f1_point(counts: ConfusionCounts) -> float:
    """Point-wise F1 from confusion counts, one division of 2tp by
    2tp+fp+fn."""
    return _f_score("f1", counts)


def adjusted_prediction(pred, truth) -> LabelVector:
    """Expand every detected true event to its full span in the prediction."""
    p, y = _pair(pred, truth)
    adjusted = p.copy()
    for start, stop in zip(*run_bounds(y)):
        if p[start:stop].any():
            adjusted[start:stop] = 1
    return adjusted


def f1_point_adjusted(pred, truth) -> float:
    """Point-adjusted F1: point F1 of the event-expanded prediction.

    Detecting a single point of a long event earns credit for the whole
    span, which is exactly the leniency this metric is known for.
    """
    return compute_report(pred, truth).fpa1


def fc1(pred, truth) -> tuple[float, float, float]:
    """Composite F-score: harmonic mean of point precision and event recall.

    Returns (fc1, prec_t, rec_e). Any 0/0 component defines to 0, which
    makes fc1 itself 0 whenever either component vanishes.
    """
    report = compute_report(pred, truth)
    return report.fc1, report.prec_t, report.rec_e


def _checked(scores: ScoreSeries, truth) -> tuple[ScoreSeries, LabelVector]:
    s = check_score_series(scores)
    y = validate_labels(truth)
    if s.shape[0] != y.shape[0]:
        raise ValidationError(f"{s.shape[0]} scores for {y.shape[0]} labels")
    return s, y


def _cuts(s: ScoreSeries, y: LabelVector) -> tuple[np.ndarray, np.ndarray, ScoreSeries]:
    """Tie blocks of one stable descending sort of non-empty scores.

    Returns each block's exclusive end in sorted order (the number of
    points scoring at or above the block), the positives up to it and
    the block's score value.
    """
    order = np.argsort(-s, kind="stable")
    sorted_scores = s[order]
    stops = np.concatenate((np.flatnonzero(np.diff(sorted_scores) != 0) + 1, [s.shape[0]]))
    return stops, np.cumsum(y[order])[stops - 1], sorted_scores[stops - 1]


def _auroc(stops: np.ndarray, tp: np.ndarray) -> float:
    n = int(stops[-1])
    n_pos = int(tp[-1])
    starts = np.concatenate(([0], stops[:-1]))
    positives = np.diff(np.concatenate(([0], tp)))
    # sorted positions start..stop-1 hold ascending ranks n-stop+1..n-start,
    # so twice the block's midrank is the integer 2n+1-start-stop
    twice_rank_sum = int(np.sum(positives * (2 * n + 1 - starts - stops)))
    rank_sum = twice_rank_sum / 2
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * (n - n_pos))


def _auprc(stops: np.ndarray, tp: np.ndarray) -> float:
    tp = tp.astype(np.float64)
    precision = tp / stops
    recall = tp / tp[-1]
    recall_steps = np.diff(np.concatenate(([0.0], recall)))
    return float(np.sum(recall_steps * precision))


def auroc(scores: ScoreSeries, truth) -> float:
    """Area under the ROC curve via midranks (the Mann-Whitney statistic)."""
    s, y = _checked(scores, truth)
    n_pos = int(y.sum())
    if n_pos == 0 or n_pos == y.shape[0]:
        raise ValidationError("auroc needs both classes present in the truth")
    return _auroc(*_cuts(s, y)[:2])


def auprc(scores: ScoreSeries, truth) -> float:
    """Area under the precision-recall curve as average precision.

    AP = sum_i (R_i - R_{i-1}) * P_i over descending distinct-score cuts;
    tied scores enter as one block.
    """
    s, y = _checked(scores, truth)
    if not y.any():
        raise ValidationError("auprc needs at least one positive in the truth")
    return _auprc(*_cuts(s, y)[:2])


def rad_scores(n: int, seed: int) -> ScoreSeries:
    """The random baseline: i.i.d. uniform [0, 1] scores, fixed by seed."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    return np.random.default_rng(seed).random(n)


def compute_report(pred, truth, scores: ScoreSeries | None = None) -> MetricReport:
    """Every metric for one (prediction, truth) pair.

    Ranking metrics are filled in when scores are given and the truth has
    both classes; otherwise they stay None.
    """
    p, y = _pair(pred, truth)
    counts, tp_adjusted = _counts(p, y)
    roc = prc = None
    if scores is not None:
        n_pos = counts.tp_t + counts.fn_t
        if 0 < n_pos < counts.n:
            cuts = _cuts(*_checked(scores, y))[:2]
            roc, prc = _auroc(*cuts), _auprc(*cuts)
    return MetricReport(
        f1=_f_score("f1", counts),
        fpa1=_f_score("fpa1", counts, tp_adjusted),
        fc1=_f_score("fc1", counts),
        prec_t=_ratio(counts.tp_t, counts.tp_t + counts.fp_t),
        rec_e=_ratio(counts.tp_e, counts.n_events),
        rec_point=_ratio(counts.tp_t, counts.tp_t + counts.fn_t),
        auroc=roc,
        auprc=prc,
    )
