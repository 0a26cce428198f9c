"""Evaluation metrics: point, point-adjusted, and composite F-scores,
ranking metrics, and the random-score baseline.

Conventions: every 0/0 ratio defines to 0 (a trivial detector scores 0,
never 1), events are maximal runs of the truth vector, and an event
counts as detected when at least one of its points is predicted. The
ranking metrics read the tie blocks of one sort of the score values and
count the positives in them by a search of the sorted positive scores.
Every F-score is one _f_terms quotient of integer counts, of one
prediction in compute_report or of every tie-block cut in _f_by_cut.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    FloatArray,
    LabelVector,
    ScoreSeries,
    ValidationError,
    check_score_series,
    run_bounds,
    validate_labels,
)


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


def _f_terms(metric: str, tp, positives, n_pos, tp_adjusted, tp_e, n_events):
    """One F-score as a (numerator, denominator) pair of integer counts:
    of Python ints, which _ratio divides once to the correctly rounded
    value of the exact rational (chaining precision, recall and the
    harmonic mean can land one ulp off), or of arrays, one per threshold.

    positives counts the predicted points, tp_adjusted the total length
    of the detected events, tp_e the detected events out of n_events.
    """
    if metric == "f1":
        return 2 * tp, positives + n_pos  # 2tp + fp + fn
    if metric == "fpa1":
        # the adjusted prediction keeps every false positive; its misses
        # are the points of undetected events
        return 2 * tp_adjusted, tp_adjusted - tp + positives + n_pos
    # fc1: 2*prec_t*rec_e/(prec_t + rec_e) over the common denominator
    return 2 * tp * tp_e, tp * n_events + tp_e * positives


def _counts(p: LabelVector, y: LabelVector) -> tuple[int, int, int, int, int, int]:
    """(tp, positives, n_pos, tp_adjusted, tp_e, n_events) in _f_terms order.

    One pass: prefix sums of the prediction give each truth event's hits,
    and every count follows from those as an integer. All true positives
    lie inside events, and point adjustment fills each detected event, so
    the adjusted true positives are the total length of detected events.
    """
    starts, stops = run_bounds(y)
    predicted_before = np.empty(p.shape[0] + 1, dtype=np.int64)
    predicted_before[0] = 0
    np.cumsum(p, out=predicted_before[1:])
    hits = predicted_before[stops] - predicted_before[starts]
    lengths = stops - starts
    detected = hits > 0
    return (
        int(hits.sum()),
        int(predicted_before[-1]),
        int(lengths.sum()),
        int(lengths[detected].sum()),
        int(detected.sum()),
        starts.shape[0],
    )


def _checked(scores: ScoreSeries, truth) -> tuple[ScoreSeries, LabelVector]:
    s = check_score_series(scores)
    y = validate_labels(truth)
    if s.shape[0] != y.shape[0]:
        raise ValidationError(f"{s.shape[0]} scores for {y.shape[0]} labels")
    return s, y


def _cuts(s: ScoreSeries, y: LabelVector) -> tuple[np.ndarray, np.ndarray, ScoreSeries]:
    """Tie blocks of non-empty scores, the highest value first.

    Returns each block's exclusive end in descending order (the number of
    points scoring at or above the block's value), the positives up to it
    and the block's value. One value sort gives the blocks and a search of
    the sorted positive scores counts the positives; neither reads the
    order of equal elements, which np.sort leaves unspecified.
    """
    n = s.shape[0]
    desc = np.sort(s)[::-1]
    last = np.empty(n, dtype=bool)
    last[-1] = True
    np.not_equal(desc[:-1], desc[1:], out=last[:-1])
    stops = np.flatnonzero(last)  # each block's last position
    del last
    values = desc[stops]
    del desc
    stops += 1
    zero = np.flatnonzero(values == 0)
    if zero.size:
        # 0.0 and -0.0 tie: the block's value is its latest point's, as a
        # stable descending sort by position gives it
        values[zero[0]] = s[n - 1 - int(np.argmax(s[::-1] == 0))]
    positives = np.sort(s[y == 1])
    tp = np.searchsorted(positives, values, "left")
    np.subtract(positives.shape[0], tp, out=tp)
    return stops, tp, values


def _f_by_cut(s: ScoreSeries, y: LabelVector, metric: str) -> tuple[ScoreSeries, FloatArray]:
    """Each tie-block cut's value and the F-score of predicting the points
    at or above it, the highest value first.

    An event is detected at every cut at or below its highest score, so a
    search over the events' peak scores gives each cut's detected events
    and their covered length; _f_terms then divides once per cut.
    """
    stops, tp, values = _cuts(s, y)
    starts, ends = run_bounds(y)
    peaks = np.maximum.reduceat(np.where(y == 1, s, -np.inf), starts)
    by_peak = np.argsort(-peaks)
    detected = np.searchsorted(-peaks[by_peak], -values, side="right")
    covered = np.concatenate(([0], np.cumsum((ends - starts)[by_peak])))[detected]
    num, den = _f_terms(metric, tp, stops, int(tp[-1]), covered, detected, starts.shape[0])
    del stops, tp, detected, covered
    return values, np.divide(num, den, out=np.zeros(den.shape), where=den > 0)


def _auroc(stops: np.ndarray, tp: np.ndarray) -> float:
    """AUROC as the Mann-Whitney statistic over midranks."""
    n = int(stops[-1])
    n_pos = int(tp[-1])
    # sorted positions start..stop-1 hold ascending ranks n-stop+1..n-start,
    # so twice the block's midrank is the integer 2n+1-start-stop; a block's
    # start is the stop before it
    positives = _steps(tp)
    twice_rank_sum = (
        (2 * n + 1) * n_pos - int(positives @ stops) - int(positives[1:] @ stops[:-1])
    )
    rank_sum = twice_rank_sum / 2
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * (n - n_pos))


def _auprc(stops: np.ndarray, tp: np.ndarray) -> float:
    """Average precision, sum of (R_i - R_{i-1}) * P_i over the tie-block cuts."""
    recall = tp.astype(np.float64)
    np.divide(recall, recall[-1], out=recall)
    terms = _steps(recall)
    precision = recall  # the recall is spent: its buffer takes tp / stops
    np.copyto(precision, tp)
    precision /= stops
    terms *= precision
    return float(np.sum(terms))


def _steps(x: np.ndarray) -> np.ndarray:
    """The differences of consecutive elements, the first from 0, into a
    new array: np.diff(x, prepend=0) without its concatenated copy."""
    out = np.empty_like(x)
    out[0] = x[0]
    np.subtract(x[1:], x[:-1], out=out[1:])
    return out


def rad_scores(n: int, seed: int) -> ScoreSeries:
    """The random baseline: i.i.d. uniform [0, 1] scores, fixed by seed."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    return np.random.default_rng(seed).random(n)


def compute_report(pred, truth, scores: ScoreSeries | None = None) -> MetricReport:
    """Every metric for one (prediction, truth) pair.

    Scores, when given, are checked against the truth; the ranking metrics
    are filled in when the truth also has both classes, and stay None
    otherwise.
    """
    p, y = _pair(pred, truth)
    counts = _counts(p, y)
    tp, positives, n_pos, _, tp_e, n_events = counts
    roc = prc = None
    if scores is not None:
        s = _checked(scores, y)[0]
        if 0 < n_pos < y.shape[0]:
            cuts = _cuts(s, y)[:2]
            roc, prc = _auroc(*cuts), _auprc(*cuts)
    return MetricReport(
        f1=_ratio(*_f_terms("f1", *counts)),
        fpa1=_ratio(*_f_terms("fpa1", *counts)),
        fc1=_ratio(*_f_terms("fc1", *counts)),
        prec_t=_ratio(tp, positives),
        rec_e=_ratio(tp_e, n_events),
        rec_point=_ratio(tp, n_pos),
        auroc=roc,
        auprc=prc,
    )
