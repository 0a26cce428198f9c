"""Anomaly diagnosis: rank channels per event, then score the rankings.

Diagnosis consumes the true event intervals, never predicted ones. Each
event's own channel-score rows rank the scored channels; RC-top-k and
HitRate@P then score the rankings against the events' causes.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import (
    ConfigError,
    Event,
    ValidationError,
    check_float_matrix,
    resolve_scored,
)

RANK_STATISTICS = ("mean", "max")


def rank_channels(rows, scored=None, statistic: str = "mean") -> tuple[int, ...]:
    """The scored channels, most anomalous first, over one event's rows.

    ``rows`` holds the channel-score rows the event spans. The aggregation
    statistic over them is the mean by default; "max" is available as a
    config switch. Ties break toward the lower channel index so rankings
    are deterministic.
    """
    if statistic not in RANK_STATISTICS:
        raise ConfigError(
            f"statistic must be one of {RANK_STATISTICS}, got {statistic!r}"
        )
    scores = check_float_matrix(rows, "channel scores")
    if not scores.shape[0]:
        raise ValidationError("an event spans at least one row, got none")
    idx = resolve_scored(scores.shape[1], scored)

    span = scores[:, idx]
    agg = span.mean(axis=0) if statistic == "mean" else span.max(axis=0)
    # stable sort on descending score keeps ascending channel index on ties
    return tuple(idx[np.argsort(-agg, kind="stable")].tolist())


def _paired(rankings: Sequence[tuple[int, ...]], events: Sequence[Event]):
    if len(rankings) != len(events):
        raise ValidationError(f"{len(rankings)} rankings for {len(events)} events")
    pairs = [(r, e) for r, e in zip(rankings, events) if e.causes is not None]
    if not pairs:
        raise ValidationError("no events carry cause annotations")
    return pairs


def rc_top_k(
    rankings: Sequence[tuple[int, ...]], events: Sequence[Event], k: int = 3
) -> float:
    """Fraction of cause-annotated events with any true cause in the top k.

    Events without cause annotations are skipped.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    pairs = _paired(rankings, events)
    hits = sum(1 for r, e in pairs if set(r[:k]) & e.causes)
    return hits / len(pairs)


def hitrate_at(
    rankings: Sequence[tuple[int, ...]], events: Sequence[Event], percent: int = 150
) -> float:
    """Mean overlap of true causes with the top floor(percent/100 * c).

    For an event with c true causes the top floor(percent*c/100) ranked
    channels are examined; the event's score is the intersection size
    divided by c. Integer arithmetic keeps floor(1.5c) exact for odd c.
    """
    if percent < 1:
        raise ValidationError(f"percent must be >= 1, got {percent}")
    pairs = _paired(rankings, events)
    total = 0.0
    for r, e in pairs:
        c = len(e.causes)
        total += len(set(r[: (percent * c) // 100]) & e.causes) / c
    return total / len(pairs)
