"""Anomaly diagnosis: rank channels per event, then score the rankings.

Diagnosis consumes the true event intervals, never predicted ones, and
ranks the scored channels by their anomaly scores over the event span.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    ChannelScores,
    ConfigError,
    Event,
    ValidationError,
    check_float_matrix,
    resolve_scored,
)

RANK_STATISTICS = ("mean", "max")


@dataclass(frozen=True)
class EventDiagnosis:
    """A full ranking of the scored channels for one event."""

    event_index: int
    ranked_channels: tuple[int, ...]  # most anomalous first
    statistic: str


def rank_channels(
    channel_scores: ChannelScores,
    event: Event,
    scored=None,
    statistic: str = "mean",
    event_index: int = 0,
) -> EventDiagnosis:
    """Sort scored channels by descending score over the event span.

    The aggregation statistic over the span is the mean by default; "max"
    is available as a config switch. Ties break toward the lower channel
    index so rankings are deterministic.
    """
    if statistic not in RANK_STATISTICS:
        raise ConfigError(
            f"statistic must be one of {RANK_STATISTICS}, got {statistic!r}"
        )
    scores = check_float_matrix(channel_scores, "channel scores")
    n, m = scores.shape
    if event.end >= n:
        raise ValidationError(
            f"event ({event.start},{event.end}) outside score range 0..{n - 1}"
        )
    idx = resolve_scored(m, scored)

    span = scores[event.start : event.end + 1, idx]
    agg = span.mean(axis=0) if statistic == "mean" else span.max(axis=0)
    # stable sort on descending score keeps ascending channel index on ties
    order = np.argsort(-agg, kind="stable")
    return EventDiagnosis(
        event_index=event_index,
        ranked_channels=tuple(int(idx[j]) for j in order),
        statistic=statistic,
    )


def event_rows(channel_scores: ChannelScores, event: Event) -> tuple[ChannelScores, Event]:
    """The rows of a score matrix that one event spans, and the event
    re-based to start at row 0.

    Ranking these rows ranks the event exactly as ranking the full matrix
    would, while :func:`rank_channels` checks only the event's rows. Check
    the full matrix once with ``check_float_matrix`` before slicing it.
    """
    n = channel_scores.shape[0]
    if event.end >= n:
        raise ValidationError(
            f"event ({event.start},{event.end}) outside score range 0..{n - 1}"
        )
    return channel_scores[event.start : event.end + 1], Event(0, event.end - event.start)


def _paired(diagnoses: Sequence[EventDiagnosis], events: Sequence[Event]):
    if len(diagnoses) != len(events):
        raise ValidationError(
            f"{len(diagnoses)} diagnoses for {len(events)} events"
        )
    pairs = [(d, e) for d, e in zip(diagnoses, events) if e.causes is not None]
    if not pairs:
        raise ValidationError("no events carry cause annotations")
    return pairs


def rc_top_k(
    diagnoses: Sequence[EventDiagnosis], events: Sequence[Event], k: int = 3
) -> float:
    """Fraction of cause-annotated events with any true cause in the top k.

    Events without cause annotations are skipped.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    pairs = _paired(diagnoses, events)
    hits = sum(
        1 for d, e in pairs if set(d.ranked_channels[:k]) & e.causes
    )
    return hits / len(pairs)


def hitrate_at(
    diagnoses: Sequence[EventDiagnosis], events: Sequence[Event], percent: int = 150
) -> float:
    """Mean overlap of true causes with the top floor(percent/100 * c).

    For an event with c true causes the top floor(percent*c/100) ranked
    channels are examined; the event's score is the intersection size
    divided by c. Integer arithmetic keeps floor(1.5c) exact for odd c.
    """
    if percent < 1:
        raise ValidationError(f"percent must be >= 1, got {percent}")
    pairs = _paired(diagnoses, events)
    total = 0.0
    for d, e in pairs:
        c = len(e.causes)
        top = d.ranked_channels[: (percent * c) // 100]
        total += len(set(top) & e.causes) / c
    return total / len(pairs)
