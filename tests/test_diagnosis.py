import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsadkit.core import Event, ValidationError
from tsadkit.diagnosis import hitrate_at, rank_channels, rc_top_k
from tsadkit.experiment import diagnose_events


def diags_for(ranks_per_event, events):
    """Build EventDiagnosis list from explicit ranked channel orders."""
    out = []
    for i, order in enumerate(ranks_per_event):
        n = len(order)
        scores = np.zeros((events[i].end + 1, n))
        for pos, ch in enumerate(order):
            scores[events[i].start : events[i].end + 1, ch] = n - pos
        out.append(rank_channels(scores, events[i], event_index=i))
    return out


class TestRankChannels:
    def test_dominant_channel_first(self):
        scores = np.zeros((10, 3))
        scores[2:5, 2] = 10.0
        d = rank_channels(scores, Event(2, 4))
        assert d.ranked_channels[0] == 2

    def test_all_tied_identity_order(self):
        scores = np.ones((6, 4))
        d = rank_channels(scores, Event(1, 3))
        assert d.ranked_channels == (0, 1, 2, 3)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            scores = rng.random((20, 4))
            start = int(rng.integers(0, 15))
            end = int(rng.integers(start, 20))
            d = rank_channels(scores, Event(start, end))
            means = scores[start : end + 1].mean(axis=0)
            expected = sorted(range(4), key=lambda i: (-means[i], i))
            assert list(d.ranked_channels) == expected

    def test_max_statistic(self):
        scores = np.zeros((8, 2))
        scores[3, 0] = 100.0  # one huge instant on channel 0
        scores[2:6, 1] = 2.0  # sustained but lower on channel 1
        event = Event(2, 5)
        by_mean = rank_channels(scores, event, statistic="mean")
        by_max = rank_channels(scores, event, statistic="max")
        assert by_mean.ranked_channels[0] == 0  # 100/4 = 25 > 2
        assert by_max.ranked_channels[0] == 0
        scores[3, 0] = 3.0
        assert rank_channels(scores, event, statistic="mean").ranked_channels[0] == 1
        assert rank_channels(scores, event, statistic="max").ranked_channels[0] == 0

    def test_event_outside_range(self):
        with pytest.raises(ValidationError):
            rank_channels(np.zeros((5, 2)), Event(3, 7))

    def test_scored_subset_only(self):
        scores = np.zeros((5, 3))
        scores[:, 1] = 9.0
        d = rank_channels(scores, Event(0, 4), scored=np.array([0, 2]))
        assert set(d.ranked_channels) == {0, 2}

    def test_scale_invariance(self):
        rng = np.random.default_rng(20)
        scores = rng.random((12, 5))
        event = Event(2, 9)
        a = rank_channels(scores, event).ranked_channels
        b = rank_channels(scores * 37.5, event).ranked_channels
        assert a == b


@st.composite
def events_on_scores(draw):
    """(scores, events, scored): a tied score matrix and events on it."""
    n, m = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = rng.integers(0, 4, size=(n, m)).astype(float)  # ties
    starts = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    events = [Event(s, draw(st.integers(s, n - 1))) for s in starts]
    scored = draw(st.sampled_from([None, sorted({0, m - 1})]))
    return scores, events, scored


@pytest.mark.parametrize("statistic", ["mean", "max"])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=events_on_scores())
def test_event_rows_rank_as_full_matrix(statistic, case):
    """Ranking each event's own rows, sliced as the runner and ``diagnose``
    slice them, gives the ranking of the event on the whole matrix."""
    scores, events, scored = case
    rows = [scores[e.start : e.end + 1] for e in events]
    diagnoses, _ = diagnose_events(rows, events, scored, statistic, 3, 150)
    assert diagnoses == [
        rank_channels(scores, e, scored, statistic, i) for i, e in enumerate(events)
    ]


class TestRcTopK:
    def test_boundary_rank_counts(self):
        events = [Event(0, 2, frozenset({3}))]
        # cause sits exactly at rank 3
        d = diags_for([(0, 1, 3, 2)], events)
        assert rc_top_k(d, events, k=3) == 1.0
        d = diags_for([(0, 1, 2, 3)], events)
        assert rc_top_k(d, events, k=3) == 0.0

    def test_half_hit(self):
        events = [Event(0, 1, frozenset({0})), Event(3, 4, frozenset({3}))]
        d = diags_for([(0, 1, 2, 3), (0, 1, 2, 3)], events)
        assert rc_top_k(d, events, k=2) == 0.5

    def test_events_without_causes_skipped(self):
        events = [Event(0, 1, frozenset({0})), Event(3, 4, None)]
        d = diags_for([(0, 1), (1, 0)], events)
        assert rc_top_k(d, events, k=1) == 1.0

    def test_no_annotated_events_rejected(self):
        events = [Event(0, 1, None)]
        d = diags_for([(0, 1)], events)
        with pytest.raises(ValidationError):
            rc_top_k(d, events, k=1)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            m = 6
            events = [
                Event(0, 3, frozenset(int(c) for c in rng.choice(m, 2, replace=False)))
            ]
            scores = rng.random((4, m))
            d = [rank_channels(scores, events[0])]
            values = [rc_top_k(d, events, k) for k in range(1, m + 1)]
            assert values == sorted(values)
            assert values[-1] == 1.0


class TestHitRate:
    def test_two_causes_ranks_one_and_three(self):
        events = [Event(0, 2, frozenset({0, 2}))]
        d = diags_for([(0, 1, 2, 3)], events)  # causes at ranks 1 and 3
        assert hitrate_at(d, events, percent=150) == 1.0

    def test_single_cause_top_rank(self):
        events = [Event(0, 0, frozenset({1}))]
        d = diags_for([(1, 0)], events)
        assert hitrate_at(d, events, percent=150) == 1.0

    def test_floor_cuts_off_rank_two(self):
        # c=1: floor(1.5) = 1 channel examined, cause at rank 2 missed
        events = [Event(0, 0, frozenset({0}))]
        d = diags_for([(1, 0)], events)
        assert hitrate_at(d, events, percent=150) == 0.0

    def test_average_over_events(self):
        events = [
            Event(0, 0, frozenset({0})),
            Event(2, 2, frozenset({1})),
        ]
        d = diags_for([(0, 1), (0, 1)], events)
        assert hitrate_at(d, events, percent=150) == pytest.approx(0.5)

    def test_monotone_in_percent(self):
        rng = np.random.default_rng(22)
        m = 8
        events = [Event(0, 3, frozenset(int(c) for c in rng.choice(m, 3, replace=False)))]
        scores = rng.random((4, m))
        d = [rank_channels(scores, events[0])]
        values = [hitrate_at(d, events, percent=p) for p in (50, 100, 150, 200, 300)]
        assert values == sorted(values)
