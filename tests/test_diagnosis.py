import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsadkit.core import ConfigError, Event, ValidationError
from tsadkit.diagnosis import hitrate_at, rank_channels, rc_top_k


def diags_for(ranks_per_event, events):
    """Rankings of event rows built to rank as the given channel orders."""
    out = []
    for order, e in zip(ranks_per_event, events):
        n = len(order)
        rows = np.zeros((e.length, n))
        for pos, ch in enumerate(order):
            rows[:, ch] = n - pos
        out.append(rank_channels(rows))
    return out


class TestRankChannels:
    def test_dominant_channel_first(self):
        scores = np.zeros((10, 3))
        scores[2:5, 2] = 10.0
        assert rank_channels(scores[2:5])[0] == 2

    def test_all_tied_identity_order(self):
        assert rank_channels(np.ones((3, 4))) == (0, 1, 2, 3)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            scores = rng.random((20, 4))
            start = int(rng.integers(0, 15))
            end = int(rng.integers(start, 20))
            ranking = rank_channels(scores[start : end + 1])
            means = scores[start : end + 1].mean(axis=0)
            assert list(ranking) == sorted(range(4), key=lambda i: (-means[i], i))

    def test_max_statistic(self):
        scores = np.zeros((8, 2))
        scores[3, 0] = 100.0  # one huge instant on channel 0
        scores[2:6, 1] = 2.0  # sustained but lower on channel 1
        rows = scores[2:6]
        assert rank_channels(rows, statistic="mean")[0] == 0  # 100/4 = 25 > 2
        assert rank_channels(rows, statistic="max")[0] == 0
        scores[3, 0] = 3.0
        assert rank_channels(rows, statistic="mean")[0] == 1
        assert rank_channels(rows, statistic="max")[0] == 0

    def test_no_rows_rejected(self):
        with pytest.raises(ValidationError, match="at least one row"):
            rank_channels(np.zeros((0, 2)))

    def test_unknown_statistic_rejected(self):
        with pytest.raises(ConfigError, match="statistic must be one of"):
            rank_channels(np.zeros((2, 2)), statistic="median")

    def test_non_finite_rows_rejected(self):
        with pytest.raises(ValidationError, match="NaN or infinite"):
            rank_channels(np.array([[0.0, np.inf]]))

    def test_scored_subset_only(self):
        scores = np.zeros((5, 3))
        scores[:, 1] = 9.0
        assert rank_channels(scores, scored=np.array([2, 0])) == (0, 2)

    def test_scale_invariance(self):
        rng = np.random.default_rng(20)
        rows = rng.random((8, 5))
        assert rank_channels(rows) == rank_channels(rows * 37.5)


@st.composite
def tied_rows(draw):
    """(rows, scored): event rows on a few tied levels and a scored subset."""
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.lists(st.floats(-5, 5), min_size=1, max_size=3, unique=True))
    rows = np.array(levels)[rng.integers(0, len(levels), size=(n, m))]
    scored = draw(st.none() | st.lists(st.integers(0, m - 1), min_size=1, unique=True))
    return rows, scored


@pytest.mark.parametrize("statistic", ["mean", "max"])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=tied_rows())
def test_ranking_matches_plain_sort(statistic, case):
    """The ranking is the scored channels sorted by descending statistic
    over the rows, ties toward the lower index, in plain Python."""
    rows, scored = case
    columns = [[float(row[c]) for row in rows] for c in range(rows.shape[1])]
    # np.mean adds a column's rows in order, as sum() does
    stat = [sum(col) / len(col) if statistic == "mean" else max(col) for col in columns]
    chosen = range(rows.shape[1]) if scored is None else set(scored)
    expected = tuple(sorted(chosen, key=lambda c: (-stat[c], c)))
    assert rank_channels(rows, scored, statistic) == expected


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
            d = [rank_channels(rng.random((4, m)))]
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
        d = [rank_channels(rng.random((4, m)))]
        values = [hitrate_at(d, events, percent=p) for p in (50, 100, 150, 200, 300)]
        assert values == sorted(values)
