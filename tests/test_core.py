import numpy as np
import pytest

from tsadkit.core import (
    Entity,
    Event,
    EventSet,
    SeriesMatrix,
    ValidationError,
    events_from_labels,
    labels_from_events,
    resolve_scored,
    validate_labels,
)
from reference import events_by_scan


class TestSeriesMatrix:
    def test_auto_channel_names(self):
        sm = SeriesMatrix(np.zeros((4, 3)))
        assert sm.channel_names == ("c0", "c1", "c2")
        assert sm.n == 4 and sm.m == 3

    def test_values_are_frozen(self):
        sm = SeriesMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            sm.values[0, 0] = 5.0

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError, match="unique"):
            SeriesMatrix(np.zeros((2, 2)), ("a", "a"))

    def test_name_count_must_match(self):
        with pytest.raises(ValidationError):
            SeriesMatrix(np.zeros((2, 3)), ("a", "b"))

    def test_rejects_non_finite(self):
        bad = np.array([[0.0, np.nan]])
        with pytest.raises(ValidationError, match="finite"):
            SeriesMatrix(bad)

    def test_rejects_1d(self):
        with pytest.raises(ValidationError):
            SeriesMatrix(np.zeros(5))


class TestValidateLabels:
    def test_accepts_binary(self):
        out = validate_labels([0, 1, 1, 0])
        assert out.dtype == np.int64
        assert list(out) == [0, 1, 1, 0]

    def test_rejects_other_values(self):
        with pytest.raises(ValidationError):
            validate_labels([0, 2, 0])

    def test_rejects_matrix(self):
        with pytest.raises(ValidationError):
            validate_labels(np.zeros((2, 2), dtype=int))


class TestEvents:
    def test_event_bounds(self):
        e = Event(3, 5)
        assert e.length == 3
        with pytest.raises(ValidationError):
            Event(5, 3)
        with pytest.raises(ValidationError):
            Event(-1, 3)

    def test_empty_causes_rejected(self):
        with pytest.raises(ValidationError):
            Event(0, 1, frozenset())

    def test_events_sorted_and_disjoint(self):
        es = EventSet((Event(0, 2), Event(5, 6)))
        assert len(es) == 2
        with pytest.raises(ValidationError):
            EventSet((Event(5, 6), Event(0, 2)))
        with pytest.raises(ValidationError):
            EventSet((Event(0, 5), Event(3, 8)))

    def test_adjacent_events_rejected(self):
        # touching runs would merge under run-length extraction
        with pytest.raises(ValidationError):
            EventSet((Event(0, 2), Event(3, 4)))

    def test_from_labels_example(self):
        es = events_from_labels([0, 1, 1, 0, 1])
        assert es.spans() == ((1, 2), (4, 4))

    def test_label_round_trip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            labels = (rng.random(n) < 0.3).astype(np.int64)
            es = events_from_labels(labels)
            assert es.spans() == tuple(events_by_scan(labels))
            back = labels_from_events(es, n)
            assert np.array_equal(back, labels)

    def test_all_zero_labels(self):
        assert len(events_from_labels(np.zeros(10, dtype=int))) == 0

    def test_labels_from_events_bounds(self):
        es = EventSet((Event(2, 4),))
        with pytest.raises(ValidationError):
            labels_from_events(es, 4)


class TestEntity:
    def _entity(self, labels, events=None, scored=None):
        train = SeriesMatrix(np.zeros((6, 2)), ("a", "b"))
        test = SeriesMatrix(np.zeros((len(labels), 2)), ("a", "b"))
        return Entity("e1", train, test, np.asarray(labels), events, scored)

    def test_events_derived_from_labels(self):
        ent = self._entity([0, 1, 1, 0])
        assert ent.test_events.spans() == ((1, 2),)
        assert ent.m == 2

    def test_given_events_must_match_labels(self):
        with pytest.raises(ValidationError, match="label"):
            self._entity([0, 1, 1, 0], EventSet((Event(0, 1),)))

    def test_causes_attach(self):
        es = EventSet((Event(1, 2, frozenset({1})),))
        ent = self._entity([0, 1, 1, 0], es)
        assert ent.test_events[0].causes == frozenset({1})

    def test_cause_channel_out_of_range(self):
        es = EventSet((Event(1, 2, frozenset({7})),))
        with pytest.raises(ValidationError):
            self._entity([0, 1, 1, 0], es)

    def test_scored_channels(self):
        ent = self._entity([0, 0, 0], scored=(1,))
        assert list(ent.scored_indices()) == [1]
        # default: every channel
        assert list(self._entity([0]).scored_indices()) == [0, 1]

    def test_scored_out_of_range(self):
        with pytest.raises(ValidationError):
            self._entity([0], scored=(3,))

    def test_channel_mismatch(self):
        train = SeriesMatrix(np.zeros((3, 2)))
        test = SeriesMatrix(np.zeros((3, 3)))
        with pytest.raises(ValidationError):
            Entity("x", train, test, np.zeros(3, dtype=int))

    def test_label_length_mismatch(self):
        train = SeriesMatrix(np.zeros((3, 2)))
        test = SeriesMatrix(np.zeros((3, 2)))
        with pytest.raises(ValidationError):
            Entity("x", train, test, np.zeros(5, dtype=int))


class TestResolveScored:
    def test_none_is_every_channel(self):
        assert resolve_scored(3, None).tolist() == [0, 1, 2]

    def test_sorted_and_unique(self):
        assert resolve_scored(4, [3, 1, 3]).tolist() == [1, 3]

    @pytest.mark.parametrize("scored, message", [
        ([], "scored channel set must be non-empty"),
        ([0, 4], r"scored channels \[0, 4\] outside 0..3"),
        ([-1], r"scored channels \[-1\] outside 0..3"),
    ])
    def test_rejects(self, scored, message):
        with pytest.raises(ValidationError, match=message):
            resolve_scored(4, scored)
