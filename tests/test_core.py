import dataclasses

import numpy as np
import pytest

from tsadkit.core import (
    Entity,
    Event,
    SeriesMatrix,
    ValidationError,
    resolve_scored,
    validate_labels,
)


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

    # an entity's events are the maximal runs of 1s in its test labels
    @staticmethod
    def _events(labels):
        test = SeriesMatrix(np.zeros((len(labels), 1)))
        return Entity("e", SeriesMatrix(np.zeros((2, 1))), test, labels).test_events

    def test_from_labels_example(self):
        assert self._events([0, 1, 1, 0, 1]) == (Event(1, 2), Event(4, 4))

    def test_all_zero_labels(self):
        assert self._events(np.zeros(10, dtype=int)) == ()


class TestEntity:
    def _entity(self, labels, causes=None, scored=None):
        train = SeriesMatrix(np.zeros((6, 2)), ("a", "b"))
        test = SeriesMatrix(np.zeros((len(labels), 2)), ("a", "b"))
        return Entity("e1", train, test, np.asarray(labels), causes or {}, scored)

    def test_events_derived_from_labels(self):
        ent = self._entity([0, 1, 1, 0])
        assert ent.test_events == (Event(1, 2),)
        assert ent.m == 2

    def test_events_sorted_and_disjoint(self):
        ent = self._entity([1, 0, 0, 1, 1, 0, 1])
        assert ent.test_events == (Event(0, 0), Event(3, 4), Event(6, 6))
        for prev, cur in zip(ent.test_events, ent.test_events[1:]):
            assert cur.start > prev.end + 1

    def test_touching_runs_are_one_event(self):
        # labels cannot tell two adjacent anomalies apart: they are one run
        ent = self._entity([0, 1, 1, 1, 1, 0], {0: [0, 1]})
        assert ent.test_events == (Event(1, 4, frozenset({0, 1})),)
        with pytest.raises(ValidationError, match="causes name event 1 but the labels have 1 events"):
            self._entity([0, 1, 1, 1, 1, 0], {0: [0], 1: [1]})

    def test_causes_attach(self):
        ent = self._entity([1, 0, 1, 1, 0], {1: [1]})
        assert ent.test_events == (Event(0, 0), Event(2, 3, frozenset({1})))
        assert dict(ent.causes) == {1: frozenset({1})}

    @pytest.mark.parametrize("ordinal", [-1, 2])
    def test_cause_ordinal_out_of_range(self, ordinal):
        message = f"causes name event {ordinal} but the labels have 2 events"
        with pytest.raises(ValidationError, match=message):
            self._entity([1, 0, 1, 1, 0], {ordinal: [0]})

    def test_cause_channel_out_of_range(self):
        with pytest.raises(ValidationError, match="cause channel >= m=2"):
            self._entity([0, 1, 1, 0], {0: [7]})

    @pytest.mark.parametrize("channels, message", [
        ([], "must be non-empty"),
        ([-1], ">= 0"),
    ])
    def test_event_checks_apply_to_causes(self, channels, message):
        with pytest.raises(ValidationError, match=message):
            self._entity([0, 1, 1, 0], {0: channels})

    def test_causes_are_a_read_only_copy(self):
        given = {0: [1]}
        ent = self._entity([0, 1, 1, 0], given)
        given[0].append(0)
        assert ent.test_events[0].causes == frozenset({1})
        with pytest.raises(TypeError):
            ent.causes[0] = frozenset({0})

    def test_replace_keeps_causes(self):
        ent = self._entity([0, 1, 1, 0], {0: [1]}, scored=(0, 1))
        moved = dataclasses.replace(ent, train=SeriesMatrix(np.ones((4, 2)), ("a", "b")))
        assert moved.causes == ent.causes
        assert moved.test_events == ent.test_events
        with pytest.raises(ValueError, match="test_events"):
            dataclasses.replace(ent, test_events=())

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
