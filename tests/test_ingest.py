import json
import re

import numpy as np
import pytest

from tsadkit import ingest
from tsadkit.core import (
    ConfigError,
    InsufficientDataError,
    ParseError,
    SeriesMatrix,
    ValidationError,
)
from tsadkit.ingest import (
    AnomalySpec,
    SyntheticSpec,
    WindowSpec,
    apply_normalizer,
    fit_normalizer,
    generate_synthetic,
    load_entity,
    make_windows,
    read_csv,
)


def matrix(rows, names=None):
    arr = np.asarray(rows, dtype=np.float64)
    return SeriesMatrix(arr, tuple(names) if names else ())


class TestNormalizer:
    def test_basic_stats(self):
        stats = fit_normalizer(matrix([[0.0, 5.0], [2.0, 5.0], [4.0, 5.0]]))
        assert list(stats.vmin) == [0.0, 5.0]
        assert list(stats.vmax) == [4.0, 5.0]

    def test_train_maps_to_unit_interval(self):
        train = matrix([[0.0], [2.0], [4.0]])
        stats = fit_normalizer(train)
        out = apply_normalizer(train, stats)
        assert out.values.min() == 0.0 and out.values.max() == 1.0
        assert out.values[1, 0] == pytest.approx(0.5)

    def test_test_phase_clips_to_range(self):
        train = matrix([[0.0], [1.0]])
        stats = fit_normalizer(train)
        # min + 10*(max-min) lands far above the clip ceiling
        test = matrix([[10.0], [-10.0], [0.5]])
        out = apply_normalizer(test, stats)
        assert out.values[0, 0] == 5.0
        assert out.values[1, 0] == -4.0
        assert out.values[2, 0] == pytest.approx(0.5)

    def test_constant_channel_fallback_range(self):
        train = matrix([[3.0], [3.0]])
        stats = fit_normalizer(train)
        assert apply_normalizer(train, stats).values.max() == 0.0
        # v = min + 2 divided by the unit fallback range
        test = matrix([[5.0]])
        assert apply_normalizer(test, stats).values[0, 0] == 2.0

    def test_channel_count_must_match(self):
        stats = fit_normalizer(matrix([[0.0], [1.0]]))
        with pytest.raises(ValidationError):
            apply_normalizer(matrix([[0.0, 1.0]]), stats)

    def test_random_ranges_property(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n, m = int(rng.integers(2, 30)), int(rng.integers(1, 5))
            train = matrix(rng.normal(size=(n, m)) * 10)
            test = matrix(rng.normal(size=(n, m)) * 100)
            stats = fit_normalizer(train)
            tr = apply_normalizer(train, stats).values
            te = apply_normalizer(test, stats).values
            assert tr.min() >= 0.0 and tr.max() <= 1.0
            assert te.min() >= -4.0 and te.max() <= 5.0


class TestWindows:
    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            WindowSpec(0, 1)
        with pytest.raises(ValidationError):
            WindowSpec(3, 4)  # step above length
        with pytest.raises(ValidationError):
            WindowSpec(3, 0)

    def test_stride_one_enumeration(self):
        x = matrix(np.arange(10).reshape(5, 2))
        w = make_windows(x, WindowSpec(3, 1))
        assert w.shape == (3, 3, 2)
        assert np.array_equal(w[0], x.values[0:3])
        assert np.array_equal(w[2], x.values[2:5])

    def test_stride_two_enumeration(self):
        x = matrix(np.arange(10).reshape(5, 2))
        w = make_windows(x, WindowSpec(3, 2))
        assert w.shape == (2, 3, 2)
        assert np.array_equal(w[1], x.values[2:5])

    def test_single_window(self):
        x = matrix(np.arange(6).reshape(3, 2))
        assert make_windows(x, WindowSpec(3, 1)).shape[0] == 1

    def test_too_short(self):
        x = matrix(np.zeros((2, 1)))
        with pytest.raises(InsufficientDataError):
            make_windows(x, WindowSpec(3, 1))

    def test_count_formula_random(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(1, 60))
            lw = int(rng.integers(1, 20))
            ls = int(rng.integers(1, lw + 1))
            x = matrix(rng.normal(size=(n, 2)))
            if n < lw:
                with pytest.raises(InsufficientDataError):
                    make_windows(x, WindowSpec(lw, ls))
                continue
            w = make_windows(x, WindowSpec(lw, ls))
            assert w.shape[0] == (n - lw) // ls + 1
            assert np.array_equal(w[-1], x.values[(w.shape[0] - 1) * ls :][:lw])


class TestSyntheticSpec:
    def test_period_broadcast(self):
        spec = SyntheticSpec(10, 10, 3, period=25.0)
        assert spec.period == (25.0, 25.0, 25.0)

    def test_anomaly_kinds(self):
        with pytest.raises(ValidationError):
            AnomalySpec(0, 5, "unknown_kind", (0,))
        with pytest.raises(ValidationError):
            AnomalySpec(0, 5, "spike", ())  # needs cause channels
        with pytest.raises(ValidationError):
            AnomalySpec(0, 5, "drift_background", (0,))  # affects all channels

    def test_overlap_rejected(self):
        events = (
            AnomalySpec(0, 5, "spike", (0,)),
            AnomalySpec(4, 5, "spike", (1,)),
        )
        with pytest.raises(ValidationError, match="overlap"):
            SyntheticSpec(20, 20, 2, anomalies=events)

    def test_touching_rejected(self):
        events = (
            AnomalySpec(0, 5, "spike", (0,)),
            AnomalySpec(5, 3, "spike", (1,)),
        )
        with pytest.raises(ValidationError):
            SyntheticSpec(20, 20, 2, anomalies=events)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(20, 10, 1, anomalies=(AnomalySpec(8, 5, "spike", (0,)),))

    def test_from_dict_errors(self):
        with pytest.raises(ConfigError):
            SyntheticSpec.from_dict({"n_train": 10})  # missing fields
        with pytest.raises(ConfigError):
            SyntheticSpec.from_dict(
                {"n_train": 10, "n_test": 10, "m": 1, "bogus": 1}
            )

    @pytest.mark.parametrize("raw, message", [
        (5, "spec must be an object, got 5"),
        ([{}], "spec must be an object, got an array"),
        ({"n_train": 10, "n_test": 10}, "spec: missing key 'm'"),
        ({"n_train": 10, "n_test": 10, "m": 1.0}, "spec.m must be an integer, got 1.0"),
        ({"n_train": 10, "n_test": 10, "m": 1, "period": [20, "x"]},
         'spec.period[1] must be a number, got "x"'),
        ({"n_train": 10, "n_test": 10, "m": 1,
          "anomalies": [{"start": 1, "length": 2, "kind": "spike", "channels": [0],
                         "magntiude": 2.0}]},
         "spec.anomalies[0]: unknown keys ['magntiude']"),
        ({"n_train": 10, "n_test": 10, "m": 1,
          "anomalies": [{"start": 1, "length": 2, "kind": "spike", "channels": [True]}]},
         "spec.anomalies[0].channels[0] must be an integer, got true"),
        ({"n_train": 10, "n_test": 10, "m": 1,
          "anomalies": [{"start": 8, "length": 5, "kind": "spike", "channels": [0]}]},
         "anomaly (8,12) outside test range 0..9"),
    ])
    def test_from_dict_errors_name_the_path(self, raw, message):
        with pytest.raises(ConfigError) as caught:
            SyntheticSpec.from_dict(raw)
        assert str(caught.value) == message


class TestGenerateSynthetic:
    def test_no_events_all_healthy(self):
        ent = generate_synthetic(SyntheticSpec(50, 60, 2, seed=1))
        assert ent.train.n == 50 and ent.test.n == 60
        assert ent.test_labels.sum() == 0

    def test_same_seed_bit_identical(self):
        spec = SyntheticSpec(40, 40, 3, seed=9, anomalies=(
            AnomalySpec(10, 5, "spike", (1,), 2.0),
        ))
        a, b = generate_synthetic(spec), generate_synthetic(spec)
        assert np.array_equal(a.train.values, b.train.values)
        assert np.array_equal(a.test.values, b.test.values)
        assert np.array_equal(a.test_labels, b.test_labels)

    def test_labels_and_causes(self):
        spec = SyntheticSpec(30, 100, 3, seed=2, anomalies=(
            AnomalySpec(10, 5, "spike", (0, 2), 3.0),
            AnomalySpec(40, 8, "level_shift", (1,), 2.0),
        ))
        ent = generate_synthetic(spec)
        assert [(e.start, e.end) for e in ent.test_events] == [(10, 14), (40, 47)]
        assert ent.test_events[0].causes == frozenset({0, 2})
        assert ent.test_events[1].causes == frozenset({1})

    def test_spike_lifts_mean_absolute_deviation(self):
        # 5-sigma spike: event-window MAD well above the healthy segments
        spec = SyntheticSpec(100, 400, 3, noise_sigma=1.0, seed=4, anomalies=(
            AnomalySpec(100, 40, "spike", (2,), 5.0),
        ))
        ent = generate_synthetic(spec)
        sig = ent.test.values[:, 2]
        healthy = np.abs(sig[:100] - sig[:100].mean()).mean()
        anomalous = np.abs(sig[100:140] - sig[:100].mean()).mean()
        assert anomalous > 3 * healthy

    def test_level_shift_moves_mean(self):
        spec = SyntheticSpec(50, 300, 1, period=30.0, noise_sigma=0.01, seed=6,
                             anomalies=(AnomalySpec(100, 60, "level_shift", (0,), 4.0),))
        sig = generate_synthetic(spec).test.values[:, 0]
        assert sig[100:160].mean() - sig[:100].mean() == pytest.approx(4.0, abs=0.1)

    def test_drift_background_unlabeled_and_persistent(self):
        spec = SyntheticSpec(50, 500, 2, noise_sigma=0.01, seed=3, anomalies=(
            AnomalySpec(100, 200, "drift_background", (), 2.0),
        ))
        ent = generate_synthetic(spec)
        assert ent.test_labels.sum() == 0  # drift is a normality change, not an anomaly
        clean = generate_synthetic(SyntheticSpec(50, 500, 2, noise_sigma=0.01, seed=3))
        delta = ent.test.values - clean.test.values
        assert np.abs(delta[:100]).max() < 1e-12
        assert delta[299] == pytest.approx(2.0, abs=1e-9)
        # the shifted level persists after the ramp on every channel
        assert np.allclose(delta[300:], 2.0, atol=1e-9)

    def test_drift_exempt_from_overlap_rule(self):
        spec = SyntheticSpec(50, 300, 2, seed=1, anomalies=(
            AnomalySpec(0, 250, "drift_background", (), 1.0),
            AnomalySpec(100, 10, "spike", (0,), 2.0),
        ))
        ent = generate_synthetic(spec)
        assert [(e.start, e.end) for e in ent.test_events] == [(100, 109)]


class TestLoadEntity:
    def _write(self, tmp_path, name, header, rows):
        path = tmp_path / name
        lines = [",".join(header)] + [",".join(str(v) for v in r) for r in rows]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_minimal_round_trip(self, tmp_path):
        train = self._write(tmp_path, "train.csv", ["a", "b"],
                            [[0.0, 1.0], [1.0, 2.0], [2.0, 3.0]])
        test = self._write(tmp_path, "test.csv", ["a", "b", "label"],
                           [[0.0, 1.0, 0], [5.0, 1.0, 1], [0.0, 1.0, 0]])
        ent = load_entity(train, test)
        assert ent.train.channel_names == ("a", "b")
        assert [(e.start, e.end) for e in ent.test_events] == [(1, 1)]
        assert ent.id == "test"

    def test_missing_label_column(self, tmp_path):
        train = self._write(tmp_path, "train.csv", ["a"], [[0.0], [1.0]])
        test = self._write(tmp_path, "test.csv", ["a"], [[0.0], [1.0]])
        with pytest.raises(ParseError, match="label"):
            load_entity(train, test)

    def test_non_numeric_cell_reports_position(self, tmp_path):
        train = self._write(tmp_path, "train.csv", ["a"], [[0.0], ["oops"]])
        test = self._write(tmp_path, "test.csv", ["a", "label"], [[0.0, 0]])
        with pytest.raises(ParseError, match=r"line 3 column 'a'.*'oops'"):
            load_entity(train, test)

    def test_channel_mismatch(self, tmp_path):
        train = self._write(tmp_path, "train.csv", ["a", "b"], [[0.0, 1.0]])
        test = self._write(tmp_path, "test.csv", ["a", "label"], [[0.0, 0]])
        with pytest.raises(ParseError):
            load_entity(train, test)

    def test_repeated_channel_names_file(self, tmp_path):
        # matched by name, both "a" columns would read the first one
        train = self._write(tmp_path, "train.csv", ["a", "a", "b"], [[0.0, 1.0, 2.0]])
        test = self._write(tmp_path, "test.csv", ["a", "a", "b", "label"], [[0.0, 1.0, 2.0, 0]])
        with pytest.raises(ParseError) as info:
            load_entity(train, test)
        assert str(info.value) == f"{test}: channel 'a' appears more than once"

    def test_label_values_strict(self, tmp_path):
        train = self._write(tmp_path, "train.csv", ["a"], [[0.0]])
        test = self._write(tmp_path, "test.csv", ["a", "label"], [[0.0, 2]])
        with pytest.raises(ParseError):
            load_entity(train, test)

    def test_cause_map_resolves_names(self, tmp_path):
        train = self._write(tmp_path, "train.csv", ["P101", "P102"], [[0.0, 0.0]])
        test = self._write(tmp_path, "test.csv", ["P101", "P102", "label"],
                           [[0.0, 0.0, 0], [1.0, 1.0, 1], [0.0, 0.0, 0]])
        cause_file = tmp_path / "causes.json"
        cause_file.write_text(json.dumps({"0": ["P102"]}))
        ent = load_entity(train, test, cause_map=cause_file)
        assert ent.test_events[0].causes == frozenset({1})

    def test_cause_map_unknown_channel(self, tmp_path):
        train = self._write(tmp_path, "train.csv", ["a"], [[0.0]])
        test = self._write(tmp_path, "test.csv", ["a", "label"],
                           [[0.0, 0], [1.0, 1]])
        with pytest.raises(ParseError):
            load_entity(train, test, cause_map={"0": ["nope"]})

    @pytest.mark.parametrize("names", ["ab", ["a", 1], None])
    def test_cause_map_value_must_be_list_of_names(self, tmp_path, names):
        # a string is no list: "ab" must not read as the channels a and b
        train = self._write(tmp_path, "train.csv", ["a", "b"], [[0.0, 0.0]])
        test = self._write(tmp_path, "test.csv", ["a", "b", "label"],
                           [[0.0, 0.0, 0], [1.0, 1.0, 1]])
        with pytest.raises(ParseError, match=r"cause map key '0' must map to a list "
                           r"of channel names, got " + re.escape(repr(names))):
            load_entity(train, test, cause_map={"0": names})

    def test_cause_map_empty_list(self, tmp_path):
        # refused at load, naming the key, rather than in every cell that uses it
        train = self._write(tmp_path, "train.csv", ["a"], [[0.0]])
        test = self._write(tmp_path, "test.csv", ["a", "label"], [[0.0, 0], [1.0, 1]])
        with pytest.raises(ParseError) as info:
            load_entity(train, test, cause_map={"0": []})
        assert str(info.value) == (
            "cause map key '0' must map to a non-empty list of channel names, got []"
        )

    def test_cause_map_ordinal_beyond_the_events(self, tmp_path):
        train = self._write(tmp_path, "train.csv", ["a"], [[0.0]])
        test = self._write(tmp_path, "test.csv", ["a", "label"], [[0.0, 0], [1.0, 1]])
        with pytest.raises(ParseError) as info:
            load_entity(train, test, cause_map={"1": ["a"]})
        assert str(info.value) == "cause map names event 1 but only 1 events exist"

    @pytest.mark.parametrize("key", ["+0", "+0_0", "0_0", " 0 ", "00", "-0", "0.0", "٠", ""])
    def test_cause_map_key_must_be_canonical_ordinal(self, tmp_path, key):
        # each of these int()-parses to 0 (or is no number); only "0" names event 0
        train = self._write(tmp_path, "train.csv", ["a"], [[0.0]])
        test = self._write(tmp_path, "test.csv", ["a", "label"], [[0.0, 0], [1.0, 1]])
        with pytest.raises(ParseError,
                           match=re.escape(f"cause map key {key!r} is not an event ordinal")):
            load_entity(train, test, cause_map={key: ["a"]})

    def test_cause_map_multi_digit_ordinal(self, tmp_path):
        labels = [0, 1] * 11
        train = self._write(tmp_path, "train.csv", ["a"], [[0.0]])
        test = self._write(tmp_path, "test.csv", ["a", "label"], [[0.0, v] for v in labels])
        ent = load_entity(train, test, cause_map={"10": ["a"]})
        assert ent.test_events[10].causes == frozenset({0})
        assert ent.test_events[9].causes is None

    def test_cause_map_file_must_hold_an_object(self, tmp_path):
        train = self._write(tmp_path, "train.csv", ["a"], [[0.0]])
        test = self._write(tmp_path, "test.csv", ["a", "label"], [[0.0, 0], [1.0, 1]])
        cause_file = tmp_path / "causes.json"
        cause_file.write_text(json.dumps([["a"]]))
        with pytest.raises(ParseError, match="cause map must be a JSON object"):
            load_entity(train, test, cause_map=cause_file)

    def test_scored_channel_selection(self, tmp_path):
        train = self._write(tmp_path, "train.csv", ["a", "b"], [[0.0, 0.0]])
        test = self._write(tmp_path, "test.csv", ["a", "b", "label"],
                           [[0.0, 0.0, 0]])
        ent = load_entity(train, test, scored_channels=("b",))
        assert ent.scored_channels == (1,)

    def test_label_cell_one_point_zero_rejected(self, tmp_path):
        # float-valued labels would pass a bulk float parse of the column
        train = self._write(tmp_path, "train.csv", ["a"], [[0.0]])
        test = self._write(tmp_path, "test.csv", ["a", "label"],
                           [[0.0, "0"], [0.5, "1.0"]])
        with pytest.raises(ParseError, match=r"line 3 column 'label': "
                           r"label must be 0 or 1, got '1.0'"):
            load_entity(train, test)

    def test_blank_test_line_reports_its_line(self, tmp_path):
        train = self._write(tmp_path, "train.csv", ["a"], [[0.0]])
        test = tmp_path / "test.csv"
        test.write_text("a,label\n0.0,0\n\n1.0,1\n")
        with pytest.raises(ParseError, match=r"line 3: expected 2 cells, got 0"):
            load_entity(train, test)


class TestReadCsv:
    def test_values_and_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x,y\n1.5,-2\n1e3,nan\n")
        header, values = read_csv(path)
        assert header == ["x", "y"]
        assert values.dtype == np.float64
        assert values[:, 0].tolist() == [1.5, 1000.0]
        assert values[0, 1] == -2.0 and np.isnan(values[1, 1])

    def test_blank_line_mid_file_is_an_error(self, tmp_path):
        # a bulk parser that skips blank lines would return two rows
        path = tmp_path / "m.csv"
        path.write_text("x,y\n1,2\n\n3,4\n")
        with pytest.raises(ParseError, match=r"m.csv line 3: expected 2 cells, got 0$"):
            read_csv(path)

    @pytest.mark.parametrize("text, message", [
        ("x,y\n\n1,2\n", "line 2: expected 2 cells, got 0"),
        ("x,y\n\n", "line 2: expected 2 cells, got 0"),
        ("x,y\n1,2\n\n", "line 3: expected 2 cells, got 0"),
        ("x,y\r\n\r\n1,2\r\n", "line 2: expected 2 cells, got 0"),
        ("x,y\r\r1,2\r", "line 2: expected 2 cells, got 0"),
        ("x,y\n  \n", "line 2: expected 2 cells, got 1"),
    ])
    def test_blank_lines_refuse_the_bulk_pass(self, tmp_path, recwarn, text, message):
        # loadtxt skips blank lines, and warns on a body of nothing else
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        assert ingest._bulk_table(path, None) is None
        assert len(recwarn) == 0
        with pytest.raises(ParseError, match=re.escape(message) + "$"):
            read_csv(path)

    def test_hash_is_not_a_comment(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x,y\n1,2\n#3,4\n")
        with pytest.raises(ParseError, match=r"line 3 column 'x': non-numeric value '#3'$"):
            read_csv(path)
        path.write_text("x,y\n1,2 # note\n")
        with pytest.raises(ParseError, match=r"line 2 column 'y': non-numeric value '2 # note'$"):
            read_csv(path)

    def test_unclosed_header_quote_swallows_the_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text('"x\n1\n2\n')
        with pytest.raises(ParseError, match="no data rows after the header"):
            read_csv(path)

    def test_float_syntax_beyond_loadtxt(self, tmp_path):
        # quoted cells, underscores and padding: float() takes them all
        path = tmp_path / "m.csv"
        path.write_bytes(b'x,y\r\n"1.5",1_000\r\n" 2",+inf\r\n')
        header, values = read_csv(path)
        assert values.tolist() == [[1.5, 1000.0], [2.0, float("inf")]]

    def test_bare_cr_ends_a_line(self, tmp_path):
        # csv.reader ends a row at \r, \n or \r\n, and so must the bulk pass
        path = tmp_path / "m.csv"
        path.write_bytes(b"x,y\r1,2\n3,4\r\n5,6\r")
        assert ingest._bulk_table(path, None) is not None
        header, values = read_csv(path)
        assert header == ["x", "y"]
        assert values.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
        path.write_bytes(b"x,y\r1,2\r\r3,4\n")
        with pytest.raises(ParseError, match=r"line 3: expected 2 cells, got 0$"):
            read_csv(path)

    def test_ragged_row_anywhere_beats_a_bad_cell(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x,y\nbad,2\n3,4,5\n")
        with pytest.raises(ParseError, match=r"line 3: expected 2 cells, got 3$"):
            read_csv(path)

    def test_missing_and_empty_files(self, tmp_path):
        with pytest.raises(ParseError, match="file not found"):
            read_csv(tmp_path / "none.csv")
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ParseError, match="empty file"):
            read_csv(empty)
        header_only = tmp_path / "header.csv"
        header_only.write_text("x,y\n")
        with pytest.raises(ParseError, match="no data rows"):
            read_csv(header_only)
