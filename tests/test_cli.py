import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tsadkit
from tsadkit.cli import main
from tsadkit.ingest import load_entity

FIXTURE = Path(__file__).parent / "data" / "benchmark_fc1.csv"

SPEC = {
    "entity_id": "gen0",
    "n_train": 120, "n_test": 150, "m": 2,
    "period": 25, "noise_sigma": 0.05, "seed": 11,
    "anomalies": [
        {"start": 40, "length": 10, "kind": "spike", "channels": [1], "magnitude": 3.0},
    ],
}


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def run_config(tmp_path, out_name="out", **overrides):
    d = {
        "synthetic": [SPEC],
        "window": {"length": 1, "step": 1},
        "model": {"kind": "raw"},
        "scoring": {"kind": "error"},
        "threshold": {"method": "top_k"},
        "metrics": ["f1", "fc1"],
        "seeds": [0],
        "output_dir": str(tmp_path / out_name),
    }
    d.update(overrides)
    return write_json(tmp_path / "config.json", d)


class TestGenerate:
    def test_writes_csv_and_causes(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "spec.json", SPEC)
        code = main(["generate", "--config", cfg, "--out", str(tmp_path / "d")])
        assert code == 0
        out = capsys.readouterr().out
        assert "train.csv" in out and "test.csv" in out and "causes.json" in out
        ent = load_entity(
            tmp_path / "d" / "train.csv",
            tmp_path / "d" / "test.csv",
            cause_map=tmp_path / "d" / "causes.json",
        )
        assert ent.test_events.spans() == ((40, 49),)
        assert ent.test_events[0].causes == frozenset({1})
        assert ent.train.n == 120

    def test_seed_flag_changes_data(self, tmp_path):
        cfg = write_json(tmp_path / "spec.json", SPEC)
        main(["generate", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["generate", "--config", cfg, "--seed", "99", "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "train.csv").read_text()
        b = (tmp_path / "b" / "train.csv").read_text()
        assert a != b

    def test_bad_spec_exits_one(self, tmp_path):
        cfg = write_json(tmp_path / "spec.json", {"n_train": 5})
        assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 1


class TestRun:
    def test_success_exit_zero(self, tmp_path, capsys):
        cfg = run_config(tmp_path)
        assert main(["run", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "results" in out
        payload = json.loads((tmp_path / "out" / "results.json").read_text())
        assert payload["cells"][0]["entity"] == "gen0"

    def test_identical_runs_byte_identical(self, tmp_path):
        cfg = run_config(tmp_path)
        main(["run", "--config", cfg, "--out", str(tmp_path / "r1")])
        main(["run", "--config", cfg, "--out", str(tmp_path / "r2")])
        assert (tmp_path / "r1" / "results.json").read_bytes() == (
            tmp_path / "r2" / "results.json"
        ).read_bytes()

    def test_seed_override(self, tmp_path):
        cfg = run_config(tmp_path)
        main(["run", "--config", cfg, "--seed", "3,4", "--out", str(tmp_path / "r")])
        payload = json.loads((tmp_path / "r" / "results.json").read_text())
        assert [c["seed"] for c in payload["cells"]] == [3, 4]
        assert payload["config"]["seeds"] == [3, 4]

    def test_partial_failure_exit_two(self, tmp_path, capsys):
        bad_train = tmp_path / "bad_train.csv"
        bad_train.write_text("a\nnope\n")
        bad_test = tmp_path / "bad_test.csv"
        bad_test.write_text("a,label\n0.0,0\n")
        cfg = run_config(tmp_path, entities=[
            {"id": "bad", "train": str(bad_train), "test": str(bad_test)},
        ])
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "FAILED bad" in err

    def test_missing_config_exit_one(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_env_overrides(self, tmp_path, monkeypatch):
        cfg = run_config(tmp_path)
        monkeypatch.setenv("TSADKIT_OUTPUT_DIR", str(tmp_path / "env_out"))
        monkeypatch.setenv("TSADKIT_WORKERS", "2")
        assert main(["run", "--config", cfg]) == 0
        assert (tmp_path / "env_out" / "results.json").exists()

    def test_bad_workers_env_exit_one(self, tmp_path, monkeypatch, capsys):
        cfg = run_config(tmp_path)
        monkeypatch.setenv("TSADKIT_WORKERS", "abc")
        assert main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "error: TSADKIT_WORKERS must be an integer, got 'abc'" in err

    def test_tail_p_on_error_scoring_exit_one(self, tmp_path, capsys):
        cfg = run_config(tmp_path, threshold={"method": "tail_p"})
        assert main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "error: threshold method 'tail_p' needs a Gauss-family scoring kind" in err
        assert not (tmp_path / "out").exists()

    def test_csv_format_writes_summary(self, tmp_path):
        cfg = run_config(tmp_path)
        main(["run", "--config", cfg, "--format", "csv"])
        assert (tmp_path / "out" / "summary.csv").exists()


class TestCompareMetricsCommand:
    def test_table_output(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text(
            "truth,hit,miss\n" + "\n".join(
                f"{t},{h},{m}" for t, h, m in [
                    (0, 0, 0), (1, 1, 0), (1, 0, 0), (0, 0, 1), (0, 0, 0),
                ]
            ) + "\n"
        )
        assert main(["compare-metrics", str(labels)]) == 0
        rows = json.loads(capsys.readouterr().out)
        by_name = {r["name"]: r for r in rows}
        assert by_name["hit"]["fc1"] == 1.0
        assert by_name["miss"]["fc1"] == 0.0
        assert "random(best fc1)" in by_name

    def test_csv_format(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text("truth,p\n1,1\n0,0\n")
        assert main(["compare-metrics", str(labels), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "name,f1,fpa1,fc1"

    def test_non_binary_labels_exit_one(self, tmp_path):
        labels = tmp_path / "labels.csv"
        labels.write_text("truth,p\n2,1\n")
        assert main(["compare-metrics", str(labels)]) == 1


class TestRankCommand:
    def test_fixture_summary(self, capsys):
        assert main(["rank", str(FIXTURE)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["best_method"] == "UAE"
        assert len(summary["average_ranks"]) == 13

    def test_csv_output(self, capsys):
        assert main(["rank", str(FIXTURE), "--format", "csv"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == "method,average_rank,z,p,reject"
        assert "friedman statistic" in captured.err

    def test_missing_file_exit_one(self, tmp_path):
        assert main(["rank", str(tmp_path / "none.csv")]) == 1


class TestDiagnoseCommand:
    def _scores(self, tmp_path):
        rows = ["a,b,c"]
        arr = np.zeros((10, 3))
        arr[2:5, 2] = 9.0
        for r in arr:
            rows.append(",".join(str(v) for v in r))
        path = tmp_path / "scores.csv"
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_ranking_and_scores(self, tmp_path, capsys):
        scores = self._scores(tmp_path)
        events = write_json(tmp_path / "events.json",
                            [{"start": 2, "end": 4, "causes": ["c"]}])
        assert main(["diagnose", str(scores), events]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["events"][0]["ranking"][0] == "c"
        assert report["rc_top_k"] == 1.0

    def test_unannotated_events_skip_scores(self, tmp_path, capsys):
        scores = self._scores(tmp_path)
        events = write_json(tmp_path / "events.json", [{"start": 0, "end": 3}])
        assert main(["diagnose", str(scores), events]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "rc_top_k" not in report

    def test_nan_outside_events_exit_one(self, tmp_path, capsys):
        lines = self._scores(tmp_path).read_text().splitlines()
        lines[9] = "nan,0.0,0.0"  # row 8; the event spans rows 2..4
        scores = tmp_path / "nan_scores.csv"
        scores.write_text("\n".join(lines) + "\n")
        events = write_json(tmp_path / "events.json",
                            [{"start": 2, "end": 4, "causes": ["c"]}])
        assert main(["diagnose", str(scores), events]) == 1
        assert "NaN" in capsys.readouterr().err

    def test_ragged_scores_report_line_exit_one(self, tmp_path, capsys):
        lines = self._scores(tmp_path).read_text().splitlines()
        lines[2] = "0.0,0.0"
        scores = tmp_path / "ragged.csv"
        scores.write_text("\n".join(lines) + "\n")
        events = write_json(tmp_path / "events.json", [{"start": 0, "end": 3}])
        assert main(["diagnose", str(scores), events]) == 1
        assert f"{scores} line 3: expected 3 cells, got 2" in capsys.readouterr().err

    def test_event_past_last_row_exit_one(self, tmp_path, capsys):
        scores = self._scores(tmp_path)
        events = write_json(tmp_path / "events.json", [{"start": 8, "end": 10}])
        assert main(["diagnose", str(scores), events]) == 1
        assert "event (8,10) outside score range 0..9" in capsys.readouterr().err

    def test_unknown_cause_channel(self, tmp_path):
        scores = self._scores(tmp_path)
        events = write_json(tmp_path / "events.json",
                            [{"start": 0, "end": 3, "causes": ["zz"]}])
        assert main(["diagnose", str(scores), events]) == 1


class TestParserBehavior:
    def test_unknown_subcommand_exit_one(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "error" in capsys.readouterr().err

    def test_help_exit_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "generate" in capsys.readouterr().out

    def test_no_args_exit_one(self):
        assert main([]) == 1


def test_cli_import_leaves_scipy_stats_out():
    src = str(Path(tsadkit.__file__).resolve().parents[1])
    probe = "import sys, tsadkit.cli; print('scipy.stats' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def run_cli(*args, cwd):
    """``python -m tsadkit.cli`` in a fresh interpreter, so stderr is all it printed."""
    src = str(Path(tsadkit.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "tsadkit.cli", *map(str, args)],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )


class TestMalformedInputsExitOne:
    """Bad configs and label files give one ``error:`` line, never a traceback."""

    @pytest.mark.parametrize("overrides, message", [
        ({"window": 5}, "config.window must be an object, got 5"),
        ({"model": "uae"}, 'config.model must be an object, got "uae"'),
        ({"scoring": {"kind": "error", "windw": 3}}, "config.scoring: unknown keys ['windw']"),
        ({"diagnosis": {"enabled": "false"}},
         'config.diagnosis.enabled must be a boolean, got "false"'),
    ])
    def test_run_bad_section(self, tmp_path, overrides, message):
        cfg = run_config(tmp_path, **overrides)
        done = run_cli("run", "--config", cfg, cwd=tmp_path)
        assert done.returncode == 1
        assert done.stderr == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("root, message", [
        (5, "spec must be an object, got 5"),
        ([{}], "spec must be an object, got an array"),
    ])
    def test_generate_bad_root(self, tmp_path, root, message):
        cfg = write_json(tmp_path / "spec.json", root)
        done = run_cli("generate", "--config", cfg, "--out", tmp_path / "d", cwd=tmp_path)
        assert done.returncode == 1
        assert done.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("events, message", [
        ([{"start": 2.7, "end": 4}], "events[0].start must be an integer, got 2.7"),
        ([{"start": 2, "end": "4"}], 'events[0].end must be an integer, got "4"'),
        ([{"start": 0, "end": 1}, {"start": 2, "end": 4, "causes": [True]}],
         "events[1].causes[0] must be a string or an integer, got true"),
        ([{"start": 2, "end": 4, "causes": "ab"}],
         'events[0].causes must be an array or null, got "ab"'),
        ([{"start": 2, "end": 4, "causes": [99]}],
         "events[0].causes[0]: channel index must be in 0..1, got 99"),
        ([{"start": 2, "end": 4, "causes": ["a", "zz"]}],
         "events[0].causes[1]: unknown channel 'zz'"),
        ([{"start": 4, "end": 2}], "events[0]: event needs 0 <= start <= end, got (4, 2)"),
        ([{"start": 2, "end": 4, "cause": ["a"]}], "events[0]: unknown keys ['cause']"),
        ({"start": 2, "end": 4}, "events file must be a JSON list"),
    ])
    def test_diagnose_bad_events(self, tmp_path, events, message):
        scores = tmp_path / "scores.csv"
        scores.write_text("a,b\n" + "0.0,1.0\n" * 6)
        path = write_json(tmp_path / "events.json", events)
        done = run_cli("diagnose", scores, path, cwd=tmp_path)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == f"error: {path}: {message}\n"

    def test_diagnose_truncated_events_names_file(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("a,b\n" + "0.0,1.0\n" * 6)
        path = tmp_path / "events.json"
        path.write_text('[{"start": 1,')
        done = run_cli("diagnose", scores, path, cwd=tmp_path)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == (
            f"error: {path}: invalid JSON: Expecting property name enclosed in "
            "double quotes: line 1 column 14 (char 13)\n"
        )

    def test_generate_truncated_spec_names_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"entity_id": ')
        done = run_cli("generate", "--config", path, "--out", tmp_path / "d", cwd=tmp_path)
        assert done.returncode == 1
        assert done.stderr == (
            f"error: {path}: invalid JSON: Expecting value: line 1 column 15 (char 14)\n"
        )
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e300"])
    def test_compare_metrics_non_finite_label(self, tmp_path, cell):
        labels = tmp_path / "labels.csv"
        labels.write_text(f"truth,p\n1,{cell}\n0,0\n")
        done = run_cli("compare-metrics", labels, cwd=tmp_path)
        assert done.returncode == 1
        assert "Warning" not in done.stderr
        shown = {"1e300": "1e+300"}.get(cell, cell)
        assert done.stderr == (
            f"error: {labels}: labels must be integers 0 or 1, found {shown}\n"
        )


NOT_UTF8 = "'utf-8' codec can't decode byte 0xff"


class TestNonUtf8InputsExitOne:
    """A file that is not UTF-8 gives one ``error: <path>: ...`` line."""

    @pytest.mark.parametrize("args", [
        ["run", "--config", "bad.json"],
        ["generate", "--config", "bad.json", "--out", "d"],
        ["diagnose", "bad.csv", "events.json"],
        ["diagnose", "scores.csv", "bad.json"],
        ["compare-metrics", "bad.csv"],
        ["rank", "bad.csv"],
    ], ids=["run", "generate", "diagnose-scores", "diagnose-events", "compare-metrics", "rank"])
    def test_one_error_line(self, tmp_path, args):
        (tmp_path / "scores.csv").write_text("a,b\n" + "0.0,1.0\n" * 6)
        write_json(tmp_path / "events.json", [{"start": 1, "end": 2, "causes": ["a"]}])
        (tmp_path / "bad.json").write_bytes(b'{"x": \xff1}\n')
        (tmp_path / "bad.csv").write_bytes(b"a,b\n0.0,\xff1\n")
        bad = next(arg for arg in args if arg.startswith("bad."))
        done = run_cli(*args, cwd=tmp_path)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.startswith(f"error: {bad}: {NOT_UTF8}")
        assert done.stderr.count("\n") == 1
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("broken", ["train", "test", "cause_map"])
    def test_run_fails_only_the_entity_cells(self, tmp_path, broken):
        ent = tsadkit.generate_synthetic(tsadkit.SyntheticSpec.from_dict(SPEC))
        files = {
            "train": tmp_path / "train.csv",
            "test": tmp_path / "test.csv",
            "cause_map": tmp_path / "causes.json",
        }
        np.savetxt(files["train"], ent.train.values, delimiter=",", header="c0,c1", comments="")
        test = np.column_stack([ent.test.values, ent.test_labels])
        np.savetxt(files["test"], test, delimiter=",", header="c0,c1,label", comments="",
                   fmt=["%.18e", "%.18e", "%d"])
        files["cause_map"].write_text('{"0": ["c1"]}')
        files[broken].write_bytes(files[broken].read_bytes().replace(b"c1", b"c\xff", 1))
        entities = [{"id": "file", **{k: str(v) for k, v in files.items()}}]
        cfg = run_config(tmp_path, entities=entities, seeds=[0, 1])
        done = run_cli("run", "--config", cfg, cwd=tmp_path)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        payload = json.loads((tmp_path / "out" / "results.json").read_text())
        assert [(c["entity"], c["seed"]) for c in payload["cells"]] == [("gen0", 0), ("gen0", 1)]
        path = files[broken]
        detail = "cannot read cause map: " if broken == "cause_map" else ""
        for seed, failure in zip((0, 1), payload["failures"]):
            assert failure["entity"] == "file" and failure["seed"] == seed
            assert failure["error"].startswith(f"file: ParseError: {path}: {detail}{NOT_UTF8}")
