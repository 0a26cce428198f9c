import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tsadkit
from tsadkit import scoring
from tsadkit.cli import main
from tsadkit.ingest import load_entity

FIXTURE = Path(__file__).parent / "data" / "benchmark_fc1.csv"
# the config CI runs on the numpy-only install: a test set of two blocks
# and 701 rows, gauss_d_k, the tail_p sweep and diagnosis
BLOCKWISE_RUN = Path(__file__).parent / "data" / "blockwise_run.json"
# the UAE config CI runs at --workers 1 and 2 on the numpy-only install:
# two cells of three channel groups each, on the BLAS's lent threads
TINY_UAE_RUN = Path(__file__).parent / "data" / "tiny_uae_run.json"
# the labels CI scores on the numpy-only install: five events, two
# prediction columns, and the best-F random baselines for all three metrics
LABELS = Path(__file__).parent / "data" / "labels.csv"
# the spec CI generates on the numpy-only install, then diagnoses the test
# channels against the events: a spike on c1 over rows 20..25
TINY_SPEC = Path(__file__).parent / "data" / "tiny_spec.json"
TINY_EVENTS = Path(__file__).parent / "data" / "tiny_events.json"
# the file entity CI runs from the directory that holds tiny_spec.json's
# generated files (tiny/train.csv, tiny/test.csv and tiny/causes.json)
TINY_FILE_RUN = Path(__file__).parent / "data" / "tiny_file_run.json"

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
        assert [(e.start, e.end) for e in ent.test_events] == [(40, 49)]
        assert ent.test_events[0].causes == frozenset({1})
        assert ent.train.n == 120

    def test_seed_flag_changes_data(self, tmp_path):
        cfg = write_json(tmp_path / "spec.json", SPEC)
        main(["generate", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["generate", "--config", cfg, "--seed", "99", "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "train.csv").read_text()
        b = (tmp_path / "b" / "train.csv").read_text()
        assert a != b

    def test_failed_write_keeps_previous_csv(self, tmp_path, monkeypatch, capsys):
        cfg = write_json(tmp_path / "spec.json", SPEC)
        out = tmp_path / "d"
        assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
        before = {name: (out / name).read_bytes() for name in os.listdir(out)}
        real_writer = csv.writer

        class FailingWriter:
            """Writes the header and 50 rows, then fails like a full disk."""

            def __init__(self, fh):
                self.inner = real_writer(fh)
                self.writerow = self.inner.writerow

            def writerows(self, rows):
                for i, row in enumerate(rows):
                    if i == 50:
                        raise OSError("disk full")
                    self.inner.writerow(row)

        monkeypatch.setattr(csv, "writer", FailingWriter)
        # another seed: a write that got through would change the bytes
        assert main(["generate", "--config", cfg, "--seed", "99", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: disk full\n"
        # train.csv untouched, and no temporary file left beside it
        assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before

    def test_bad_spec_exits_one(self, tmp_path):
        cfg = write_json(tmp_path / "spec.json", {"n_train": 5})
        assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("field", ["period", "noise_sigma", "magnitude"])
    def test_overflowing_spec_exits_one_without_warnings(self, tmp_path, capsys, field):
        spec = json.loads(TINY_SPEC.read_text())
        if field == "period":
            spec["period"] = 1e-308
        elif field == "noise_sigma":
            spec["noise_sigma"] = 1e308
        else:
            spec["anomalies"][0]["magnitude"] = 1e308
        cfg = write_json(tmp_path / "spec.json", spec)
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert err == "error: synthetic entity 'tiny': values contains NaN or infinite entries\n"
        assert not (tmp_path / "d").exists()


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

    def test_committed_blockwise_config(self, tmp_path):
        assert main(["run", "--config", str(BLOCKWISE_RUN), "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "results.json").read_text())
        assert payload["config"]["synthetic"][0]["n_test"] > 2 * scoring._BLOCK
        assert payload["config"]["threshold"]["neg_log_eps"] is None  # the sweep
        (cell,) = payload["cells"]
        assert cell["threshold"]["neg_log_eps"] in (1, 2, 3, 4, 5)
        assert len(cell["diagnosis"]["rankings"]) == 8

    def test_committed_uae_config_same_bytes_at_any_workers(self, tmp_path):
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / f"workers{workers}"
            args = ["run", "--config", str(TINY_UAE_RUN), "--seed", "0,1",
                    "--workers", workers, "--out", str(out)]
            assert main(args) == 0
            outputs.append((out / "results.json").read_bytes())
        payload = json.loads(outputs[0])
        assert payload["config"]["model"]["kind"] == "uae"
        assert [cell["seed"] for cell in payload["cells"]] == [0, 1]
        assert outputs[0] == outputs[1]

    def test_generated_files_run_like_their_spec(self, tmp_path, monkeypatch):
        # the file entity and the spec build one Entity, so one result
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "--config", str(TINY_SPEC), "--out", "tiny"]) == 0
        assert main(["run", "--config", str(TINY_FILE_RUN), "--out", "files"]) == 0
        config = json.loads(TINY_FILE_RUN.read_text())
        del config["entities"]
        config["synthetic"] = [json.loads(TINY_SPEC.read_text())]
        cfg = write_json(tmp_path / "synthetic.json", config)
        assert main(["run", "--config", cfg, "--out", "synthetic"]) == 0
        files, synthetic = (
            json.loads((tmp_path / out / "results.json").read_text())
            for out in ("files", "synthetic")
        )
        assert [cell["diagnosis"]["rankings"][0][0] for cell in files["cells"]] == [1, 1]
        assert files["cells"] == synthetic["cells"]
        assert files["aggregates"] == synthetic["aggregates"]

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

    def test_kernel_sigma_past_the_square_overflow_runs_quietly(self, tmp_path, capsys):
        scoring = {"kind": "gauss_d_k", "window": 50, "kernel_sigma": 1e-300}
        assert main(["run", "--config", run_config(tmp_path, scoring=scoring)]) == 0
        assert capsys.readouterr().err == ""


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

    def test_committed_labels_fixture(self, tmp_path):
        done = run_cli("compare-metrics", LABELS, cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        # sparse: 3 of 22 positives hit, 2 false alarms, 3 of 5 events found
        assert json.loads(done.stdout) == [
            {"name": "sparse", "f1": 6 / 27, "fpa1": 34 / 41, "fc1": 0.6},
            {"name": "long_only", "f1": 0.625, "fpa1": 0.625, "fc1": 1 / 3},
            {"name": "random(best f1)", "f1": 0.6363636363636364,
             "fpa1": 0.6567164179104478, "fc1": 0.6461538461538462},
            {"name": "random(best fpa1)", "f1": 0.4666666666666667,
             "fpa1": 0.9302325581395349, "fc1": 0.835820895522388},
            {"name": "random(best fc1)", "f1": 0.4666666666666667,
             "fpa1": 0.9302325581395349, "fc1": 0.835820895522388},
        ]

    def test_non_binary_labels_exit_one(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text("truth,p\n2,1\n")
        assert main(["compare-metrics", str(labels)]) == 1
        assert capsys.readouterr().err == (
            f"error: {labels} line 2 column 'truth': label must be 0 or 1, got '2'\n"
        )

    @pytest.mark.parametrize("cell", ["1.0", "1e0", "+1", "01"])
    def test_labels_are_read_as_an_entity_label_column_is(self, tmp_path, capsys, cell):
        # a cell that parses as the float 1 is still not the label 1
        labels = tmp_path / "labels.csv"
        labels.write_text(f"truth,p\n1,0\n0, 1 \n1,{cell}\n")
        assert main(["compare-metrics", str(labels)]) == 1
        assert capsys.readouterr().err == (
            f"error: {labels} line 4 column 'p': label must be 0 or 1, got {cell!r}\n"
        )


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

    @pytest.mark.parametrize("text, message", [
        ("", "{path}: empty file, expected a header row"),
        ("method,g1,g2\n", "{path}: no data rows after the header"),
        ("method,g1,g2\nA,1,2\nB,3\n", "{path} line 3: expected 3 cells, got 2"),
        ("method,g1,g2\nA,1,x\nB,3,4\n", "{path} line 2 column 'g2': non-numeric value 'x'"),
        ("method,g1\nA,1\nB,2\n", "{path}: need a method column and at least 2 groups"),
        ("method,g1,g2\nA,1,2\nB,3,nan\n", "{path} line 3 column 'g2': non-finite value"),
    ], ids=["empty", "header-only", "ragged-row", "non-numeric", "one-group", "non-finite"])
    def test_bad_table_exit_one(self, tmp_path, capsys, text, message):
        path = tmp_path / "table.csv"
        path.write_text(text)
        assert main(["rank", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message.format(path=path)}\n"


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

    def test_committed_tiny_spec_and_events(self, tmp_path, capsys):
        assert main(["generate", "--config", str(TINY_SPEC), "--out", str(tmp_path)]) == 0
        # the channel columns of the generated test file, without its labels
        with (tmp_path / "test.csv").open(newline="") as fh:
            rows = [row[:3] for row in csv.reader(fh)]
        assert rows[0] == ["c0", "c1", "c2"]
        channels = tmp_path / "channels.csv"
        channels.write_text("\n".join(",".join(row) for row in rows) + "\n")
        capsys.readouterr()
        assert main(["diagnose", str(channels), str(TINY_EVENTS)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["events"][0]["ranking"][0] == "c1"
        assert report["rc_top_k"] == report["hitrate"] == 1.0

    def test_overflowing_event_mean_ranks_first(self, tmp_path, capsys):
        # the mean of two 1.7e308 rows overflows; tier-1 makes the overflow
        # warning an error, so this exits 0 only if the mean is taken quietly
        lines = self._scores(tmp_path).read_text().splitlines()
        lines[3] = lines[4] = "0.0,1.7e308,1.7e308"  # rows 2 and 3
        scores = tmp_path / "huge_scores.csv"
        scores.write_text("\n".join(lines) + "\n")
        events = write_json(tmp_path / "events.json",
                            [{"start": 2, "end": 4, "causes": ["c"]}])
        assert main(["diagnose", str(scores), events]) == 0
        report = json.loads(capsys.readouterr().out)
        # both overflowed means rank as +inf, the lower channel first
        assert report["events"][0]["ranking"] == ["b", "c", "a"]
        assert report["rc_top_k"] == 1.0

    def test_nan_outside_events_exit_one(self, tmp_path, capsys):
        lines = self._scores(tmp_path).read_text().splitlines()
        lines[9] = "nan,0.0,0.0"  # row 8; the event spans rows 2..4
        scores = tmp_path / "nan_scores.csv"
        scores.write_text("\n".join(lines) + "\n")
        events = write_json(tmp_path / "events.json",
                            [{"start": 2, "end": 4, "causes": ["c"]}])
        assert main(["diagnose", str(scores), events]) == 1
        assert capsys.readouterr().err == f"error: {scores} line 10 column 'a': non-finite value\n"

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


def test_cli_import_leaves_scipy_out():
    src = str(Path(tsadkit.__file__).resolve().parents[1])
    probe = (
        "import sys, tsadkit.cli; "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# runs tsadkit.cli.main in an interpreter where any scipy import fails
WITHOUT_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy is blocked: {name}")
        return None

sys.meta_path.insert(0, NoScipy())
import tsadkit.cli
sys.exit(tsadkit.cli.main(sys.argv[1:]))
"""


def test_run_and_rank_need_no_scipy(tmp_path):
    src = str(Path(tsadkit.__file__).resolve().parents[1])
    cfg = run_config(
        tmp_path,
        scoring={"kind": "gauss_d_k", "window": 20, "kernel_sigma": 1.0},
        threshold={"method": "tail_p"},
        diagnosis={"enabled": True},
    )
    for args in (["run", "--config", cfg], ["rank", str(FIXTURE)]):
        done = subprocess.run(
            [sys.executable, "-c", WITHOUT_SCIPY, *args],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, (args[0], done.stderr)
        assert done.stdout.strip(), args[0]
    assert (tmp_path / "out" / "results.json").is_file()


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
        # every cell reports every metric, so there is no metric list to set
        ({"metrics": ["f1", "fc1"]}, "config: unknown keys ['metrics']"),
        ({"model": {"kind": "pca", "latent_dim": 99, "learning_rate": 5}},
         "config.model: latent_dim is used only by uae and fc_ae, got kind 'pca'"),
        # json.dumps writes these as NaN, Infinity and a 401-digit integer literal
        ({"model": {"kind": "uae", "learning_rate": math.nan}},
         "config.model.learning_rate must be a finite number, got NaN"),
        ({"synthetic": [dict(SPEC, noise_sigma=math.nan)]},
         "config.synthetic[0].noise_sigma must be a finite number, got NaN"),
        ({"scoring": {"kind": "gauss_d_k", "window": 5, "kernel_sigma": math.inf}},
         "config.scoring.kernel_sigma must be a finite number, got Infinity"),
        ({"model": {"kind": "uae", "learning_rate": 10**400}},
         f"config.model.learning_rate must be a finite number, got {10**400}"),
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
        (dict(SPEC, noise_sigma=math.nan), "spec.noise_sigma must be a finite number, got NaN"),
        (dict(SPEC, period=-math.inf), "spec.period must be a finite number, got -Infinity"),
        (dict(SPEC, noise_sigma=10**400),
         f"spec.noise_sigma must be a finite number, got {10**400}"),
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

    def test_diagnose_event_past_score_rows(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("a,b\n" + "0.0,1.0\n" * 2)
        path = write_json(tmp_path / "events.json", [{"start": 0, "end": 5}])
        done = run_cli("diagnose", scores, path, cwd=tmp_path)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == "error: event (0,5) outside score range 0..1\n"

    @pytest.mark.parametrize("causes", [["a"], [0]], ids=["name", "index"])
    def test_diagnose_repeated_channel(self, tmp_path, causes):
        # a name-to-column map would resolve "a" to one of its two columns
        scores = tmp_path / "scores.csv"
        scores.write_text("a,a,b\n" + "0.0,1.0,2.0\n" * 3)
        path = write_json(tmp_path / "events.json", [{"start": 0, "end": 1, "causes": causes}])
        done = run_cli("diagnose", scores, path, cwd=tmp_path)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == f"error: {scores}: channel 'a' appears more than once\n"

    @pytest.mark.parametrize("causes", [["a"], None], ids=["causes", "no-causes"])
    @pytest.mark.parametrize("flag, value", [
        ("--top-k", "0"), ("--top-k", "-3"), ("--top-k", "x"), ("--percent", "0"),
    ])
    def test_diagnose_bad_count_flag(self, tmp_path, flag, value, causes):
        scores = tmp_path / "scores.csv"
        scores.write_text("a,b\n" + "0.0,1.0\n" * 3)
        path = write_json(tmp_path / "events.json", [{"start": 0, "end": 1, "causes": causes}])
        done = run_cli("diagnose", scores, path, flag, value, cwd=tmp_path)
        assert done.returncode == 1
        assert done.stdout == ""
        usage, error = done.stderr.rstrip("\n").rsplit("\n", 1)
        assert usage.startswith("usage: tsadkit diagnose ")
        assert error == (
            f"tsadkit diagnose: error: argument {flag}: "
            f"bad value {value!r}: need one integer >= 1"
        )

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

    # sizes numpy cannot index; one it can index would really be allocated
    @pytest.mark.parametrize("size", [10**30, 2**62], ids=["1e30", "2^62"])
    @pytest.mark.parametrize("field", ["n_train", "n_test", "m"])
    def test_oversized_spec(self, tmp_path, field, size):
        spec = dict(SPEC, **{field: size})
        rows = spec["n_train"] + spec["n_test"]
        message = f"{rows} rows x {spec['m']} channels of float64 exceed numpy's array size limit"
        cfg = write_json(tmp_path / "spec.json", spec)
        done = run_cli("generate", "--config", cfg, "--out", tmp_path / "d", cwd=tmp_path)
        assert (done.returncode, done.stderr) == (1, f"error: {message}\n")
        done = run_cli("run", "--config", run_config(tmp_path, synthetic=[spec]), cwd=tmp_path)
        assert (done.returncode, done.stderr) == (1, f"error: config.synthetic[0]: {message}\n")
        assert not (tmp_path / "d").exists() and not (tmp_path / "out").exists()

    def test_generate_truncated_spec_names_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"entity_id": ')
        done = run_cli("generate", "--config", path, "--out", tmp_path / "d", cwd=tmp_path)
        assert done.returncode == 1
        assert done.stderr == (
            f"error: {path}: invalid JSON: Expecting value: line 1 column 15 (char 14)\n"
        )
        assert not (tmp_path / "d").exists()

    def test_generate_integer_past_parser_limit(self, tmp_path):
        # json.loads refuses an integer of over 4,300 digits with a bare ValueError
        path = tmp_path / "spec.json"
        path.write_text('{"seed": ' + "1" * 5000 + "}")
        done = run_cli("generate", "--config", path, "--out", tmp_path / "d", cwd=tmp_path)
        assert done.returncode == 1
        assert done.stderr.startswith(f"error: {path}: invalid JSON: Exceeds the limit")
        assert done.stderr.count("\n") == 1
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e300"])
    def test_compare_metrics_non_finite_label(self, tmp_path, cell):
        labels = tmp_path / "labels.csv"
        labels.write_text(f"truth,p\n1,{cell}\n0,0\n")
        done = run_cli("compare-metrics", labels, cwd=tmp_path)
        assert done.returncode == 1
        assert "Warning" not in done.stderr
        assert done.stderr == (
            f"error: {labels} line 2 column 'p': label must be 0 or 1, got {cell!r}\n"
        )

    def test_compare_metrics_duplicate_prediction_column(self, tmp_path):
        # a dict keyed by header name would keep only the last "p"
        labels = tmp_path / "labels.csv"
        labels.write_text("truth,p,q,p\n1,1,0,0\n0,0,1,1\n")
        done = run_cli("compare-metrics", labels, cwd=tmp_path)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == f"error: {labels}: prediction column 'p' appears more than once\n"


class TestSingleSeedFlag:
    """generate and compare-metrics take one seed: a bad one exits 1 with
    the usage and one argparse error line, never a traceback."""

    @pytest.mark.parametrize("seed", ["", "1,2", "-3", "x"])
    @pytest.mark.parametrize("command", ["generate", "compare-metrics"])
    def test_bad_seed_exits_one(self, tmp_path, command, seed):
        spec = write_json(tmp_path / "spec.json", SPEC)
        (tmp_path / "labels.csv").write_text("truth,p\n1,1\n0,0\n")
        args = (
            ["generate", "--config", spec, "--out", "d"]
            if command == "generate" else ["compare-metrics", "labels.csv"]
        )
        done = run_cli(*args, "--seed", seed, cwd=tmp_path)
        assert done.returncode == 1
        assert done.stdout == ""
        usage, error = done.stderr.rstrip("\n").rsplit("\n", 1)
        assert usage.startswith(f"usage: tsadkit {command} ")
        assert error == (
            f"tsadkit {command}: error: argument --seed: "
            f"bad seed {seed!r}: need one integer >= 0"
        )
        assert not (tmp_path / "d").exists()

    def test_one_seed_is_used(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", SPEC)
        for out in ("a", "b"):
            assert run_cli(
                "generate", "--config", spec, "--seed", "99", "--out", out, cwd=tmp_path
            ).returncode == 0
        direct = write_json(tmp_path / "spec99.json", {**SPEC, "seed": 99})
        assert run_cli("generate", "--config", direct, "--out", "c", cwd=tmp_path).returncode == 0
        csv = [(tmp_path / d / "test.csv").read_text() for d in "abc"]
        assert csv[0] == csv[1] == csv[2]
        (tmp_path / "labels.csv").write_text("truth,p\n1,1\n0,0\n1,0\n0,1\n")
        shown = {
            seed: run_cli("compare-metrics", "labels.csv", *args, cwd=tmp_path).stdout
            for seed, args in (("default", []), ("0", ["--seed", "0"]), ("5", ["--seed", "5"]))
        }
        assert shown["default"] == shown["0"] != ""
        assert shown["5"] != ""

    def test_negative_spec_seed_exits_one(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", {**SPEC, "seed": -1})
        done = run_cli("generate", "--config", spec, "--out", "d", cwd=tmp_path)
        assert done.returncode == 1
        assert done.stderr == "error: seed must be >= 0, got -1\n"


class TestRunSeeds:
    """A run's seeds are distinct integers >= 0: a config or ``--seed`` that
    breaks this exits 1 with one error line and writes nothing."""

    def test_negative_config_seed_exits_one(self, tmp_path):
        cfg = run_config(tmp_path, seeds=[0, -1])
        done = run_cli("run", "--config", cfg, cwd=tmp_path)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == "error: seeds must be >= 0, got [0, -1]\n"
        assert not (tmp_path / "out").exists()

    # an empty item ("1,,2", "1,", ",3") is a typo, not a seed to skip
    @pytest.mark.parametrize("seed", ["-1", "2,-1", "1,,2", "1,", ",3", ""])
    def test_negative_seed_flag_exits_one(self, tmp_path, seed):
        cfg = run_config(tmp_path)
        done = run_cli("run", "--config", cfg, f"--seed={seed}", cwd=tmp_path)
        assert done.returncode == 1
        assert done.stdout == ""
        usage, error = done.stderr.rstrip("\n").rsplit("\n", 1)
        assert usage.startswith("usage: tsadkit run ")
        assert error == (
            f"tsadkit run: error: argument --seed: bad seed list {seed!r}: need integers >= 0"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args", [["--seed", "1,1"], []])
    def test_duplicate_seeds_exit_one(self, tmp_path, args):
        cfg = run_config(tmp_path, seeds=[1, 1] if not args else [0])
        done = run_cli("run", "--config", cfg, *args, cwd=tmp_path)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == "error: seeds must be unique, got [1, 1]\n"
        assert not (tmp_path / "out").exists()


class TestAutoencoderWindowExitsOne:
    """An autoencoder whose input is not wider than its latent size exits
    1 at config load with one error line naming the keys, not 2 with
    every cell failed at fit."""

    @pytest.mark.parametrize("model, message", [
        ({"kind": "uae"},
         "uae window.length 5 is too short for model.latent_dim 5: "
         "input_dim must exceed latent_dim, got 5 <= 5"),
        ({"kind": "fc_ae", "latent_dim": 40},
         "fc_ae window.length 5 x synthetic 'gen0' m 2 is too short for model.latent_dim 40: "
         "input_dim must exceed latent_dim, got 10 <= 40"),
    ])
    def test_exits_one(self, tmp_path, model, message):
        cfg = run_config(tmp_path, window={"length": 5, "step": 1}, model=model)
        done = run_cli("run", "--config", cfg, cwd=tmp_path)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


NOT_UTF8 = "'utf-8' codec can't decode byte 0xff"
# what each unreadable input file of test_one_error_line gives after "<path>: "
UNREADABLE = {
    "bad.json": NOT_UTF8,
    "bad.csv": NOT_UTF8,
    "missing.json": "file not found",
    "broken.json": "invalid JSON: Expecting property name enclosed in double quotes: "
                   "line 1 column 9 (char 8)",
}


class TestNonUtf8InputsExitOne:
    """A file that is not UTF-8, or a JSON input that is missing or is not
    JSON, gives one ``error: <path>: ...`` line."""

    @pytest.mark.parametrize("args", [
        ["run", "--config", "bad.json"],
        ["generate", "--config", "bad.json", "--out", "d"],
        ["diagnose", "bad.csv", "events.json"],
        ["diagnose", "scores.csv", "bad.json"],
        ["compare-metrics", "bad.csv"],
        ["rank", "bad.csv"],
        ["run", "--config", "missing.json"],
        ["run", "--config", "broken.json"],
        ["generate", "--config", "missing.json", "--out", "d"],
        ["generate", "--config", "broken.json", "--out", "d"],
        ["diagnose", "scores.csv", "missing.json"],
        ["diagnose", "scores.csv", "broken.json"],
    ], ids=[
        "run", "generate", "diagnose-scores", "diagnose-events", "compare-metrics", "rank",
        "run-missing", "run-invalid-json", "generate-missing", "generate-invalid-json",
        "diagnose-events-missing", "diagnose-events-invalid-json",
    ])
    def test_one_error_line(self, tmp_path, args):
        (tmp_path / "scores.csv").write_text("a,b\n" + "0.0,1.0\n" * 6)
        write_json(tmp_path / "events.json", [{"start": 1, "end": 2, "causes": ["a"]}])
        (tmp_path / "bad.json").write_bytes(b'{"x": \xff1}\n')
        (tmp_path / "bad.csv").write_bytes(b"a,b\n0.0,\xff1\n")
        (tmp_path / "broken.json").write_text('{"x": 1,')
        bad = next(arg for arg in args if arg in UNREADABLE)
        done = run_cli(*args, cwd=tmp_path)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.startswith(f"error: {bad}: {UNREADABLE[bad]}")
        assert done.stderr.count("\n") == 1
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("broken, message", [
        ("train", NOT_UTF8),
        ("test", NOT_UTF8),
        ("cause_map", NOT_UTF8),
        ("cause_map", "file not found"),
        ("cause_map", "invalid JSON: Expecting ',' delimiter: line 1 column 13 (char 12)"),
    ], ids=["train", "test", "cause_map", "cause_map-missing", "cause_map-invalid-json"])
    def test_run_fails_only_the_entity_cells(self, tmp_path, broken, message):
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
        if message == NOT_UTF8:
            files[broken].write_bytes(files[broken].read_bytes().replace(b"c1", b"c\xff", 1))
        elif message == "file not found":
            files[broken].unlink()
        else:  # the cause map cut short
            files[broken].write_text('{"0": ["c1"]')
        entities = [{"id": "file", **{k: str(v) for k, v in files.items()}}]
        cfg = run_config(tmp_path, entities=entities, seeds=[0, 1])
        done = run_cli("run", "--config", cfg, cwd=tmp_path)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        payload = json.loads((tmp_path / "out" / "results.json").read_text())
        assert [(c["entity"], c["seed"]) for c in payload["cells"]] == [("gen0", 0), ("gen0", 1)]
        path = files[broken]
        for seed, failure in zip((0, 1), payload["failures"]):
            assert failure["entity"] == "file" and failure["seed"] == seed
            assert failure["error"].startswith(f"file: ParseError: {path}: {message}")
