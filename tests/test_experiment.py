import csv
import dataclasses
import json
import math
import os
import pickle
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from tsadkit import experiment, scoring
from tsadkit.core import (
    ConfigError,
    Entity,
    Event,
    SeriesMatrix,
    ValidationError,
    encode_config,
    read_json,
)
from tsadkit.diagnosis import rank_channels
from tsadkit.experiment import (
    ExperimentConfig,
    ScoringConfig,
    ThresholdConfig,
    compare_metrics,
    config_from_dict,
    config_from_json,
    diagnose_events,
    emit_results,
    run_experiment,
)
from tsadkit.ingest import WindowSpec, apply_normalizer, fit_normalizer
from tsadkit.metrics import MetricReport, compute_report
from tsadkit.models import ModelConfig, train

SPIKE_SPEC = {
    "entity_id": "syn0",
    "n_train": 300, "n_test": 300, "m": 2,
    "period": 30, "noise_sigma": 0.05, "seed": 5,
    "anomalies": [
        {"start": 80, "length": 15, "kind": "spike", "channels": [0], "magnitude": 3.0},
        {"start": 200, "length": 15, "kind": "spike", "channels": [1], "magnitude": 3.0},
    ],
}


def base_config(**overrides):
    d = {
        "synthetic": [SPIKE_SPEC],
        "window": {"length": 1, "step": 1},
        "model": {"kind": "raw"},
        "scoring": {"kind": "error"},
        "threshold": {"method": "top_k"},
        "seeds": [0],
        "output_dir": "unused",
    }
    d.update(overrides)
    return config_from_dict(d)


def file_entities(tmp_path, count):
    """Config entries for ``count`` CSV-backed entities written to tmp_path."""
    entries = []
    for i in range(count):
        ent = experiment.generate_synthetic(experiment.SyntheticSpec.from_dict(
            dict(SPIKE_SPEC, entity_id=f"file{i}", seed=10 + i)
        ))
        train, test = tmp_path / f"file{i}_train.csv", tmp_path / f"file{i}_test.csv"
        np.savetxt(train, ent.train.values, delimiter=",", header="c0,c1", comments="")
        np.savetxt(test, np.column_stack([ent.test.values, ent.test_labels]),
                   delimiter=",", fmt=["%.17g", "%.17g", "%d"],
                   header="c0,c1,label", comments="")
        entries.append({"id": f"file{i}", "train": str(train), "test": str(test)})
    return entries


class TestConfigParsing:
    def test_defaults_fill_in(self):
        config = base_config()
        assert config.model.kind == "raw"
        assert config.threshold.k is None
        assert config.seeds == (0,)

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown"):
            config_from_dict({"synthetic": [SPIKE_SPEC], "modle": {}})

    def test_rejects_empty_source(self):
        with pytest.raises(ConfigError):
            config_from_dict({"model": {"kind": "raw"}})

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ConfigError, match="unique"):
            config_from_dict({"synthetic": [SPIKE_SPEC, SPIKE_SPEC]})

    def test_scoring_needs_window(self):
        with pytest.raises(ConfigError):
            ScoringConfig("gauss_d")
        with pytest.raises(ConfigError):
            ScoringConfig("gauss_d_k", window=10)  # still missing sigma

    def test_threshold_validation(self):
        with pytest.raises(ConfigError):
            ThresholdConfig("best_f", metric="f2")
        with pytest.raises(ConfigError):
            ThresholdConfig("tail_p", neg_log_eps=0)

    def test_tail_p_rejected_on_error_scoring(self):
        with pytest.raises(ConfigError, match="'tail_p' needs a Gauss-family scoring"):
            base_config(scoring={"kind": "error"}, threshold={"method": "tail_p"})
        with pytest.raises(ConfigError, match="'tail_p' needs a Gauss-family scoring"):
            base_config(scoring={"kind": "error"},
                        threshold={"method": "tail_p", "neg_log_eps": 2})

    @pytest.mark.parametrize("seeds, message", [
        ([-1], "seeds must be >= 0, got [-1]"),
        ([3, -2], "seeds must be >= 0, got [3, -2]"),
        ([1, 1], "seeds must be unique, got [1, 1]"),
        ([0, 4, 0], "seeds must be unique, got [0, 4, 0]"),
    ])
    def test_bad_seeds_rejected(self, seeds, message):
        with pytest.raises(ConfigError) as err:
            base_config(seeds=seeds)
        assert str(err.value) == message

    @pytest.mark.parametrize("length, model, synthetic, message", [
        (5, {"kind": "uae"}, [SPIKE_SPEC],
         "uae window.length 5 is too short for model.latent_dim 5: "
         "input_dim must exceed latent_dim, got 5 <= 5"),
        (3, {"kind": "uae", "latent_dim": 4}, [SPIKE_SPEC],
         "uae window.length 3 is too short for model.latent_dim 4: "
         "input_dim must exceed latent_dim, got 3 <= 4"),
        (5, {"kind": "fc_ae", "latent_dim": 40}, [SPIKE_SPEC],
         "fc_ae window.length 5 x synthetic 'syn0' m 2 is too short for model.latent_dim 40: "
         "input_dim must exceed latent_dim, got 10 <= 40"),
        # the default latent of one channel is 1; the second spec is named
        (1, {"kind": "fc_ae"}, [SPIKE_SPEC, dict(SPIKE_SPEC, entity_id="one", m=1, anomalies=[])],
         "fc_ae window.length 1 x synthetic 'one' m 1 is too short for model.latent_dim 1: "
         "input_dim must exceed latent_dim, got 1 <= 1"),
    ])
    def test_autoencoder_input_must_exceed_latent(self, length, model, synthetic, message):
        with pytest.raises(ConfigError) as err:
            base_config(window={"length": length}, model=model, synthetic=synthetic)
        assert str(err.value) == message

    @pytest.mark.parametrize("length, model", [
        (6, {"kind": "uae"}),
        (4, {"kind": "uae", "latent_dim": 3}),
        (1, {"kind": "fc_ae"}),  # 2 channels, latent 1
        (5, {"kind": "fc_ae", "latent_dim": 9}),
        (1, {"kind": "raw"}),
        (1, {"kind": "pca"}),
    ])
    def test_autoencoder_input_wider_than_latent_loads(self, length, model):
        config = base_config(window={"length": length}, model=model)
        assert config.window.length == length

    def test_fc_ae_too_narrow_for_a_file_entity_fails_its_cells(self, tmp_path):
        # a file entity's m is unknown at load: its cells fail at fit
        config = base_config(
            synthetic=[], entities=file_entities(tmp_path, 1),
            window={"length": 5}, model={"kind": "fc_ae", "latent_dim": 40},
        )
        record = run_experiment(config)
        assert record.cells == ()
        assert [f["error"] for f in record.failures] == [
            "ConfigError: input_dim must exceed latent_dim, got 10 <= 40"
        ]

    def test_digest_stable_and_canonical(self):
        a = base_config()
        b = base_config()
        assert a.digest() == b.digest()
        c = base_config(seeds=[1])
        assert a.digest() != c.digest()


class TestRunExperiment:
    def test_spike_smoke_top_k(self):
        record = run_experiment(base_config())
        assert record.failures == ()
        cell = record.cells[0]
        assert cell["metrics"]["fc1"] > 0
        # top-k with the true point count: exactly k positives
        assert cell["threshold"]["k"] == 30

    def test_repeated_seed_identical_reports(self):
        # a config may name a seed once, so the repeat is a second run
        a, b = (run_experiment(base_config(seeds=[1])).cells[0] for _ in range(2))
        assert a["metrics"] == b["metrics"]

    def test_aggregate_is_entity_mean(self):
        spec2 = dict(SPIKE_SPEC, entity_id="syn1", seed=6)
        record = run_experiment(base_config(synthetic=[SPIKE_SPEC, spec2]))
        per = record.aggregates["per_entity"]
        overall = record.aggregates["overall"]
        assert overall["fc1"] == pytest.approx(
            (per["syn0"]["fc1"] + per["syn1"]["fc1"]) / 2
        )

    def test_payload_deterministic_across_workers(self):
        config = base_config(seeds=[0, 1])
        r1 = run_experiment(config, workers=1)
        r2 = run_experiment(config, workers=4)
        assert json.dumps(r1.payload(), sort_keys=True) == json.dumps(
            r2.payload(), sort_keys=True
        )

    def test_entity_isolation_on_bad_file(self, tmp_path):
        bad_train = tmp_path / "train.csv"
        bad_train.write_text("a\n0.0\nnot_a_number\n")
        bad_test = tmp_path / "test.csv"
        bad_test.write_text("a,label\n0.0,0\n")
        config = base_config(entities=[{
            "id": "broken", "train": str(bad_train), "test": str(bad_test),
        }])
        record = run_experiment(config)
        assert [c["entity"] for c in record.cells] == ["syn0"]
        assert len(record.failures) == 1
        assert record.failures[0]["entity"] == "broken"
        assert "not_a_number" in record.failures[0]["error"]

    def test_train_channel_beyond_float64_range_names_it(self, tmp_path):
        # max - min of c1 overflows: the cell fails naming the channel, and
        # tier-1 makes any overflow warning on the way an error
        train = tmp_path / "wide_train.csv"
        train.write_text("c0,c1\n0.0,-1.7e308\n1.0,1.7e308\n0.5,0.0\n")
        test = tmp_path / "wide_test.csv"
        test.write_text("c0,c1,label\n0.0,0.0,0\n1.0,0.0,1\n")
        config = base_config(synthetic=[], entities=[{
            "id": "wide", "train": str(train), "test": str(test),
        }])
        record = run_experiment(config)
        assert record.cells == ()
        assert list(record.failures) == [{
            "entity": "wide", "seed": 0,
            "error": "ValidationError: train channel 'c1' spans -1.7e+308 to "
                     "1.7e+308, a range beyond float64",
        }]

    @pytest.mark.parametrize("train_c1, test_c1", [
        ((-1e308, 0.0), 1e308),  # the distance from the train minimum overflows
        ((0.0, 1e-300), 1e10),   # the ratio to the train range overflows
    ], ids=["distance", "ratio"])
    def test_test_value_beyond_float64_scale_clips_quietly(self, tmp_path, train_c1, test_c1):
        # the normalized value overflows to inf and clips to 5.0; tier-1
        # makes an overflow warning on the way an error that fails the cell
        lo, hi = train_c1
        train = tmp_path / "train.csv"
        train.write_text(f"c0,c1\n0.0,{lo!r}\n1.0,{hi!r}\n0.5,{lo!r}\n")
        test = tmp_path / "test.csv"
        test.write_text(f"c0,c1,label\n0.0,{test_c1!r},1\n1.0,{lo!r},0\n")
        config = base_config(synthetic=[], entities=[{
            "id": "far", "train": str(train), "test": str(test),
        }])
        record = run_experiment(config)
        assert record.failures == ()
        assert record.cells[0]["metrics"]["fc1"] == 1.0
        stats = fit_normalizer(SeriesMatrix(np.array([[lo], [hi]])))
        scaled = apply_normalizer(SeriesMatrix(np.array([[test_c1]])), stats)
        assert scaled.values[0, 0] == 5.0

    def test_file_entities_identical_across_workers(self, tmp_path):
        config = base_config(synthetic=[], entities=file_entities(tmp_path, 3),
                             seeds=[0, 1])
        emit_results(run_experiment(config, workers=1), tmp_path / "w1")
        emit_results(run_experiment(config, workers=2), tmp_path / "w2")
        one = (tmp_path / "w1" / "results.json").read_bytes()
        assert one == (tmp_path / "w2" / "results.json").read_bytes()
        assert len(json.loads(one)["cells"]) == 6

    def test_unreadable_entity_fails_only_its_cells(self, tmp_path):
        entities = file_entities(tmp_path, 2)
        bad_train = tmp_path / "bad_train.csv"
        bad_train.write_text("c0,c1\n0.0,1.0\n0.5,not_a_number\n")
        entities.insert(1, dict(entities[0], id="broken", train=str(bad_train)))
        config = base_config(entities=entities, seeds=[0, 1])
        record = run_experiment(config, workers=2)
        assert [(c["entity"], c["seed"]) for c in record.cells] == [
            (e, s) for e in ("file0", "file1", "syn0") for s in (0, 1)
        ]
        error = (f"broken: ParseError: {bad_train} line 3 column 'c1': "
                 "non-numeric value 'not_a_number'")
        assert list(record.failures) == [
            {"entity": "broken", "seed": 0, "error": error},
            {"entity": "broken", "seed": 1, "error": error},
        ]

    def test_each_entity_loads_once(self, tmp_path, monkeypatch):
        config = base_config(entities=file_entities(tmp_path, 2), seeds=[0, 1, 2])
        calls = []

        def counting(loader):
            def wrapped(*args, **kwargs):
                calls.append(loader.__name__)
                return loader(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(experiment, "load_entity", counting(experiment.load_entity))
        monkeypatch.setattr(
            experiment, "generate_synthetic", counting(experiment.generate_synthetic)
        )
        for workers in (1, 2):
            calls.clear()
            record = run_experiment(config, workers=workers)
            assert len(record.cells) == 9
            assert sorted(calls) == ["generate_synthetic"] + ["load_entity"] * 2

    def test_entity_dropped_after_its_last_cell(self, monkeypatch):
        monkeypatch.setattr(experiment, "_load", lambda source: object())
        load = experiment._EntityLoad("e", None, cells=2)
        first, error = load.get()
        assert error is None and load.get() == (first, None)
        load.release()
        assert load.get() == (first, None)
        load.release()
        assert load._entity is None

    def test_the_entity_is_gone_before_the_first_report(self, monkeypatch):
        """A cell lets go of its entity once its test series is scored, and
        its load then holds it no longer: thresholds and metrics run
        without it."""
        entities, alive = [], []
        load = experiment._load

        def loading(source):
            entity = load(source)
            entities.append(weakref.ref(entity))
            return entity

        def alive_at(stage):
            return lambda *args: alive.append(entities[0]() is not None) or stage(*args)

        monkeypatch.setattr(experiment, "_load", loading)
        monkeypatch.setattr(experiment, "score_error", alive_at(experiment.score_error))
        monkeypatch.setattr(experiment, "compute_report", alive_at(experiment.compute_report))
        record = run_experiment(base_config(diagnosis={"enabled": True}))
        assert len(record.cells) == 1
        assert alive == [True, False]  # its one test block, then its one report

    def test_a_later_cell_gets_the_same_entity(self, monkeypatch):
        seen = []
        fit_cell = experiment._fit_cell
        monkeypatch.setattr(experiment, "_fit_cell",
                            lambda entity, *args: seen.append(entity) or fit_cell(entity, *args))
        record = run_experiment(base_config(seeds=[0, 1]))
        assert len(record.cells) == 2
        assert len(seen) == 2 and seen[0] is seen[1]

    @pytest.mark.parametrize("fails", [False, True], ids=["ok", "diagnosis_fails"])
    def test_the_load_count_reaches_zero_once(self, monkeypatch, fails):
        counts = []
        release = experiment._EntityLoad.release

        def counted(load):
            release(load)
            counts.append(load._cells)

        monkeypatch.setattr(experiment._EntityLoad, "release", counted)
        if fails:
            def broken(*args):
                raise RuntimeError("diagnosis broke")
            monkeypatch.setattr(experiment, "diagnose_events", broken)
        record = run_experiment(base_config(seeds=[0, 1], diagnosis={"enabled": True}))
        assert counts == [1, 0]
        if fails:
            assert [f["error"] for f in record.failures] == ["RuntimeError: diagnosis broke"] * 2
        else:
            assert len(record.cells) == 2

    def test_cell_failure_recorded_not_raised(self):
        # window longer than the training series: the fit stage fails
        config = base_config(window={"length": 1000, "step": 1},
                             model={"kind": "uae"})
        record = run_experiment(config)
        assert record.cells == ()
        assert len(record.failures) == 1
        assert "InsufficientData" in record.failures[0]["error"]

    def test_tail_p_sweep_selects_single_eps(self):
        config = base_config(
            model={"kind": "raw"},
            scoring={"kind": "gauss_d", "window": 40},
            threshold={"method": "tail_p", "metric": "fc1"},
            seeds=[0, 1],
        )
        record = run_experiment(config)
        # the run's exponent: the first best mean fc1 over the cells' candidates
        entity = experiment.generate_synthetic(config.synthetic[0])
        candidates = [
            experiment._evaluate_cell(
                entity, seed, experiment._fit_cell(entity, seed, config), config
            )["candidates"]
            for seed in config.seeds
        ]
        means = [np.mean([c[i]["metrics"]["fc1"] for c in candidates])
                 for i in range(len(experiment.TAIL_P_SWEEP))]
        chosen = experiment.TAIL_P_SWEEP[int(np.argmax(means))]
        assert [c["threshold"]["neg_log_eps"] for c in record.cells] == [chosen, chosen]

    def test_fixed_eps_skips_sweep(self):
        config = base_config(
            scoring={"kind": "gauss_s"},
            threshold={"method": "tail_p", "neg_log_eps": 2},
        )
        record = run_experiment(config)
        assert record.cells[0]["threshold"]["neg_log_eps"] == 2
        assert set(record.cells[0]) == {"entity", "seed", "threshold", "metrics"}

    def test_sweep_ranking_metrics_equal_standalone(self, monkeypatch):
        # every eps reuses the first report's ranking metrics; they must be
        # exactly what a standalone report gives on the cell's score series
        series = []

        def spy(scores, m, neg_log_eps):
            series.append(scores)
            return threshold_tail_p(scores, m, neg_log_eps)

        threshold_tail_p = experiment.threshold_tail_p
        monkeypatch.setattr(experiment, "threshold_tail_p", spy)
        config = base_config(
            scoring={"kind": "gauss_d", "window": 40},
            threshold={"method": "tail_p"},
        )
        entity = experiment.generate_synthetic(config.synthetic[0])
        cell = experiment._evaluate_cell(
            entity, 0, experiment._fit_cell(entity, 0, config), config
        )
        candidates = cell["candidates"]
        assert len(candidates) == len(experiment.TAIL_P_SWEEP) == len(series)
        assert [c["threshold"]["neg_log_eps"] for c in candidates] == [1, 2, 3, 4, 5]
        truth = entity.test_labels
        standalone = compute_report(truth, truth, series[0])
        for entry in candidates:
            assert entry["metrics"]["auroc"] == standalone.auroc
            assert entry["metrics"]["auprc"] == standalone.auprc

    @pytest.mark.parametrize("metric", ["fc1", "f1"])
    def test_sweep_equals_fixed_run_at_chosen_eps(self, metric):
        # three entities x three seeds; on fc1 the mean ties at eps 2, 3
        # and 4, and the first of them must win
        config = base_config(
            synthetic=[dict(SPIKE_SPEC, entity_id=f"e{i}", seed=5 + i) for i in range(3)],
            model={"kind": "pca"},
            scoring={"kind": "gauss_d", "window": 40},
            threshold={"method": "tail_p", "metric": metric},
            seeds=[0, 1, 2],
        )
        fixed = [
            run_experiment(dataclasses.replace(
                config, threshold=dataclasses.replace(config.threshold, neg_log_eps=eps)
            ))
            for eps in experiment.TAIL_P_SWEEP
        ]
        means = [np.mean([c["metrics"][metric] for c in r.cells]) for r in fixed]
        if metric == "fc1":
            assert means.count(max(means)) == 3
        first_best = means.index(max(means))

        swept = run_experiment(config)
        assert {c["threshold"]["neg_log_eps"] for c in swept.cells} == {
            experiment.TAIL_P_SWEEP[first_best]
        }
        assert swept.cells == fixed[first_best].cells
        assert swept.aggregates == fixed[first_best].aggregates

    @pytest.mark.parametrize("statistic", ["mean", "max"])
    def test_diagnosis_rankings_equal_full_matrix(self, monkeypatch, statistic):
        # the runner ranks each event on its own rows; ranking the full
        # matrix must give the same order
        captured = []

        def spy(*args):
            channels, series = score_gauss_s(*args)
            captured.append(channels)
            return channels, series

        score_gauss_s = experiment.score_gauss_s
        monkeypatch.setattr(experiment, "score_gauss_s", spy)
        config = base_config(
            scoring={"kind": "gauss_s"},
            diagnosis={"enabled": True, "statistic": statistic},
        )
        record = run_experiment(config)
        rankings = record.cells[0]["diagnosis"]["rankings"]
        entity = experiment.generate_synthetic(config.synthetic[0])
        expected = [
            list(rank_channels(captured[0][e.start : e.end + 1], statistic))
            for e in entity.test_events
        ]
        assert rankings == expected

    def test_diagnosis_block(self):
        config = base_config(diagnosis={"enabled": True, "top_k": 1})
        record = run_experiment(config)
        diag = record.cells[0]["diagnosis"]
        assert diag["rc_top_k"] == 1.0  # single spiked channel dominates
        assert len(diag["rankings"]) == 2

    def test_diagnose_events_ranks_channels_of_the_columns_given(self):
        # each ranking names the channel each column holds, and the
        # summary scores those channels against the causes
        rows = [np.array([[1.0, 5.0, 3.0]]), np.array([[4.0, 0.0, 2.0]])]
        events = [Event(0, 0, {7}), Event(2, 2, {2})]
        rankings, summary = diagnose_events(rows, events, (2, 7, 9), "mean", 1, 100)
        assert rankings == [(7, 9, 2), (2, 9, 7)]
        assert (summary["rc_top_k"], summary["hitrate"]) == (1.0, 1.0)

    def test_a_window_longer_than_its_stream_runs_as_a_reachable_one(self, monkeypatch):
        # W = 10**9 over 250 rows whose level shifts leave windows that lose
        # their digits: they are summed again by the rows they reach, and
        # the cells equal W = 10**6's
        monkeypatch.chdir(Path(__file__).resolve().parents[1])  # the entity's paths
        config = config_from_json(Path("tests/data/long_window_run.json"))
        assert config.scoring.window == 10**9
        calls = []
        summed_again = scoring._sum_again
        monkeypatch.setattr(scoring, "_sum_again",
                            lambda *args: calls.append(1) or summed_again(*args))
        record = run_experiment(config)
        assert not record.failures and calls
        million = dataclasses.replace(config, scoring=ScoringConfig("gauss_d", window=10**6))
        assert record.cells == run_experiment(million).cells


class TestFitEvaluateStages:
    def test_one_fit_evaluates_every_variant_as_a_fresh_fit(self):
        # one fitted value, evaluated under every valid scoring x threshold
        # pair, gives each pair's cell from a fresh fit, and is left as it was
        base = config_from_json(Path(__file__).parent / "data" / "tiny_uae_run.json")
        entity = experiment.generate_synthetic(base.synthetic[0])
        seed = base.seeds[0]
        scorings = [
            ScoringConfig("error"),
            ScoringConfig("gauss_s"),
            ScoringConfig("gauss_d", window=50),
            ScoringConfig("gauss_d_k", window=50, kernel_sigma=2.0),
        ]
        pairs = [
            (sc, ThresholdConfig(method))
            for sc in scorings
            for method in experiment.THRESHOLD_METHODS
            if not (sc.kind == "error" and method == "tail_p")
        ]
        assert len(pairs) == 11
        for model in (ModelConfig("raw"), ModelConfig("pca"), ModelConfig("uae", max_epochs=2)):
            config = dataclasses.replace(base, model=model)
            fitted = experiment._fit_cell(entity, seed, config)
            before = pickle.dumps(fitted)
            for sc, tc in pairs:
                variant = dataclasses.replace(config, scoring=sc, threshold=tc)
                shared = experiment._evaluate_cell(entity, seed, fitted, variant)
                fresh = experiment._evaluate_cell(
                    entity, seed, experiment._fit_cell(entity, seed, variant), variant
                )
                assert json.dumps(shared, sort_keys=True) == json.dumps(fresh, sort_keys=True)
            assert pickle.dumps(fitted) == before

    def test_a_window_past_the_kept_rows_is_refused(self):
        """A fit under W = 50 keeps the last 49 training error rows, too few
        for W = 80: scoring on them would shorten its first windows. A fit
        that kept every row, under a scorer with no window, scores W = 80."""
        base = config_from_json(Path(__file__).parent / "data" / "tiny_uae_run.json")
        config = dataclasses.replace(base, model=ModelConfig("raw"))
        entity = experiment.generate_synthetic(base.synthetic[0])
        wide = dataclasses.replace(config, scoring=ScoringConfig("gauss_d", window=80))
        fitted = experiment._fit_cell(entity, 0, config)
        assert fitted.train_tail.shape[0] == 49 < fitted.train_rows
        with pytest.raises(ValidationError, match="reads the last 79 .* kept 49"):
            experiment._evaluate_cell(entity, 0, fitted, wide)
        every_row = experiment._fit_cell(
            entity, 0, dataclasses.replace(config, scoring=ScoringConfig("error"))
        )
        assert json.dumps(experiment._evaluate_cell(entity, 0, every_row, wide)) == json.dumps(
            experiment._evaluate_cell(entity, 0, experiment._fit_cell(entity, 0, wide), wide)
        )

    @pytest.mark.parametrize("scorer", [
        {"kind": "error"},
        {"kind": "gauss_s"},
        {"kind": "gauss_d", "window": 5},
        {"kind": "gauss_d_k", "window": 5, "kernel_sigma": 1.0},
    ], ids=lambda sc: sc["kind"])
    def test_a_one_row_training_series(self, scorer):
        """One training error row has no Gauss fit: a gauss_s cell fails
        with fit_gauss's own error, and the other scorers run."""
        spec = dict(SPIKE_SPEC, n_train=1)
        record = run_experiment(base_config(synthetic=[spec], scoring=scorer))
        if scorer["kind"] == "gauss_s":
            assert [f["error"] for f in record.failures] == [
                "InsufficientDataError: need at least 2 training error rows to fit, got 1"
            ]
        else:
            assert not record.failures and len(record.cells) == 1


WIRING_SPEC = {
    "entity_id": "wiring", "n_train": 60, "n_test": 47, "m": 3,
    "period": [7.0, 11.0, 13.0], "noise_sigma": 0.2, "seed": 4,
    "anomalies": [
        {"start": 6, "length": 5, "kind": "spike", "channels": [0], "magnitude": 2.0},
        {"start": 30, "length": 9, "kind": "level_shift", "channels": [2], "magnitude": 1.5},
    ],
}


@pytest.mark.parametrize("sc", [
    ScoringConfig("error"),
    ScoringConfig("gauss_s"),
    ScoringConfig("gauss_d", window=6),
    ScoringConfig("gauss_d_k", window=6, kernel_sigma=1.0),
], ids=lambda sc: sc.kind)
def test_blocks_score_as_the_whole_arrays(sc, monkeypatch):
    """A raw cell's test side, in blocks of 8 rows, gives the series and
    event rows of its scorer called once on the whole normalized series,
    with the whole normalized training series as its training errors:
    every row of those errors reaches the train mean, the Gauss fit and
    gauss_d's first windows."""
    monkeypatch.setattr(scoring, "_BLOCK", 8)
    entity = experiment.generate_synthetic(experiment.SyntheticSpec.from_dict(WIRING_SPEC))
    config = config_from_dict({"synthetic": [WIRING_SPEC], "model": {"kind": "raw"}})
    fitted = experiment._fit_cell(entity, 0, config)
    events = entity.test_events
    assert len(events) == 2
    series, rows = experiment._score_test(entity, fitted, sc, events)

    stats = fit_normalizer(entity.train)
    train_err = apply_normalizer(entity.train, stats).values
    test_err = apply_normalizer(entity.test, stats).values
    if sc.kind == "error":
        channels, expected = scoring.score_error(test_err, train_err.mean(axis=0))
    elif sc.kind == "gauss_s":
        channels, expected = scoring.score_gauss_s(test_err, scoring.fit_gauss(train_err))
    else:
        channels, expected = scoring.score_gauss_d(test_err, train_err, sc.window)
        if sc.kind == "gauss_d_k":
            channels, expected = scoring.score_gauss_d_k(
                channels, scoring.KernelSpec(sc.kernel_sigma)
            )
    assert series.tobytes() == expected.tobytes()
    for e, span in zip(events, rows):
        assert span.tobytes() == channels[e.start : e.end + 1].tobytes()


CUT_SPEC = {
    "entity_id": "cut", "n_train": 2000, "n_test": 3000, "m": 4,
    "period": [23.0, 37.0, 51.0, 64.0], "noise_sigma": 0.1, "seed": 3,
    "anomalies": [
        {"start": 500, "length": 20, "kind": "spike", "channels": [0, 2], "magnitude": 2.5},
        {"start": 1400, "length": 30, "kind": "level_shift", "channels": [1], "magnitude": 2.5},
        {"start": 2300, "length": 25, "kind": "spike", "channels": [3, 1], "magnitude": 2.5},
    ],
}


def cut_entity(entity: Entity, cols) -> Entity:
    """``entity`` holding the channels ``cols`` alone; every event names
    its first channel as its cause, so that each is diagnosed."""
    def cut(series):
        names = [series.channel_names[c] for c in cols]
        return SeriesMatrix(np.take(series.values, cols, axis=1), names)

    causes = {i: [0] for i in range(len(entity.test_events))}
    return Entity(entity.id, cut(entity.train), cut(entity.test), entity.test_labels, causes)


@pytest.mark.parametrize("scorer", [
    {"kind": "error"},
    {"kind": "gauss_s"},
    {"kind": "gauss_d", "window": 50},
    {"kind": "gauss_d_k", "window": 50, "kernel_sigma": 2.0},
], ids=lambda sc: sc["kind"])
@pytest.mark.parametrize("cols", [(0,), (2,), (3,), (1, 2), (0, 1, 3)], ids=str)
def test_a_scored_subset_is_the_cut_entity(scorer, cols):
    """A cell whose entity scores channels S is the cell of that entity
    cut to S: the same candidates, bit for bit, and the same rankings once
    the cut's column positions are mapped through S. A single scored
    channel's train mean, Gauss fit and block centre are pairwise sums
    down its own column, as the cut entity's are."""
    entity = experiment.generate_synthetic(experiment.SyntheticSpec.from_dict(CUT_SPEC))
    assert len(entity.test_events) == 3 and entity.causes
    scored = dataclasses.replace(entity, scored_channels=cols)
    alone = cut_entity(entity, cols)
    methods = ["best_f", "top_k"] + (["tail_p"] if scorer["kind"] != "error" else [])
    for method in methods:
        config = config_from_dict({
            "synthetic": [CUT_SPEC], "model": {"kind": "raw"}, "scoring": scorer,
            "threshold": {"method": method}, "diagnosis": {"enabled": True},
        })
        cells = [
            experiment._evaluate_cell(e, 0, experiment._fit_cell(e, 0, config), config)
            for e in (scored, alone)
        ]
        assert json.dumps(cells[0]["candidates"]) == json.dumps(cells[1]["candidates"])
        mapped = [[cols[c] for c in r] for r in cells[1]["diagnosis"]["rankings"]]
        assert cells[0]["diagnosis"]["rankings"] == mapped


MEMORY_ROWS, MEMORY_CHANNELS = 20_000, 16


@pytest.fixture(scope="module")
def stream_entity(tmp_path_factory):
    """A file entity of 20,000 x 16 rows on each side, as the benchmark's
    CSV entities are: a few shared sinusoids mixed into the channels, plus
    noise and two events with causes. Its test side is one scoring block.
    Returns the config entry of a pca / gauss_d cell on it."""
    n, m = MEMORY_ROWS, MEMORY_CHANNELS
    rng = np.random.default_rng(21)
    t = np.arange(2 * n, dtype=np.float64)[:, None]
    values = np.sin(t / rng.uniform(5.0, 60.0, 4)) @ rng.normal(size=(4, m))
    values += rng.normal(0.0, 0.05, size=values.shape)
    labels = np.zeros(n, dtype=np.int64)
    labels[5000:5030] = labels[12000:12020] = 1
    values[n + 5000 : n + 5030, 3] += 5.0
    values[n + 12000 : n + 12020, 1] += 5.0
    out = tmp_path_factory.mktemp("stream")
    header = ",".join(f"c{c}" for c in range(m))
    np.savetxt(out / "train.csv", values[:n], fmt="%.6f", delimiter=",",
               header=header, comments="")
    np.savetxt(out / "test.csv", np.column_stack([values[n:], labels]), delimiter=",",
               fmt=["%.6f"] * m + ["%d"], header=header + ",label", comments="")
    (out / "causes.json").write_text('{"0": ["c3"], "1": ["c1"]}', encoding="utf-8")
    return {"id": "stream", "train": str(out / "train.csv"), "test": str(out / "test.csv"),
            "cause_map": str(out / "causes.json")}


def stream_config(entry):
    return config_from_dict({
        "entities": [entry],
        "model": {"kind": "pca"},
        "scoring": {"kind": "gauss_d", "window": 500},
        "threshold": {"method": "top_k"},
        "diagnosis": {"enabled": True},
    })


def traced_arrays(call):
    """``call()`` and, in whole-stream n x m float arrays, its traced peak
    and the traced memory it leaves held (its result's, say)."""
    stream_bytes = MEMORY_ROWS * MEMORY_CHANNELS * 8
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, (peak - start) / stream_bytes, (held - start) / stream_bytes


class TestCellMemory:
    """A cell of one scoring block holds each full-length array once."""

    def test_loading_holds_one_table_at_a_time(self, stream_entity):
        """load_entity peaks at ~3.4 arrays: the test file's table while
        the train file's loadtxt pass runs (~2.4). Each file's table is
        dropped once its columns are read, in one C-ordered copy, so the
        entity's two series are all it keeps. Holding both tables until
        the end, with each series copied twice, took ~6.3."""
        entity, peak, held = traced_arrays(lambda: experiment.load_entity(
            stream_entity["train"], stream_entity["test"],
            cause_map=stream_entity["cause_map"],
        ))
        assert entity.test.n == MEMORY_ROWS
        assert held < 2.25
        assert peak < 4.0

    def test_the_fitted_value_keeps_no_normalized_training_copy(self, stream_entity):
        """A pca / gauss_d fit keeps its model and what its scorers read of
        the training residuals: their mean, their Gauss fit and the last
        W - 1 = 499 rows, ~0.03 arrays in all, and none of the normalized
        training rows. Keeping every residual row kept ~1.0, and keeping
        the normalized series as well ~2.0."""
        config = stream_config(stream_entity)
        entity = experiment._load(config.entities[0])
        _, _, held = traced_arrays(lambda: experiment._fit_cell(entity, 0, config))
        assert held < 0.05

    def test_evaluation_holds_each_block_array_once(self, stream_entity):
        """Over its fitted value, evaluation peaks at ~4.9 arrays inside
        gauss_d: the block's errors, the two prefix sums the errors are
        centered and summed in and the channel scores, plus the steps'
        temporaries. Holding the normalized block and a centered copy of
        the errors as well peaked at ~6.7."""
        config = stream_config(stream_entity)
        entity = experiment._load(config.entities[0])
        fitted = experiment._fit_cell(entity, 0, config)
        cell, peak, _ = traced_arrays(
            lambda: experiment._evaluate_cell(entity, 0, fitted, config)
        )
        assert cell["diagnosis"]["rankings"]
        assert peak < 5.25

    def test_static_scoring_steps_through_the_block(self, stream_entity):
        """A raw / gauss_s evaluation peaks at ~2.9 arrays: the normalized
        block, which is the raw model's errors, and the channel scores, plus
        one step's survival temporaries. Scoring the whole block at once
        peaked at ~8.5."""
        config = dataclasses.replace(
            stream_config(stream_entity),
            model=ModelConfig("raw"), scoring=ScoringConfig("gauss_s"),
        )
        entity = experiment._load(config.entities[0])
        fitted = experiment._fit_cell(entity, 0, config)
        cell, peak, _ = traced_arrays(
            lambda: experiment._evaluate_cell(entity, 0, fitted, config)
        )
        assert cell["diagnosis"]["rankings"]
        assert peak < 3.25


class TestCompareMetrics:
    def test_ideal_detector_row(self):
        truth = np.array([0, 1, 1, 0, 1, 1, 0])
        ideal = np.array([0, 1, 0, 0, 1, 0, 0])  # one TP per event, no FP
        rows = compare_metrics(truth, {"ideal": ideal})
        row = next(r for r in rows if r["name"] == "ideal")
        assert row["fc1"] == 1.0

    def test_all_positive_detector(self):
        truth = np.array([0, 1, 1, 0, 0])
        rows = compare_metrics(truth, {"always": np.ones(5, dtype=np.int64)})
        row = rows[0]
        # Rec_e = 1 and Pr_t = anomaly fraction pin fc1 at its harmonic mean
        frac = 0.4
        assert row["fc1"] == pytest.approx(2 * frac / (1 + frac))

    def test_point_adjustment_inflation_on_long_events(self):
        # few long events plus a sprinkle of false alarms: the adjusted
        # score forgives what the composite score will not
        rng = np.random.default_rng(3)
        n = 20_000
        truth = np.zeros(n, dtype=np.int64)
        starts = np.arange(500, n - 600, 1400)[:14]
        for s in starts:
            truth[s : s + 400] = 1
        pred = np.zeros(n, dtype=np.int64)
        for s in starts:
            pred[s + int(rng.integers(0, 400))] = 1  # one hit per event
        fp = rng.choice(np.flatnonzero(truth == 0), 20, replace=False)
        pred[fp] = 1  # ~0.17% positive rate in total
        rows = compare_metrics(truth, {"noisy": pred})
        row = rows[0]
        assert row["fpa1"] - row["fc1"] >= 0.3

    def test_random_baseline_rows_present(self):
        truth = np.array([0, 1, 1, 0, 1, 0, 0, 1])
        rows = compare_metrics(truth, {"p": truth.copy()})
        names = [r["name"] for r in rows]
        assert names[0] == "p"
        assert set(names[1:]) == {
            "random(best f1)", "random(best fpa1)", "random(best fc1)",
        }

    def test_named_column_like_a_baseline_keeps_both_rows(self):
        truth = np.array([0, 1, 1, 0, 1, 0, 0, 1])
        rows = compare_metrics(truth, {"random(best f1)": truth.copy()})
        names = [r["name"] for r in rows]
        assert names == [
            "random(best f1)", "random(best f1)", "random(best fpa1)", "random(best fc1)",
        ]
        assert rows[0]["f1"] == 1.0
        assert rows[1:] == compare_metrics(truth, {})

    def test_length_mismatch(self):
        with pytest.raises(Exception):
            compare_metrics(np.array([0, 1]), {"x": np.array([0, 1, 0])})


class TestEmitResults:
    def test_round_trip(self, tmp_path):
        record = run_experiment(base_config())
        paths = emit_results(record, tmp_path)
        payload = read_json(paths["results"])
        assert payload == record.payload()
        assert payload["schema_version"] == 2

    def test_byte_identical_reruns(self, tmp_path):
        config = base_config(seeds=[0, 2])
        emit_results(run_experiment(config), tmp_path / "a")
        emit_results(run_experiment(config), tmp_path / "b")
        a = (tmp_path / "a" / "results.json").read_bytes()
        b = (tmp_path / "b" / "results.json").read_bytes()
        assert a == b

    def test_csv_summary_rows(self, tmp_path):
        spec2 = dict(SPIKE_SPEC, entity_id="syn1", seed=6)
        config = base_config(synthetic=[SPIKE_SPEC, spec2], seeds=[0, 1])
        emit_results(run_experiment(config), tmp_path, fmt="csv")
        payload = read_json(tmp_path / "results.json")
        # every cell reports every MetricReport field, and nothing else
        fields = [f.name for f in dataclasses.fields(MetricReport)]
        assert sorted(payload["cells"][0]["metrics"]) == sorted(fields)
        with (tmp_path / "summary.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["entity", "seed", "metric", "value"]
        # one row per (entity, seed, metric), in cell order, metrics sorted
        expected = [
            [cell["entity"], str(cell["seed"]), key, "" if value is None else f"{value:.10g}"]
            for cell in payload["cells"]
            for key, value in sorted(cell["metrics"].items())
        ]
        assert rows[1:] == expected
        assert len(expected) == 4 * len(fields)

    def test_timings_kept_out_of_payload(self, tmp_path):
        record = run_experiment(base_config())
        assert "timings" not in record.payload()
        assert "timings" in record.meta
        paths = emit_results(record, tmp_path)
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert "timings" in meta

    def test_load_time_in_meta_only(self, tmp_path):
        config = base_config(entities=file_entities(tmp_path, 1), seeds=[0, 1])
        for out in ("a", "b"):
            emit_results(run_experiment(config), tmp_path / out)
        meta = json.loads((tmp_path / "a" / "run_meta.json").read_text())
        assert sorted(meta["load_timings"]) == ["file0", "syn0"]
        assert sorted(meta["timings"]) == ["file0/0", "file0/1", "syn0/0", "syn0/1"]
        assert all(t >= 0 for t in meta["load_timings"].values())
        results = (tmp_path / "a" / "results.json").read_bytes()
        assert b"load_timings" not in results and b"timings" not in results
        assert results == (tmp_path / "b" / "results.json").read_bytes()

    def test_bad_format_rejected(self, tmp_path):
        record = run_experiment(base_config())
        with pytest.raises(ConfigError):
            emit_results(record, tmp_path, fmt="xml")

    def test_failed_replace_keeps_previous_file(self, tmp_path, monkeypatch):
        first = run_experiment(base_config(seeds=[0]))
        emit_results(first, tmp_path, fmt="csv")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(ConfigError, match="disk full"):
            emit_results(run_experiment(base_config(seeds=[1])), tmp_path, fmt="csv")
        after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert after == before  # old bytes intact, no temporary file left


# Every field of every config class set to a value other than its default.
FULL_CONFIG = {
    "entities": [{
        "id": "f0", "train": "f0_train.csv", "test": "f0_test.csv",
        "label_column": "y", "cause_map": "f0_causes.json", "scored_channels": ["x1", "x0"],
    }],
    "synthetic": [{
        "entity_id": "syn9", "n_train": 40, "n_test": 50, "m": 2, "period": [30.0, 45.5],
        "noise_sigma": 0.2, "seed": 9,
        "anomalies": [
            {"start": 5, "length": 3, "kind": "level_shift", "channels": [1, 0], "magnitude": 2.5},
            {"start": 20, "length": 10, "kind": "drift_background", "channels": [],
             "magnitude": 0.5},
        ],
    }],
    "window": {"length": 20, "step": 5},
    "model": {
        "kind": "fc_ae", "latent_dim": 3, "pca_variance_fraction": 0.8, "learning_rate": 0.01,
        "batch_size": 32, "max_epochs": 7, "patience": 2, "validation_fraction": 0.3,
    },
    "scoring": {"kind": "gauss_d_k", "window": 50, "kernel_sigma": 1.5},
    "threshold": {"method": "tail_p", "metric": "f1", "k": None, "neg_log_eps": 2},
    "diagnosis": {"enabled": True, "top_k": 2, "percent": 100, "statistic": "max"},
    "seeds": [3, 1],
    "output_dir": "out/full",
}

# k belongs to top_k only, so this section sets the field FULL_CONFIG cannot
FULL_TOP_K = {
    **FULL_CONFIG,
    "threshold": {"method": "top_k", "metric": "f1", "k": 4, "neg_log_eps": None},
}
MINIMAL_SPEC = {"n_train": 10, "n_test": 10, "m": 1}


def config_error(d) -> str:
    with pytest.raises(ConfigError) as caught:
        config_from_dict(d)
    return str(caught.value)


class TestConfigCodec:
    def test_full_config_round_trips(self):
        for full in (FULL_CONFIG, FULL_TOP_K):
            config = config_from_dict(full)
            assert config.to_dict() == full
            again = config_from_dict(config.to_dict())
            assert again == config
            assert again.digest() == config.digest()

    def test_full_config_sets_every_field(self):
        config = config_from_dict(FULL_CONFIG)
        sections = [config, config.entities[0], config.synthetic[0], config.window,
                    config.model, config.scoring, config.diagnosis,
                    config.synthetic[0].anomalies[0]]
        for obj in sections:
            for f in dataclasses.fields(obj):
                assert getattr(obj, f.name) != f.default, (type(obj).__name__, f.name)
        thresholds = (config.threshold, config_from_dict(FULL_TOP_K).threshold)
        for f in dataclasses.fields(ThresholdConfig):
            assert any(getattr(t, f.name) != f.default for t in thresholds), f.name

    def test_no_config_class_hides_a_field(self):
        # every field of every section is a config key, so the encoded
        # config (and its digest) names all that a run reads from it
        config = config_from_dict(FULL_CONFIG)
        sections = [config, config.entities[0], config.synthetic[0],
                    config.synthetic[0].anomalies[0], config.window, config.model,
                    config.scoring, config.threshold, config.diagnosis]
        assert {type(obj).__name__ for obj in sections} == {
            "ExperimentConfig", "EntitySource", "SyntheticSpec", "AnomalySpec", "WindowSpec",
            "ModelConfig", "ScoringConfig", "ThresholdConfig", "DiagnosisConfig",
        }
        for obj in sections:
            assert set(encode_config(obj)) == {f.name for f in dataclasses.fields(obj)}

    def test_golden_digest(self):
        config = config_from_dict({"synthetic": [MINIMAL_SPEC]})
        assert config.digest() == (
            "36162f9b3547549d691096cd7649921a4958954c2272df6dc2409e7477d4f917"
        )

    def test_partial_sections_take_class_defaults(self):
        config = config_from_dict({
            "synthetic": [MINIMAL_SPEC],
            "window": {"step": 2},
            "model": {"max_epochs": 3},
            "scoring": {},
            "threshold": {"metric": "f1"},
        })
        assert config.window == WindowSpec(100, 2)
        assert config.model.kind == "uae" and config.model.max_epochs == 3
        assert config.scoring.kind == "gauss_s"
        assert config.threshold.method == "best_f" and config.threshold.metric == "f1"
        assert config.threshold.k is None

    def test_int_accepted_for_float(self):
        config = config_from_dict({
            "synthetic": [dict(MINIMAL_SPEC, noise_sigma=1, period=[25])],
            "model": {"pca_variance_fraction": 1},
        })
        assert type(config.model.pca_variance_fraction) is float
        assert config.synthetic[0].period == (25.0,)
        assert config.to_dict()["synthetic"][0]["noise_sigma"] == 1.0

    def test_largest_float_accepted(self):
        largest = int(sys.float_info.max)  # the next integer up rounds to inf
        config = config_from_dict({"synthetic": [dict(MINIMAL_SPEC, noise_sigma=largest)]})
        assert config.synthetic[0].noise_sigma == sys.float_info.max

    @pytest.mark.parametrize("overrides, message", [
        ({"window": 5}, "config.window must be an object, got 5"),
        ({"model": "uae"}, 'config.model must be an object, got "uae"'),
        ({"diagnosis": []}, "config.diagnosis must be an object, got an array"),
        ({"model": {"latnet_dim": 3}}, "config.model: unknown keys ['latnet_dim']"),
        ({"scoring": {"windw": 3}}, "config.scoring: unknown keys ['windw']"),
        ({"window": {"stpe": 1}}, "config.window: unknown keys ['stpe']"),
        ({"diagnosis": {"enabeld": True}}, "config.diagnosis: unknown keys ['enabeld']"),
        ({"entities": [{"id": "a", "train": "a", "test": "b", "lable_column": "y"}]},
         "config.entities[0]: unknown keys ['lable_column']"),
        ({"synthetic": [dict(MINIMAL_SPEC, anomalies=[
            {"start": 1, "length": 2, "kind": "spike", "channels": [0], "magntiude": 2.0}])]},
         "config.synthetic[0].anomalies[0]: unknown keys ['magntiude']"),
        ({"model": {"kind": "raw", "seed": 3}}, "config.model: unknown keys ['seed']"),
        ({"diagnosis": {"enabled": "false"}},
         'config.diagnosis.enabled must be a boolean, got "false"'),
        ({"window": {"length": "100"}}, 'config.window.length must be an integer, got "100"'),
        ({"window": {"length": 2.5}}, "config.window.length must be an integer, got 2.5"),
        ({"seeds": [True]}, "config.seeds[0] must be an integer, got true"),
        ({"model": {"learning_rate": False}},
         "config.model.learning_rate must be a number or null, got false"),
        ({"synthetic": [dict(MINIMAL_SPEC, period="x")]},
         'config.synthetic[0].period must be a number or an array, got "x"'),
        ({"metrics": ["f1"]}, "config: unknown keys ['metrics']"),
        ({"output_dir": None}, "config.output_dir must be a string, got null"),
        ({"synthetic": [{"n_train": 3}]}, "config.synthetic[0]: missing key 'n_test'"),
        ({"entities": [{"id": "a", "train": "a"}]}, "config.entities[0]: missing key 'test'"),
        ({"window": {"length": 0}}, "config.window: window length must be >= 1, got 0"),
        ({"seeds": "1"}, 'config.seeds must be an array, got "1"'),
        ({"model": {"kind": "pca", "latent_dim": 99}},
         "config.model: latent_dim is used only by uae and fc_ae, got kind 'pca'"),
        ({"model": {"kind": "pca", "learning_rate": 5}},
         "config.model: learning_rate is used only by uae and fc_ae, got kind 'pca'"),
        ({"model": {"kind": "raw", "batch_size": 7}},
         "config.model: batch_size is used only by uae and fc_ae, got kind 'raw'"),
        # json.loads takes NaN, Infinity and -Infinity, and integers past the float range
        ({"model": {"learning_rate": math.nan}},
         "config.model.learning_rate must be a finite number, got NaN"),
        ({"synthetic": [dict(MINIMAL_SPEC, noise_sigma=math.nan)]},
         "config.synthetic[0].noise_sigma must be a finite number, got NaN"),
        ({"scoring": {"kind": "gauss_d_k", "kernel_sigma": math.inf}},
         "config.scoring.kernel_sigma must be a finite number, got Infinity"),
        ({"synthetic": [dict(MINIMAL_SPEC, period=[25, -math.inf])]},
         "config.synthetic[0].period[1] must be a finite number, got -Infinity"),
        ({"model": {"learning_rate": 10**400}},
         f"config.model.learning_rate must be a finite number, got {10**400}"),
        ({"scoring": {"kind": "gauss_d", "window": 2**63}},
         f"config.scoring: window must be <= 2**63 - 1, got {2**63}"),
        ({"scoring": {"kind": "gauss_s"}, "threshold": {"method": "tail_p", "neg_log_eps": 0}},
         "config.threshold: neg_log_eps must be in 1..2**53, got 0"),
        ({"scoring": {"kind": "gauss_s"},
          "threshold": {"method": "tail_p", "neg_log_eps": 2**53 + 1}},
         f"config.threshold: neg_log_eps must be in 1..2**53, got {2**53 + 1}"),
        # the autoencoders step float32 parameters by the learning rate
        ({"model": {"learning_rate": 1e39}},
         "config.model: learning_rate must be in (0, 3.4028235e+38], got 1e+39"),
        ({"model": {"learning_rate": 0}},
         "config.model: learning_rate must be in (0, 3.4028235e+38], got 0.0"),
        # a float per kernel tap
        ({"scoring": {"kind": "gauss_d_k", "window": 5, "kernel_sigma": 1e300}},
         "config.scoring: kernel_sigma must be <= 2**16, got 1e+300"),
        ({"scoring": {"kind": "gauss_d_k", "window": 5, "kernel_sigma": 2**16 + 1}},
         "config.scoring: kernel_sigma must be <= 2**16, got 65537.0"),
    ])
    def test_errors_name_the_path(self, overrides, message):
        assert config_error({"synthetic": [MINIMAL_SPEC], **overrides}) == message

    def test_largest_window_and_eps_accepted(self):
        config = config_from_dict({
            "synthetic": [MINIMAL_SPEC], "scoring": {"kind": "gauss_d", "window": 2**63 - 1},
        })
        assert config.scoring.window == scoring.MAX_WINDOW
        config = config_from_dict({
            "synthetic": [MINIMAL_SPEC], "scoring": {"kind": "gauss_s"},
            "threshold": {"method": "tail_p", "neg_log_eps": 2**53},
        })
        assert config.threshold.neg_log_eps == 2**53
        config = config_from_dict({
            "synthetic": [MINIMAL_SPEC],
            "scoring": {"kind": "gauss_d_k", "window": 5, "kernel_sigma": 2**16},
            "model": {"learning_rate": float(np.finfo(np.float32).max)},
        })
        assert config.scoring.kernel_sigma == scoring.MAX_KERNEL_SIGMA
        assert config.model.learning_rate == train.MAX_LEARNING_RATE

    @pytest.mark.parametrize("section, message", [
        ({"scoring": {"kind": "error", "window": 10}},
         "config.scoring: window is used only by gauss_d and gauss_d_k, got kind 'error'"),
        ({"scoring": {"window": 10}},
         "config.scoring: window is used only by gauss_d and gauss_d_k, got kind 'gauss_s'"),
        ({"scoring": {"kind": "gauss_s", "kernel_sigma": 2.0}},
         "config.scoring: kernel_sigma is used only by gauss_d_k, got kind 'gauss_s'"),
        ({"scoring": {"kind": "gauss_d", "window": 10, "kernel_sigma": 2.0}},
         "config.scoring: kernel_sigma is used only by gauss_d_k, got kind 'gauss_d'"),
        ({"threshold": {"k": 4}},
         "config.threshold: k is used only by method top_k, got method 'best_f'"),
        ({"threshold": {"method": "tail_p", "k": 4}},
         "config.threshold: k is used only by method top_k, got method 'tail_p'"),
        ({"threshold": {"method": "best_f", "neg_log_eps": 2}},
         "config.threshold: neg_log_eps is used only by method tail_p, got method 'best_f'"),
        ({"threshold": {"method": "top_k", "k": 3, "neg_log_eps": 2}},
         "config.threshold: neg_log_eps is used only by method tail_p, got method 'top_k'"),
    ], ids=["window-error", "window-gauss_s", "sigma-gauss_s", "sigma-gauss_d", "k-best_f",
            "k-tail_p", "eps-best_f", "eps-top_k"])
    def test_settings_the_method_ignores_rejected(self, section, message):
        assert config_error({"synthetic": [MINIMAL_SPEC], **section}) == message

    def test_null_unused_settings_accepted(self):
        # encode_config writes every field, so a saved config carries the nulls
        config = config_from_dict({
            "synthetic": [MINIMAL_SPEC],
            "scoring": {"kind": "error", "window": None, "kernel_sigma": None},
            "threshold": {"method": "best_f", "k": None, "neg_log_eps": None},
            "model": {"kind": "pca", "latent_dim": None, "learning_rate": None,
                      "batch_size": None},
        })
        assert config_from_dict(config.to_dict()) == config

    def test_root_must_be_an_object(self):
        assert config_error([1]) == "config must be an object, got an array"

    def test_empty_scored_channels_rejected(self):
        entity = {"id": "a", "train": "a.csv", "test": "b.csv", "scored_channels": []}
        assert config_error({"entities": [entity]}) == (
            "config.entities[0]: scored_channels must be non-empty; "
            "omit it to score all channels"
        )
        assert config_from_dict({"entities": [dict(entity, scored_channels=None)]}) \
            .entities[0].scored_channels is None

    def test_readme_config_parses(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme[readme.index("### Experiment config"):]
        block = section[section.index("```json") + len("```json"):section.index("```\n\n")]
        config = config_from_dict(json.loads(block))
        assert [e.scored_channels for e in config.entities] == [("c0", "c1", "c2")]
        assert config.digest() == (
            "f0e17a2b8c1a2d7759c17c1a5ba7fb684e248535e9190ba56dc32cf971a341c5"
        )
