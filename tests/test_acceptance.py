"""Acceptance gate: one test per shipping criterion.

Each test states its tolerance inline and checks the stated runtime
budget where the criterion carries one. Run with -v to get a pass/fail
line per criterion. These deliberately re-check ground the module tests
cover, as a single go/no-go list for the whole package.
"""
import csv
import json
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

from tsadkit.cli import main
from tsadkit.core import SeriesMatrix
from tsadkit.diagnosis import rank_channels, rc_top_k
from tsadkit.ingest import (
    AnomalySpec,
    SyntheticSpec,
    WindowSpec,
    apply_normalizer,
    fit_normalizer,
    generate_synthetic,
)
from tsadkit.metrics import compute_report, rad_scores
from tsadkit.models import ModelConfig, fit, residuals
from tsadkit.models.mlp import MlpAutoencoder, MlpStack, autoencoder_widths
from tsadkit.models.pca import PcaModel
from tsadkit.rankstats import RankTable, average_ranks, friedman
from tsadkit.scoring import fit_gauss, score_gauss_d, score_gauss_s
from tsadkit.thresholding import threshold_best_f, threshold_tail_p, threshold_top_k

from reference import f1_naive, fc1_naive, fd_gradient, fpa1_naive, midranks

DATA = Path(__file__).parent / "data"


def test_c01_f_scores_match_exhaustive_oracles():
    """F1/Fpa1/Fc1 equal brute-force oracles exactly, 1000 pairs, n<=64, <5s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        truth = (rng.random(n) < rng.uniform(0.05, 0.6)).astype(np.int64)
        pred = (rng.random(n) < rng.uniform(0.05, 0.6)).astype(np.int64)
        report = compute_report(pred, truth)
        assert report.f1 == f1_naive(pred, truth)
        assert report.fpa1 == fpa1_naive(pred, truth)
        assert report.fc1 == fc1_naive(pred, truth)
    assert time.monotonic() - t0 < 5.0


def test_c02_f_scores_hand_fixture():
    """Two-event fixture: F1 = 1/3, Fpa1 = 4/7, Fc1 = 1/2 exactly."""
    truth = np.array([0, 0, 1, 1, 0, 0, 1, 1, 0, 0])
    pred = np.array([0, 0, 1, 0, 0, 0, 0, 0, 1, 0])
    report = compute_report(pred, truth)
    assert (report.f1, report.fpa1, report.fc1) == (1.0 / 3.0, 4.0 / 7.0, 0.5)


def test_c03_random_scores_inflate_point_adjusted_f1():
    """Uniform random scores + best-F threshold on sparse long-event truth:
    Fpa1 >= 0.6 and Fc1 <= 0.35 in at least 4 of 5 seeds, <30s."""
    t0 = time.monotonic()
    n = 100_000
    lengths = [50, 75, 100, 120, 150, 200, 250, 300, 350, 400, 450, 500, 550, 600]
    truth = np.zeros(n, dtype=np.int64)
    pos = 2000
    for length in lengths:
        truth[pos : pos + length] = 1
        pos += n // 15
    passed = 0
    for seed in range(5):
        scores = rad_scores(n, seed)
        best_fpa1 = threshold_best_f(scores, truth, "fpa1").metadata["value"]
        best_fc1 = threshold_best_f(scores, truth, "fc1").metadata["value"]
        passed += best_fpa1 >= 0.6 and best_fc1 <= 0.35
    assert passed >= 4
    assert time.monotonic() - t0 < 30.0


def test_c04_benchmark_rank_table_statistics():
    """Bundled 13x7 fc1 table: Friedman statistic equals the exact rational
    oracle 36168/637 (~56.7786, rel 1e-12), p-value equals the chi-squared
    survival on k-1 = 12 df (rel 1e-8), UAE ranks best at exactly 11/7, <1s.

    The oracle reads the CSV with ``csv``, ranks each dataset column with
    ``reference.midranks`` (higher fc1 is better) and evaluates
    12/(N k(k+1)) * sum_j R_j^2 - 3N(k+1) over the rank sums R_j in
    ``Fraction`` arithmetic, independently of ``tsadkit.rankstats``.
    """
    path = DATA / "benchmark_fc1.csv"
    with path.open(newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    methods = [row[0] for row in rows]
    k, n = len(rows), len(header) - 1
    rank_sums = [Fraction(0)] * k
    for j in range(1, n + 1):
        column = [-float(row[j]) for row in rows]
        for i, r in enumerate(midranks(column)):
            rank_sums[i] += Fraction(r)
    expected = Fraction(12, n * k * (k + 1)) * sum(r * r for r in rank_sums) - 3 * n * (k + 1)
    uae_rank = rank_sums[methods.index("UAE")] / n
    assert expected == Fraction(36168, 637)
    assert uae_rank == Fraction(11, 7)

    t0 = time.monotonic()
    table = RankTable.from_csv(path)
    ranks = dict(zip(table.method_names, average_ranks(table)))
    stat, p = friedman(table)
    elapsed = time.monotonic() - t0
    assert stat == pytest.approx(float(expected), rel=1e-12), (
        f"Friedman statistic {stat!r} != exact oracle {expected} = {float(expected)!r}"
    )
    assert p == pytest.approx(chi2.sf(float(expected), k - 1), rel=1e-8), (
        f"p-value {p!r} != chi-squared survival on {k - 1} df"
    )
    assert min(ranks, key=ranks.get) == "UAE", f"best method {min(ranks, key=ranks.get)}"
    assert ranks["UAE"] == pytest.approx(float(uae_rank), rel=1e-12), (
        f"UAE average rank {ranks['UAE']!r} != 11/7"
    )
    assert elapsed < 1.0


def test_c05_mlp_gradients_match_finite_differences():
    """Analytic gradients vs central differences (h=1e-5), rel err <= 1e-4
    on 20 random small networks, <10s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(505)
    for _ in range(20):
        input_dim = int(rng.integers(3, 11))
        latent = int(rng.integers(1, input_dim))
        model = MlpAutoencoder(autoencoder_widths(input_dim, latent), rng)
        x = rng.normal(size=(int(rng.integers(1, 5)), input_dim))
        stack = MlpStack(model.widths, model.flat_params[None])
        stack.inputs(x.shape[0])[0][...] = x
        stack.losses()
        stack.backward()
        [fd] = fd_gradient(lambda: model.loss(x), [model.flat_params], h=1e-5)
        a = stack.flat_grads[0]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(fd)), 1e-6)
        assert (np.abs(a - fd) / denom).max() <= 1e-4
    assert time.monotonic() - t0 < 10.0


def test_c06_pca_retained_variance_and_exact_reconstruction():
    """Retained explained variance >= 0.9 always; rank-deficient inputs
    reconstruct to <= 1e-10 residual, <1s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(606)
    for m, rank in ((4, 1), (4, 2), (6, 3), (8, 2)):
        # balanced singular values so no proper subset reaches 0.9
        basis_l = np.linalg.qr(rng.normal(size=(120, rank)))[0]
        basis_r = np.linalg.qr(rng.normal(size=(m, rank)))[0].T
        s = np.linspace(1.0, 0.8, rank)
        data = (basis_l * s) @ basis_r + rng.normal(size=m)
        model = PcaModel.fit(data)
        assert model.retained_variance >= 0.9
        assert model.q == rank
        assert np.abs(model.residuals(data)).max() <= 1e-10
    # full-rank noise: variance contract still holds
    noisy = rng.normal(size=(200, 5))
    assert PcaModel.fit(noisy).retained_variance >= 0.9
    assert time.monotonic() - t0 < 1.0


def _uae_scores(ent, seed, window, roll_window):
    """Fit UAE, return (gauss_s, gauss_d) channel/series score pairs."""
    stats = fit_normalizer(ent.train)
    train_n = apply_normalizer(ent.train, stats)
    test_n = apply_normalizer(ent.test, stats)
    model = fit(train_n, ModelConfig("uae"), window, seed)
    tail = SeriesMatrix(
        train_n.values[-(window.length - 1) :], train_n.channel_names
    )
    err = residuals(model, test_n, train_tail=tail)
    train_err = residuals(model, train_n)
    static = score_gauss_s(err, fit_gauss(train_err))
    dynamic = score_gauss_d(err, train_err[-(roll_window - 1) :], roll_window)
    return static, dynamic


def test_c07_dynamic_scoring_beats_static_under_drift():
    """With background drift in test, UAE+Gauss-D beats UAE+Gauss-S on
    top-k Fc1 averaged over 3 seeds, <5min (n=5000/5000, m=4)."""
    t0 = time.monotonic()
    spikes = [
        AnomalySpec(start=600 + 500 * i, length=20, kind="spike",
                    channels=(i % 4,), magnitude=1.0)
        for i in range(8)
    ]
    drift = AnomalySpec(start=500, length=4000, kind="drift_background",
                        magnitude=1.5)
    ent = generate_synthetic(SyntheticSpec(
        n_train=5000, n_test=5000, m=4, period=(50.0, 75.0, 100.0, 125.0),
        noise_sigma=0.05, anomalies=tuple(spikes + [drift]), seed=7,
        entity_id="drift",
    ))
    truth = ent.test_labels
    k = int(truth.sum())
    static_fc1, dynamic_fc1 = [], []
    for seed in (1, 2, 3):
        (_, ser_s), (_, ser_d) = _uae_scores(ent, seed, WindowSpec(50, 5), 500)
        pred_s = threshold_top_k(ser_s, k).predictions
        pred_d = threshold_top_k(ser_d, k).predictions
        static_fc1.append(compute_report(pred_s, truth).fc1)
        dynamic_fc1.append(compute_report(pred_d, truth).fc1)
    assert np.mean(dynamic_fc1) > np.mean(static_fc1), (
        f"gauss_d {np.mean(dynamic_fc1):.4f} vs gauss_s {np.mean(static_fc1):.4f}"
    )
    assert time.monotonic() - t0 < 300.0


def test_c08_detection_and_diagnosis_end_to_end():
    """Ten single-cause spike events: UAE+Gauss-D+top-k reaches Fc1 >= 0.8
    and RC-top-3 >= 0.9 averaged over 3 seeds, <5min."""
    t0 = time.monotonic()
    spikes = [
        AnomalySpec(start=150 + 280 * i, length=20, kind="spike",
                    channels=(i % 8,), magnitude=2.0)
        for i in range(10)
    ]
    ent = generate_synthetic(SyntheticSpec(
        n_train=3000, n_test=3000, m=8,
        period=tuple(40.0 + 12.0 * i for i in range(8)),
        noise_sigma=0.05, anomalies=tuple(spikes), seed=11,
        entity_id="causes",
    ))
    truth = ent.test_labels
    events = ent.test_events
    k = int(truth.sum())
    fc1_vals, rc_vals = [], []
    for seed in (1, 2, 3):
        _, (channels, series) = _uae_scores(ent, seed, WindowSpec(50, 5), 300)
        pred = threshold_top_k(series, k).predictions
        fc1_vals.append(compute_report(pred, truth).fc1)
        rankings = [rank_channels(channels[e.start : e.end + 1]) for e in events]
        rc_vals.append(rc_top_k(rankings, events, 3))
    assert np.mean(fc1_vals) >= 0.8, f"mean fc1 {np.mean(fc1_vals):.4f}"
    assert np.mean(rc_vals) >= 0.9, f"mean rc@3 {np.mean(rc_vals):.4f}"
    assert time.monotonic() - t0 < 300.0


def test_c09_threshold_contracts():
    """top-k yields exactly k positives on 500 random inputs including
    all-tied scores; tail-p threshold at m=51, eps exponent 3 is 153."""
    rng = np.random.default_rng(909)
    for trial in range(500):
        n = int(rng.integers(1, 200))
        if trial % 10 == 0:
            scores = np.full(n, 3.3)  # every score tied
        else:
            scores = np.round(rng.random(n), 1)  # heavy ties
        k = int(rng.integers(0, n + 1))
        assert int(threshold_top_k(scores, k).predictions.sum()) == k
    result = threshold_tail_p(np.array([100.0, 200.0]), 51, 3)
    assert result.threshold == 153.0


def test_c10_ranking_metric_sanity():
    """Perfect ranking scores 1.0 exactly; permuted scores sit at
    AUROC 0.5 +- 0.02 and AUPRC within 0.03 of the base rate, n=1e4."""
    n = 10_000
    rng = np.random.default_rng(42)
    truth = (rng.random(n) < 0.05).astype(np.int64)
    base_rate = truth.sum() / n
    perfect = truth.astype(np.float64)
    report = compute_report(truth, truth, perfect)
    assert (report.auroc, report.auprc) == (1.0, 1.0)
    for seed in (0, 2, 5):
        permuted = np.random.default_rng(seed).permutation(
            np.arange(n, dtype=np.float64)
        )
        report = compute_report(truth, truth, permuted)
        assert abs(report.auroc - 0.5) <= 0.02
        assert abs(report.auprc - base_rate) <= 0.03


def test_c11_run_is_byte_deterministic(tmp_path):
    """`run` with identical config and seeds emits byte-identical
    results payloads."""
    config = {
        "synthetic": [{
            "n_train": 200, "n_test": 200, "m": 2, "period": [20.0, 30.0],
            "noise_sigma": 0.1, "seed": 5, "entity_id": "syn",
            "anomalies": [
                {"start": 60, "length": 10, "kind": "spike",
                 "channels": [0], "magnitude": 1.0},
            ],
        }],
        "window": {"length": 8, "step": 2},
        "model": {"kind": "uae", "max_epochs": 15},
        "scoring": {"kind": "gauss_d", "window": 16},
        "threshold": {"method": "top_k"},
        "seeds": [1, 2],
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    payloads = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        payloads.append((out / "results.json").read_bytes())
    assert payloads[0] == payloads[1]
