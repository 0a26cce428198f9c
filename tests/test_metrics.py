import numpy as np
import pytest

from tsadkit.core import ValidationError
from tsadkit.metrics import compute_report, rad_scores
from reference import adjusted_naive, f1_naive, fc1_naive, fpa1_naive

TRUTH = np.array([0, 0, 1, 1, 0, 0, 1, 1, 0, 0])
PRED = np.array([0, 0, 1, 0, 0, 0, 0, 0, 1, 0])


class TestConfusion:
    def test_fixture_counts(self):
        # tp=1, fp=1, fn=3; one of the two events detected
        r = compute_report(PRED, TRUTH)
        assert (r.prec_t, r.rec_point, r.rec_e) == (0.5, 0.25, 0.5)

    def test_perfect_prediction(self):
        r = compute_report(TRUTH, TRUTH)
        assert (r.prec_t, r.rec_point, r.rec_e) == (1.0, 1.0, 1.0)

    def test_all_zero_prediction(self):
        r = compute_report(np.zeros_like(TRUTH), TRUTH)
        assert (r.prec_t, r.rec_point, r.rec_e) == (0.0, 0.0, 0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            compute_report(np.array([0, 1]), np.array([0]))


class TestFixtureScores:
    def test_f1_is_one_third(self):
        assert compute_report(PRED, TRUTH).f1 == pytest.approx(1 / 3)

    def test_fpa1_is_four_sevenths(self):
        assert compute_report(PRED, TRUTH).fpa1 == pytest.approx(4 / 7)

    def test_fc1_is_one_half(self):
        r = compute_report(PRED, TRUTH)
        assert (r.fc1, r.prec_t, r.rec_e) == (0.5, 0.5, 0.5)

    def test_adjusted_prediction_expands_detected_event(self):
        adjusted = adjusted_naive(PRED, TRUTH)
        assert adjusted == [0, 0, 1, 1, 0, 0, 0, 0, 1, 0]
        assert compute_report(PRED, TRUTH).fpa1 == f1_naive(adjusted, TRUTH)


class TestZeroConventions:
    def test_empty_everything(self):
        z = np.zeros(4, dtype=np.int64)
        r = compute_report(z, z)
        assert (r.f1, r.fpa1, r.fc1) == (0.0, 0.0, 0.0)

    def test_all_positive_prediction(self):
        truth = np.array([0, 1, 1, 0, 0])
        r = compute_report(np.ones(5, dtype=np.int64), truth)
        assert r.rec_e == 1.0
        assert r.prec_t == pytest.approx(0.4)  # anomaly fraction

    def test_full_credit_single_hit(self):
        truth = np.array([0, 1, 1, 1, 0])
        pred = np.array([0, 0, 1, 0, 0])
        assert compute_report(pred, truth).fpa1 == 1.0


class TestOracleEquivalence:
    def test_brute_force_equality_random(self):
        rng = np.random.default_rng(101)
        for _ in range(400):
            n = int(rng.integers(1, 64))
            truth = (rng.random(n) < 0.35).astype(np.int64)
            pred = (rng.random(n) < 0.25).astype(np.int64)
            r = compute_report(pred, truth)
            assert r.f1 == f1_naive(pred, truth)
            assert r.fpa1 == fpa1_naive(pred, truth)
            assert r.fc1 == fc1_naive(pred, truth)

    def test_fpa1_dominates_f1(self):
        rng = np.random.default_rng(55)
        for _ in range(200):
            n = int(rng.integers(2, 50))
            truth = (rng.random(n) < 0.4).astype(np.int64)
            pred = (rng.random(n) < 0.3).astype(np.int64)
            r = compute_report(pred, truth)
            assert r.fpa1 >= r.f1

    def test_fc1_equals_f1_on_singleton_events(self):
        rng = np.random.default_rng(56)
        for _ in range(100):
            n = int(rng.integers(3, 40))
            truth = np.zeros(n, dtype=np.int64)
            truth[::2] = (rng.random((n + 1) // 2) < 0.4).astype(np.int64)
            pred = (rng.random(n) < 0.3).astype(np.int64)
            r = compute_report(pred, truth)
            assert r.fc1 == pytest.approx(r.f1)


class TestAuroc:
    def test_perfect_separation(self):
        r = compute_report([0, 0, 1], [0, 0, 1], [1.0, 2.0, 3.0])
        assert r.auroc == 1.0

    def test_hand_example(self):
        r = compute_report([0, 1, 0, 1], [0, 1, 0, 1], [1.0, 2.0, 3.0, 4.0])
        assert r.auroc == 0.75


class TestAuprc:
    def test_perfect_ranking(self):
        r = compute_report([0, 1, 1], [0, 1, 1], [0.1, 0.9, 0.8])
        assert r.auprc == 1.0

    def test_positive_ranked_last(self):
        r = compute_report([0, 0, 0, 1], [0, 0, 0, 1], [4.0, 3.0, 2.0, 1.0])
        assert r.auprc == pytest.approx(0.25)


class TestRadScores:
    def test_deterministic_per_seed(self):
        assert np.array_equal(rad_scores(100, 3), rad_scores(100, 3))
        assert not np.array_equal(rad_scores(100, 3), rad_scores(100, 4))

    def test_unit_interval_and_mean(self):
        s = rad_scores(100_000, 0)
        assert s.min() >= 0.0 and s.max() <= 1.0
        assert s.mean() == pytest.approx(0.5, abs=0.01)


class TestComputeReport:
    def test_report_fields(self):
        scores = np.linspace(0, 1, 10)
        report = compute_report(PRED, TRUTH, scores)
        assert report.f1 == pytest.approx(1 / 3)
        assert report.fpa1 == pytest.approx(4 / 7)
        assert report.fc1 == 0.5
        assert report.auroc is not None and report.auprc is not None

    def test_ranking_metrics_skipped_without_scores(self):
        report = compute_report(PRED, TRUTH)
        assert report.auroc is None and report.auprc is None

    def test_single_class_truth_skips_ranking(self):
        truth = np.zeros(5, dtype=np.int64)
        report = compute_report(np.zeros(5, dtype=np.int64), truth, np.arange(5.0))
        assert report.auroc is None and report.auprc is None

    @pytest.mark.parametrize("truth", [[0, 0, 0], [0, 1, 0]], ids=["one_class", "two_class"])
    @pytest.mark.parametrize("scores", [[1.0], [0.0, np.nan, 1.0]], ids=["short", "nan"])
    def test_bad_scores_rejected(self, truth, scores):
        with pytest.raises(ValidationError):
            compute_report([0, 1, 0], truth, scores)
