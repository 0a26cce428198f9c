import math
import tracemalloc

import numpy as np
import pytest

from tsadkit.core import ConfigError, ValidationError
from tsadkit.metrics import compute_report
from tsadkit.thresholding import (
    ThresholdResult,
    threshold_best_f,
    threshold_tail_p,
    threshold_top_k,
)
from reference import best_f_exhaustive, f1_naive, fc1_naive, fpa1_naive


def random_pair(rng, n_max=64):
    n = int(rng.integers(1, n_max + 1))
    scores = np.round(rng.random(n) * 4, 1)  # coarse grid forces ties
    truth = (rng.random(n) < 0.3).astype(np.int64)
    return scores, truth


class TestTopK:
    def test_sort_example(self):
        result = threshold_top_k(np.array([3.0, 1.0, 2.0]), 2)
        assert list(result.predictions) == [1, 0, 1]
        assert result.threshold == 2.0

    def test_signed_zero_threshold_is_the_last_point_taken(self):
        # 0.0 and -0.0 tie; earlier points are taken first, and the
        # threshold is the score of the last one taken, sign included
        scores = np.array([0.0, -0.0, 1.0])
        assert math.copysign(1.0, threshold_top_k(scores, 2).threshold) == 1.0
        assert math.copysign(1.0, threshold_top_k(scores, 3).threshold) == -1.0

    def test_result_keeps_the_vector_it_is_given(self):
        given = np.array([0, 1], dtype=np.int64)
        assert ThresholdResult(1.0, given, "top_k", {"k": 1}).predictions is given

    def test_k_zero(self):
        result = threshold_top_k(np.array([1.0, 2.0]), 0)
        assert result.predictions.sum() == 0
        assert math.isinf(result.threshold)

    def test_tie_prefers_earlier_points(self):
        result = threshold_top_k(np.full(4, 7.0), 2)
        assert list(result.predictions) == [1, 1, 0, 0]

    def test_k_bounds(self):
        with pytest.raises(ValidationError):
            threshold_top_k(np.array([1.0]), 2)
        with pytest.raises(ValidationError):
            threshold_top_k(np.array([1.0]), -1)

    def test_exact_count_random(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            scores, _ = random_pair(rng)
            k = int(rng.integers(0, len(scores) + 1))
            result = threshold_top_k(scores, k)
            assert int(result.predictions.sum()) == k

    def test_positives_are_top_scores(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            scores, _ = random_pair(rng)
            k = int(rng.integers(0, len(scores) + 1))
            pred = threshold_top_k(scores, k).predictions
            if 0 < k < len(scores):
                assert scores[pred == 1].min() >= scores[pred == 0].max()


class TestTailP:
    def test_formula(self):
        result = threshold_tail_p(np.zeros(5), 51, 3)
        assert result.threshold == 153.0

    def test_single_channel(self):
        result = threshold_tail_p(np.zeros(3), 1, 4)
        assert result.threshold == 4.0

    def test_background_score_stays_negative(self):
        # all-z=0 Gauss stream sits at m*0.30103, below m*1
        m = 7
        scores = np.full(50, m * -math.log10(0.5))
        result = threshold_tail_p(scores, m, 1)
        assert result.predictions.sum() == 0

    def test_ge_rule_at_threshold(self):
        result = threshold_tail_p(np.array([2.0, 1.99]), 1, 2)
        assert list(result.predictions) == [1, 0]

    def test_validation(self):
        with pytest.raises(ValidationError):
            threshold_tail_p(np.zeros(3), 1, 0)
        with pytest.raises(ValidationError):
            threshold_tail_p(np.zeros(3), 0, 1)

    @pytest.mark.parametrize("eps", [2**53 + 1, 10**308, 10**400, math.inf, math.nan])
    def test_eps_past_exact_float64_rejected(self, eps):
        # the cut m * eps is formed in float64, which holds every integer
        # only up to 2**53; m * 10**308 and 10**400 overflow it
        message = r"neg_log_eps must be an integer in 1\.\.2\*\*53"
        with pytest.raises(ValidationError, match=message):
            threshold_tail_p(np.zeros(3), 2, eps)

    def test_largest_eps_predicts_nothing(self):
        result = threshold_tail_p(np.full(3, 15.2), 2, 2**53)
        assert result.threshold == 2.0**54
        assert result.predictions.sum() == 0


class TestBestF:
    def test_separable_example(self):
        result = threshold_best_f(np.array([0.1, 0.9]), np.array([0, 1]), "f1")
        assert result.threshold == 0.9
        assert result.metadata["value"] == 1.0

    def test_all_zero_truth(self):
        result = threshold_best_f(np.array([0.5, 0.2]), np.array([0, 0]), "f1")
        assert math.isinf(result.threshold)
        assert result.predictions.sum() == 0
        assert result.metadata["value"] == 0.0

    def test_empty_scores_rejected(self):
        with pytest.raises(ValidationError):
            threshold_best_f(np.array([]), np.array([]), "f1")

    def test_unknown_metric(self):
        with pytest.raises(ConfigError):
            threshold_best_f(np.array([1.0]), np.array([1]), "f2")

    @pytest.mark.parametrize("metric,oracle", [
        ("f1", f1_naive), ("fpa1", fpa1_naive), ("fc1", fc1_naive),
    ])
    def test_matches_exhaustive_sweep(self, metric, oracle):
        rng = np.random.default_rng(17)
        for _ in range(120):
            scores, truth = random_pair(rng, n_max=40)
            result = threshold_best_f(scores, truth, metric)
            th_ref, val_ref = best_f_exhaustive(scores, truth, metric)
            assert result.metadata["value"] == pytest.approx(val_ref, abs=1e-12)
            assert result.threshold == th_ref
            pred = (scores >= result.threshold).astype(np.int64)
            assert oracle(pred, truth) == pytest.approx(result.metadata["value"])

    def test_dominance_over_all_candidates(self):
        rng = np.random.default_rng(23)
        for metric, oracle in (("f1", f1_naive), ("fc1", fc1_naive)):
            for _ in range(40):
                scores, truth = random_pair(rng, n_max=30)
                best = threshold_best_f(scores, truth, metric).metadata["value"]
                for th in np.unique(scores):
                    pred = (scores >= th).astype(np.int64)
                    assert best >= oracle(pred, truth) - 1e-12

    def test_tie_breaks_toward_larger_threshold(self):
        # both candidates score F1=0: the +inf candidate must win
        scores = np.array([1.0, 2.0])
        truth = np.array([0, 0])
        assert math.isinf(threshold_best_f(scores, truth, "f1").threshold)

    def test_monotone_threshold_property(self):
        rng = np.random.default_rng(29)
        scores, _ = random_pair(rng, n_max=50)
        order = np.argsort(scores)
        prev = np.ones(len(scores), dtype=np.int64)
        for th in np.sort(np.unique(scores)):
            pred = (scores >= th).astype(np.int64)
            assert np.all(pred <= prev)
            prev = pred

    def test_reported_value_matches_recomputation(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            scores, truth = random_pair(rng)
            result = threshold_best_f(scores, truth, "fc1")
            report = compute_report(result.predictions, truth)
            assert report.fc1 == pytest.approx(result.metadata["value"], abs=1e-12)


def test_threshold_memory_per_row():
    """At 100,000 rows with 200 events, tail_p holds its >= mask and the
    int64 prediction it hands over, ~1.13 floats per row. best_f's sweep
    holds the cut values, the F-score pair and f once it frees its per-cut
    counts, after a peak of 7 floats per row for f1 and fpa1 and 8 for fc1,
    whose denominator takes two products."""
    n = 100_000
    rng = np.random.default_rng(0)
    scores = rng.random(n) * 10
    truth = np.zeros(n, dtype=np.int64)
    for a in np.sort(rng.choice(n // 200, n // 500, replace=False)) * 200:
        truth[a : a + 50] = 1

    def floats_per_row(threshold):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            threshold()
            return (tracemalloc.get_traced_memory()[1] - start) / (8 * n)
        finally:
            tracemalloc.stop()

    assert floats_per_row(lambda: threshold_tail_p(scores, 1, 5)) <= 1.25
    for metric in ("f1", "fpa1", "fc1"):
        assert floats_per_row(lambda: threshold_best_f(scores, truth, metric)) <= 8.5, metric
