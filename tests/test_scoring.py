import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from tsadkit import scoring
from tsadkit.core import InsufficientDataError, ValidationError
from tsadkit.experiment import (
    _evaluate_cell,
    _fit_cell,
    _gauss_d_blocks,
    _smoothed_blocks,
    config_from_dict,
)
from tsadkit.ingest import generate_synthetic
from tsadkit.scoring import (
    SIGMA_FLOOR,
    GaussParams,
    KernelSpec,
    fit_gauss,
    last_rows,
    score_error,
    score_gauss_d,
    score_gauss_d_k,
    score_gauss_s,
    row_blocks,
)
from reference import convolve_edge, gauss_nls, rolling_mean_std


def col(*values):
    return np.asarray(values, dtype=np.float64).reshape(-1, 1)


class TestScoreError:
    def test_zero_when_errors_match_train_mean(self):
        err = np.full((4, 3), 0.2)
        channels, out = score_error(err, np.full(3, 0.2))
        assert np.abs(out).max() == 0.0
        assert np.abs(channels).max() == 0.0

    def test_single_channel_identity(self):
        _, out = score_error(col(3.5), np.array([0.5]))
        assert out[0] == pytest.approx(3.0)

    def test_two_channel_rms(self):
        err = np.array([[3.0, 4.0]])
        _, out = score_error(err, np.zeros(2))
        assert out[0] == pytest.approx(math.sqrt(12.5))

    def test_scored_subset(self):
        err = np.array([[3.0, 100.0]])
        channels, out = score_error(err, np.zeros(2), scored=np.array([0]))
        assert out[0] == pytest.approx(3.0)
        assert channels.tolist() == [[9.0, 10000.0]]

    @pytest.mark.parametrize("scored", [None, [2], [0, 3], [3, 1, 2]])
    def test_channels_are_squared_centered_errors(self, scored):
        rng = np.random.default_rng(4)
        # more rows than one block of the series sums
        err = rng.normal(size=(scoring._BLOCK + 7, 4))
        mean = rng.normal(size=4)
        channels, series = score_error(err, mean, scored=scored)
        # every channel, scored or not, is the squared centered error
        np.testing.assert_array_equal(channels, (err - mean) * (err - mean))
        # the series is the root of their row mean over the scored set
        idx = sorted(scored) if scored is not None else list(range(4))
        centered = err[:, idx] - mean[idx]
        np.testing.assert_array_equal(series, np.sqrt(np.mean(centered * centered, axis=1)))

    def test_empty_scored_rejected(self):
        with pytest.raises(ValidationError):
            score_error(col(1.0), np.zeros(1), scored=np.array([], dtype=int))


class TestFitGauss:
    def test_degenerate_variance_floored(self):
        params = fit_gauss(col(0.0, 0.0, 0.0))
        assert params.mu[0] == 0.0
        assert params.sigma[0] == SIGMA_FLOOR

    def test_sample_std_denominator(self):
        params = fit_gauss(col(1.0, 3.0))
        assert params.mu[0] == pytest.approx(2.0)
        assert params.sigma[0] == pytest.approx(math.sqrt(2.0))

    def test_channels_independent(self):
        err = np.array([[0.0, 10.0], [2.0, 30.0]])
        params = fit_gauss(err)
        assert params.mu[1] == pytest.approx(20.0)
        assert params.sigma[0] != params.sigma[1]

    def test_needs_two_rows(self):
        with pytest.raises(InsufficientDataError):
            fit_gauss(col(1.0))


class TestGaussS:
    def test_z_zero_gives_log_half(self):
        params = GaussParams(np.zeros(1), np.ones(1))
        channels, series = score_gauss_s(col(0.0), params)
        assert channels[0, 0] == pytest.approx(-math.log10(0.5))
        assert series[0] == pytest.approx(0.30103, abs=1e-5)

    def test_deep_left_tail_is_zero(self):
        params = GaussParams(np.zeros(1), np.ones(1))
        channels, _ = score_gauss_s(col(-8.0), params)
        assert channels[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_z_three_reference_value(self):
        params = GaussParams(np.zeros(1), np.ones(1))
        channels, _ = score_gauss_s(col(3.0), params)
        assert channels[0, 0] == pytest.approx(2.8697, abs=2e-4)
        assert channels[0, 0] == pytest.approx(gauss_nls(3.0), rel=1e-10)

    def test_clamp_bounds_scores(self):
        params = GaussParams(np.zeros(1), np.ones(1))
        channels, _ = score_gauss_s(col(500.0), params)
        cap = -special.log_ndtr(-8.0) / math.log(10)
        assert channels[0, 0] == pytest.approx(cap)
        assert channels[0, 0] < 15.5

    def test_monotone_in_error(self):
        params = GaussParams(np.zeros(1), np.ones(1))
        errs = np.sort(np.random.default_rng(0).normal(size=50) * 5)
        channels, _ = score_gauss_s(errs.reshape(-1, 1), params)
        assert np.all(np.diff(channels[:, 0]) >= 0)

    def test_matches_oracle_within_clamp(self):
        rng = np.random.default_rng(1)
        params = GaussParams(np.array([0.3]), np.array([1.7]))
        for _ in range(100):
            e = float(rng.normal() * 5)
            z = (e - 0.3) / 1.7
            channels, _ = score_gauss_s(col(e), params)
            assert channels[0, 0] == pytest.approx(gauss_nls(np.clip(z, -8, 8)), rel=1e-9)

    def test_aggregation_is_channel_sum(self):
        rng = np.random.default_rng(2)
        err = rng.normal(size=(20, 4))
        params = fit_gauss(rng.normal(size=(50, 4)))
        channels, series = score_gauss_s(err, params)
        assert np.allclose(series, channels.sum(axis=1))
        s01 = score_gauss_s(err, params, scored=np.array([0, 1]))[1]
        s23 = score_gauss_s(err, params, scored=np.array([2, 3]))[1]
        assert np.allclose(series, s01 + s23)


class TestGaussD:
    def test_constant_stream(self):
        tail = np.full((9, 1), 0.7)
        test = np.full((30, 1), 0.7)
        _, series = score_gauss_d(test, tail, 10)
        assert np.allclose(series, -math.log10(0.5), atol=1e-12)

    def test_rolling_example_w3(self):
        # window [1, 1, 4] at the last point: mean 2, sample std sqrt(3)
        tail = col(1.0, 1.0)
        test = col(4.0)
        channels, _ = score_gauss_d(test, tail, 3)
        z = (4.0 - 2.0) / math.sqrt(3.0)
        assert channels[0, 0] == pytest.approx(gauss_nls(z), rel=1e-9)

    def test_matches_slicing_oracle(self):
        rng = np.random.default_rng(4)
        for w in (2, 3, 7, 16):
            tail = rng.normal(size=(w - 1, 2))
            test = rng.normal(size=(40, 2))
            channels, _ = score_gauss_d(test, tail, w)
            stream = np.vstack([tail, test])
            for t in range(40):
                for i in range(2):
                    mu, sd = rolling_mean_std(stream[:, i], w, t + w - 1)
                    sd = max(sd, SIGMA_FLOOR)
                    z = np.clip((test[t, i] - mu) / sd, -8, 8)
                    assert channels[t, i] == pytest.approx(gauss_nls(z), rel=1e-8)

    def test_short_tail_shrinks_window(self):
        # no tail at all: the first point has a single-sample window, z=0
        test = col(5.0, 5.0, 9.0)
        channels, _ = score_gauss_d(test, np.zeros((0, 1)), 10)
        assert channels[0, 0] == pytest.approx(-math.log10(0.5))
        stream = test[:, 0]
        for t in (1, 2):
            mu, sd = rolling_mean_std(stream, 10, t)
            z = np.clip((stream[t] - mu) / max(sd, SIGMA_FLOOR), -8, 8)
            assert channels[t, 0] == pytest.approx(gauss_nls(z), rel=1e-9)

    def test_drift_bounded_under_dynamic_scoring(self):
        # linear drift: static scores run away, dynamic ones stay bounded
        n = 4000
        drift = np.linspace(0, 50, n).reshape(-1, 1)
        rng = np.random.default_rng(5)
        noise = rng.normal(scale=0.1, size=(n, 1))
        err = drift + noise
        train = err[:1000]
        test = err[1000:]
        params = fit_gauss(train)
        _, static = score_gauss_s(test, params)
        _, dynamic = score_gauss_d(test, train[-199:], 200)
        assert static[-100:].mean() > 10.0  # pinned at the clamp cap
        assert dynamic[-100:].mean() < 2.0

    def test_window_validation(self):
        with pytest.raises(ValidationError, match="dynamic window must be >= 2, got 1"):
            score_gauss_d(np.zeros((3, 1)), None, 1)


class TestGaussDK:
    def test_unit_sum_kernel_preserves_constants(self):
        channels = np.full((50, 2), 3.3)
        out, series = score_gauss_d_k(channels, KernelSpec(2.0))
        assert np.allclose(out, 3.3)
        assert np.allclose(series, 6.6)

    def test_impulse_peak_equals_center_weight(self):
        channels = np.zeros((41, 1))
        channels[20, 0] = 1.0
        out, _ = score_gauss_d_k(channels, KernelSpec(1.0))
        weights = KernelSpec(1.0).weights()
        assert len(weights) == 7
        # normalized center tap of the 7-point kernel
        expected = 1.0 / (1 + 2 * (np.exp(-0.5) + np.exp(-2.0) + np.exp(-4.5)))
        assert weights[3] == pytest.approx(expected, rel=1e-12)
        assert out[20, 0] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.39905, abs=1e-5)

    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(6)
        channels = rng.random((60, 3)) * 4
        kernel = KernelSpec(1.7)
        out, _ = score_gauss_d_k(channels, kernel)
        for i in range(3):
            ref = convolve_edge(channels[:, i], kernel.weights())
            assert np.allclose(out[:, i], ref, atol=1e-12)

    def test_tiny_sigma_is_identity(self):
        rng = np.random.default_rng(7)
        channels = rng.random((30, 2))
        out, _ = score_gauss_d_k(channels, KernelSpec(1e-9))
        assert np.array_equal(out, channels)

    @pytest.mark.parametrize("sigma", [1e-160, 1e-300])
    def test_sigma_past_the_square_overflow_is_one_hot(self, sigma):
        # (u / sigma_k) ** 2 overflows to inf off the centre, and exp(-inf) = 0
        # is the one-hot limit the kernel tends to, reached with no warning
        assert KernelSpec(sigma).weights().tolist() == [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]

    def test_two_spikes_amplify_between(self):
        # spikes 2*sigma_k apart: smoothing pools mass at the midpoint
        sigma = 2.0
        channels = np.zeros((60, 2))
        channels[28, 0] = 1.0
        channels[32, 1] = 1.0
        out, series = score_gauss_d_k(channels, KernelSpec(sigma))
        assert series[30] > channels[30, 0] + channels[30, 1]

    def test_kernel_validation(self):
        with pytest.raises(ValidationError):
            KernelSpec(0.0)


class TestGaussDConvergesToGaussS:
    def test_saturated_window_equals_static(self):
        # periodic residuals: every full window holds the same multiset of
        # values as the training residuals, so rolling stats equal the
        # static fit exactly
        period = 5
        base = np.array([0.3, -0.8, 1.1, 0.05, -0.4])
        train = np.tile(base, 40).reshape(-1, 1)  # n1 = 200
        w = train.shape[0]
        test = np.tile(base, 12).reshape(-1, 1)
        params = fit_gauss(train)
        _, static = score_gauss_s(test, params)
        _, dynamic = score_gauss_d(test, train[-(w - 1) :], w)
        assert np.allclose(dynamic, static, atol=1e-6)


def oracle_gauss_d(stream, w, rows):
    """gauss_d channel scores of a 1-D stream at the given stream rows, from
    a two-pass mean and sample std of each window."""
    out = []
    for t in rows:
        mu, sd = rolling_mean_std(stream, w, t)
        z = 0.0 if min(w, t + 1) < 2 else (stream[t] - mu) / max(sd, SIGMA_FLOOR)
        out.append(gauss_nls(np.clip(z, -8, 8)))
    return np.array(out)


# Largest |score - oracle| allowed on a channel score, which spans 0..15.2.
ORACLE_TOL = 1e-3


class TestGaussDOffsets:
    """Rolling statistics from prefix sums lose digits when the stream sits
    far from its centering point; each block is centered on its own mean."""

    @pytest.mark.parametrize("offset", [0.0, 5.0, 100.0, 1e4])
    def test_constant_offset_matches_oracle(self, offset):
        rng = np.random.default_rng(11)
        w, n = 200, 5000
        stream = offset + 1e-3 * rng.normal(size=n)
        channels, _ = score_gauss_d(
            stream[w - 1 :, None], stream[: w - 1, None], w
        )
        rows = np.arange(0, n - w + 1, 7)
        expected = oracle_gauss_d(stream, w, rows + w - 1)
        assert np.abs(channels[rows, 0] - expected).max() < ORACLE_TOL

    def test_level_shift_on_a_long_stream_matches_oracle(self):
        # one prefix sum over the whole stream is off by ~0.03 here; it
        # also shows at rows far from the shift
        rng = np.random.default_rng(0)
        w, n = 1000, 1_000_000
        stream = 1e-3 * rng.normal(size=n)
        stream[n // 2 :] += 100.0
        channels, _ = score_gauss_d(
            stream[w - 1 :, None], stream[: w - 1, None], w
        )
        top = np.argsort(channels[:, 0])[-200:]
        rows = np.union1d(np.arange(0, n - w + 1, 997), top)
        expected = oracle_gauss_d(stream, w, rows + w - 1)
        assert np.abs(channels[rows, 0] - expected).max() < ORACLE_TOL

    def test_quiet_windows_are_summed_again(self):
        # after a shift of 1e4 over 1e-3 noise, each window's spread is
        # ~1e-14 of its row's prefix sum of squares: subtracting two prefix
        # sums would leave none of its digits
        rng = np.random.default_rng(0)
        w, n = 1000, 40_000
        stream = 1e-3 * rng.normal(size=n)
        stream[n // 2 :] += 1e4
        channels, _ = score_gauss_d(stream[w - 1 :, None], stream[: w - 1, None], w)
        rows = np.arange(0, n - w + 1, 97)
        expected = oracle_gauss_d(stream, w, rows + w - 1)
        assert np.abs(channels[rows, 0] - expected).max() < 1e-6

    def test_close_pair_scores_alike_in_any_block(self):
        # W = 2 over two errors 3.3e-4 apart among unit-spread ones: the
        # spread of that window is ~1e-9 of the stream's sum of squares
        rng = np.random.default_rng(5)
        err = rng.normal(size=(60, 1))
        err[-1] = err[-2] + 3.3e-4
        whole, _ = score_gauss_d(err[1:], err[:1], 2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scoring, "_BLOCK", 1)
            blocked, _ = score_gauss_d(err[1:], err[:1], 2)
        assert np.abs(blocked - whole).max() < BLOCKING_TOL


@st.composite
def blocked_cases(draw):
    """(test, tail, w, block, scored): tails from none to longer than W-1,
    blocks of 1, 7, W-1, W and W+1 rows, W above and below the block."""
    w = draw(st.integers(2, 30))
    n = draw(st.integers(1, 60))
    m = draw(st.integers(1, 3))
    tail_len = draw(st.integers(0, w + 2))
    block = draw(st.sampled_from([1, 7, w - 1, w, w + 1]))
    offset = draw(st.sampled_from([0.0, 5.0, 100.0]))
    scored = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = offset + rng.normal(size=(tail_len + n, m))
    return values[tail_len:], values[:tail_len], w, block, sorted(scored)


# the blocks center on other means than the one whole-stream chunk, so the
# scores agree to rounding only
BLOCKING_TOL = 1e-9


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(blocked_cases())
def test_blocks_equal_one_block(case):
    test, tail, w, block, scored = case
    whole, _ = score_gauss_d(test, tail, w, scored)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scoring, "_BLOCK", block)
        channels, series = score_gauss_d(test, tail, w, scored)
        smoothed, smoothed_series = score_gauss_d_k(channels, KernelSpec(1.5), scored)
    assert np.abs(channels - whole).max() < BLOCKING_TOL
    assert np.array_equal(series, channels[:, scored].sum(axis=1))
    assert np.array_equal(smoothed_series, smoothed[:, scored].sum(axis=1))


@pytest.mark.parametrize("step", [1, 3, 100])
def test_steps_within_a_block_move_no_bit(step):
    """gauss_d's window statistics and survival of a row read only that
    row's prefix sums, so how many rows a step takes moves no score."""
    rng = np.random.default_rng(8)
    err = rng.normal(size=(3 * 512 + 5, 3))
    err[700:760, 1] += 6.0
    tail = rng.normal(size=(99, 3))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scoring, "_BLOCK", 512)
        whole = score_gauss_d(err, tail, 100)
        mp.setattr(scoring, "_STEP", step)
        stepped = score_gauss_d(err, tail, 100)
    assert np.array_equal(stepped[0], whole[0])
    assert np.array_equal(stepped[1], whole[1])


def test_scoring_memory_is_bounded_by_the_block():
    """Only the outputs are full length: the traced peak of gauss_d is
    under its outputs plus 3 blocks of m channels, that of gauss_d_k under
    its outputs plus 16. gauss_d writes, centers and sums each block's
    errors in its two prefix sums, ~2 blocks, and its steps' temporaries
    take ~0.6 (~2.6 in all; a centered copy of the block made it ~3.6);
    gauss_d_k's per-column convolution holds one padded column and its
    result, 2n floats, ~5 here."""
    n, m, w = 1 << 18, 4, 500
    rng = np.random.default_rng(3)
    err = rng.normal(size=(n, m))
    tail = rng.normal(size=(w - 1, m))
    block_bytes = scoring._BLOCK * m * 8
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        channels, series = score_gauss_d(err, tail, w)
        d_peak = tracemalloc.get_traced_memory()[1] - start
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        smoothed, smoothed_series = score_gauss_d_k(channels, KernelSpec(2.0))
        dk_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    outputs = channels.nbytes + series.nbytes
    assert smoothed.nbytes + smoothed_series.nbytes == outputs
    assert d_peak < outputs + 3 * block_bytes
    assert dk_peak < outputs + 16 * block_bytes


@pytest.mark.parametrize("block", [7, scoring._BLOCK])
def test_row_sums_add_the_scored_channels_in_index_order(block):
    """Each row's series value is 0.0 plus its scored channels one at a
    time in index order, for one row as for many and across blocks. A
    C-ordered gather of the scored channels, which numpy sums pairwise in
    rows of 8 or more values, moves the last bits."""
    rng = np.random.default_rng(11)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scoring, "_BLOCK", block)
        for _ in range(200):
            n, m = int(rng.integers(1, 40)), int(rng.integers(1, 30))
            channels = rng.normal(size=(n, m)) * 10.0 ** rng.integers(-4, 5, size=(n, m))
            idx = np.sort(rng.choice(m, int(rng.integers(1, m + 1)), replace=False))
            expected = np.zeros(n)
            for i in idx:
                expected = expected + channels[:, i]
            assert scoring._row_sums(channels, idx).tobytes() == expected.tobytes()


def test_gauss_d_allocates_by_the_rows_it_can_reach():
    """A window longer than the tail and the test rows together sizes the
    prefix sums by those rows, not by W: W = 10**12 scores as the shortest
    window that reaches every row, W = 251 here."""
    rng = np.random.default_rng(4)
    err, tail = rng.normal(size=(200, 3)), rng.normal(size=(50, 3))
    huge = score_gauss_d(err, tail, 10**12)
    reach = score_gauss_d(err, tail, 251)
    assert huge[0].tobytes() == reach[0].tobytes()
    assert huge[1].tobytes() == reach[1].tobytes()


def test_rows_padded_to_their_summed_length_keep_the_full_rows_bits():
    """A row of W entries whose first z are +0.0 sums, with numpy's
    pairwise sum, to the bits of its last ``_padded_lengths`` entries: the
    length left once every all-zero left half is dropped. Rows of -0.0,
    zeros within the data and mixed magnitudes included."""
    rng = np.random.default_rng(21)
    for _ in range(200):
        w = int(rng.choice([rng.integers(2, 129), rng.integers(129, 3000),
                            rng.integers(3000, 40_000)]))
        lengths, drops = scoring._padded_lengths(w)
        rows = np.zeros((20, w))
        padded = []
        for row in rows:
            reach = int(rng.integers(1, w + 1))
            kind = rng.integers(0, 3)
            if kind == 0:
                row[w - reach :] = rng.normal(size=reach) * 10.0 ** rng.integers(-8, 9, size=reach)
            elif kind == 1:
                row[w - reach :] = -0.0
            else:
                row[w - reach :] = rng.integers(-1, 2, size=reach) * rng.random(reach)
            dropped = int(np.searchsorted(drops[1:], w - reach, "right"))
            assert lengths[dropped] >= reach
            assert lengths[dropped] <= max(2 * reach + 16, 128)
            padded.append(row[w - lengths[dropped] :])
        full = rows.sum(axis=1)
        for row, total in zip(padded, full):
            assert row[None, :].sum(axis=1).tobytes() == total[None].tobytes()


def _shifted_start():
    # a level shift of 1000 on the first 100 of 2,000 rows: the windows
    # after it lose their digits and are summed again, with no tail
    rng = np.random.default_rng(0)
    err = rng.normal(size=(2000, 2))
    err[:100] += 1000.0
    return err


def test_windows_summed_again_cost_the_rows_they_reach_not_w():
    """W = 10**6 over 2,000 rows sums the lost windows again from the rows
    they reach: gathering W entries per window traced ~40 MB here."""
    err = _shifted_start()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        channels, series = score_gauss_d(err, None, 10**6)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_lost_windows_longer_than_memory_score_as_any_window_past_the_stream():
    """W = 10**9 (8 GB of indices per window at full length) gives the
    W = 10**6 scores: both pad each lost window to the same summed length."""
    err = _shifted_start()
    calls = []

    def sum_again(*args):
        calls.append(args[1].shape[0])
        return summed_again(*args)

    summed_again = scoring._sum_again
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scoring, "_sum_again", sum_again)
        million = score_gauss_d(err, None, 10**6)
        assert calls
        billion = score_gauss_d(err, None, 10**9)
    assert billion[0].tobytes() == million[0].tobytes()
    assert billion[1].tobytes() == million[1].tobytes()


@pytest.mark.parametrize("n", [1, 5, scoring._BLOCK - 1, scoring._BLOCK, scoring._BLOCK + 1,
                               2 * scoring._BLOCK + 1, 3 * scoring._BLOCK - 1])
def test_row_blocks_tile_the_grid(n):
    blocks = list(row_blocks(n))
    assert [a for a, _ in blocks] == list(range(0, max(n - scoring._BLOCK, 0) + 1, scoring._BLOCK))
    assert blocks[-1][1] == n
    assert all(b == a2 for (_, b), (a2, _) in zip(blocks, blocks[1:]))
    # the rows after the last full block join it
    assert all(b - a >= min(n, scoring._BLOCK) for a, b in blocks)


@pytest.mark.parametrize("before_rows, block_rows, k", [
    (0, 5, 3), (2, 5, 3), (7, 5, 3), (7, 2, 4), (1, 2, 4), (7, 5, 0), (0, 0, 2),
])
def test_last_rows_carries_the_rows_before_the_next_block(before_rows, block_rows, k):
    rng = np.random.default_rng(before_rows * 10 + block_rows)
    before, block = rng.normal(size=(before_rows, 3)), rng.normal(size=(block_rows, 3))
    carried = last_rows(before, block, k)
    joined = np.concatenate([before, block])
    assert carried.tobytes() == joined[joined.shape[0] - min(k, joined.shape[0]) :].tobytes()
    assert carried.shape[1] == 3
    assert not np.shares_memory(carried, before) and not np.shares_memory(carried, block)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(blocked_cases())
def test_carried_gauss_d_equals_the_whole_stream(case):
    # pieces on the block grid, each with the W-1 error rows before it
    # carried over, give the whole-stream bytes
    test, tail, w, block, scored = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scoring, "_BLOCK", block)
        whole, whole_series = score_gauss_d(test, tail, w, scored)
        pieces = [(a, b, test[a:b]) for a, b in row_blocks(test.shape[0])]
        out = list(_gauss_d_blocks(iter(pieces), tail, w, scored))
    assert np.concatenate([rows for _, _, rows, _ in out]).tobytes() == whole.tobytes()
    assert np.concatenate([part for *_, part in out]).tobytes() == whole_series.tobytes()


@st.composite
def shift_after_a_boundary(draw):
    """(test, tail, w, block): 1e-3 noise whose channel c shifts by 1e4
    from 1 to W - 1 rows after a block boundary to the end. The first
    windows of that block lie before the shift, so each reaches back into
    the rows carried over, and the block's mean puts them far from it:
    their spread is lost in the prefix sums and summed again."""
    block = draw(st.sampled_from([16, 40, 64]))
    w = draw(st.integers(2, block))
    m = draw(st.integers(1, 3))
    full = draw(st.integers(2, 4))
    n = full * block + draw(st.integers(0, block - 1))
    shift = draw(st.integers(1, full - 1)) * block + draw(st.integers(1, w - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = 1e-3 * rng.normal(size=(w - 1 + n, m))
    values[w - 1 + shift :, draw(st.integers(0, m - 1))] += 1e4
    return values[w - 1 :], values[: w - 1], w, block


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(shift_after_a_boundary())
def test_windows_summed_again_over_the_carried_rows_keep_their_bits(case):
    # a lost window that starts in the carried rows is summed again from
    # the carry and the block; whole and in carried pieces, it scores alike
    test, tail, w, block = case
    reaches_back = []

    def sum_again(stream, end, w, lost, mu, q):
        # every block carries W - 1 rows here: the tail or the rows before it
        reaches_back.append(bool((end[np.nonzero(lost)[0]] - w < w - 1).any()))
        return summed_again(stream, end, w, lost, mu, q)

    summed_again = scoring._sum_again
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scoring, "_BLOCK", block)
        mp.setattr(scoring, "_sum_again", sum_again)
        whole, whole_series = score_gauss_d(test, tail, w)
        assert any(reaches_back)
        history, pieces = tail, []
        for a, b in row_blocks(test.shape[0]):
            pieces.append(score_gauss_d(test[a:b], history, w))
            history = last_rows(history, test[a:b], w - 1)
    assert np.concatenate([rows for rows, _ in pieces]).tobytes() == whole.tobytes()
    assert np.concatenate([part for _, part in pieces]).tobytes() == whole_series.tobytes()


@st.composite
def smoothing_cases(draw):
    """gauss_d-like channels, a kernel and a block size: streams shorter
    than one block and than the kernel, radii wider than a block."""
    sigma = draw(st.sampled_from([0.3, 1.0, 1.5, 2.0, 4.5, 9.0]))
    block = draw(st.integers(1, 40))
    n = draw(st.integers(1, 160))
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.random((n, m)) * 15.0, KernelSpec(sigma), block


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(smoothing_cases())
def test_carried_smoothing_equals_the_whole_stream(case):
    channels, kernel, block = case
    n, m = channels.shape
    scored = list(range(0, m, 2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scoring, "_BLOCK", block)
        pieces = [(a, b, channels[a:b], None) for a, b in row_blocks(n)]
        out = list(_smoothed_blocks(iter(pieces), kernel, scored, n))
    # every row once, in order
    assert [lo for lo, *_ in out] == [0] + [hi for _, hi, *_ in out[:-1]]
    assert out[-1][1] == n
    smoothed = np.concatenate([rows for _, _, rows, _ in out])
    series = np.concatenate([part for *_, part in out])
    whole, whole_series = score_gauss_d_k(channels, kernel, scored)
    assert smoothed.tobytes() == whole.tobytes()
    assert series.tobytes() == whole_series.tobytes()
    weights, r = kernel.weights(), kernel.radius
    for i in range(m):
        padded = np.pad(channels[:, i], r, mode="edge")
        assert smoothed[:, i].tobytes() == np.convolve(padded, weights, mode="valid").tobytes()
        ref = convolve_edge(channels[:, i], weights)
        if len(weights) <= 7:
            # the dot under np.convolve sums a short kernel in order, as the
            # oracle does; from 13 taps on it sums in lanes and rounds apart
            assert smoothed[:, i].tobytes() == ref.tobytes()
        else:
            assert np.abs(smoothed[:, i] - ref).max() <= 1e-12


def test_carried_smoothing_on_the_real_grid():
    # long_stream's kernel on full blocks, the last one taking 5 extra rows
    n = 2 * scoring._BLOCK + 5
    rng = np.random.default_rng(12)
    channels = rng.random((n, 4)) * 15.0
    kernel = KernelSpec(2.0)
    pieces = [(a, b, channels[a:b], None) for a, b in row_blocks(n)]
    out = list(_smoothed_blocks(iter(pieces), kernel, None, n))
    assert [(lo, hi) for lo, hi, *_ in out] == [
        (0, scoring._BLOCK - kernel.radius), (scoring._BLOCK - kernel.radius, n)
    ]
    whole, whole_series = score_gauss_d_k(channels, kernel)
    assert np.concatenate([rows for _, _, rows, _ in out]).tobytes() == whole.tobytes()
    assert np.concatenate([part for *_, part in out]).tobytes() == whole_series.tobytes()


@pytest.mark.parametrize("context", [(-1, 0), (0, -1), (3, 3), (6, 0)])
def test_smoothing_context_must_leave_rows(context):
    with pytest.raises(ValidationError):
        score_gauss_d_k(np.zeros((6, 2)), KernelSpec(1.0), None, context)


def _long_cell_config(n_test: int, m: int) -> dict:
    anomalies = [
        {"start": start, "length": 12, "kind": "spike", "channels": [start % m], "magnitude": 3.0}
        for start in range(700, n_test - 20, 3000)
    ]
    return {
        "synthetic": [{
            "entity_id": "long", "n_train": 3000, "n_test": n_test, "m": m,
            "period": 30.0, "noise_sigma": 0.1, "seed": 3, "anomalies": anomalies,
        }],
        "model": {"kind": "raw"},
        "scoring": {"kind": "gauss_d_k", "window": 500, "kernel_sigma": 2.0},
        "threshold": {"method": "tail_p"},
        "diagnosis": {"enabled": True},
    }


def test_cell_memory_is_bounded_by_the_block():
    """A long raw / gauss_d_k / tail_p cell holds its entity, the (n,)
    series and the event rows, never a test-length copy of the channels.
    Over the entity, its traced peak stays under 12 floats per test row
    (the series, and the ranking temporaries of the first metric report,
    ~10 of them) plus 24 blocks of m channels (the blocks' work: ~19).
    Each test-length n x m array is 12 blocks here, and the whole-stream
    test side held three of them at once, ~48 blocks."""
    m, n_test = 16, 12 * scoring._BLOCK + 5
    config = config_from_dict(_long_cell_config(n_test, m))
    block_bytes = scoring._BLOCK * m * 8
    tracemalloc.start()
    try:
        entity = generate_synthetic(config.synthetic[0])
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        cell = _evaluate_cell(entity, 0, _fit_cell(entity, 0, config), config)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert cell["diagnosis"]["rankings"]
    assert peak < 12 * n_test * 8 + 24 * block_bytes


def test_generation_memory_is_its_output():
    """generate_synthetic builds train and test as two row-slices of one
    array: its traced peak is that array, the labels and the n x m byte
    finiteness masks of the two SeriesMatrix checks, plus under 6 floats
    per row (the time axis and one channel's sinusoid temporaries). The
    old build held the noise, the signal and a test copy, ~3 arrays."""
    m, n_test = 16, 12 * scoring._BLOCK + 5
    spec = config_from_dict(_long_cell_config(n_test, m)).synthetic[0]
    n = spec.n_train + spec.n_test
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        entity = generate_synthetic(spec)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert entity.train.values.base is entity.test.values.base
    output = n * m * 8 + entity.test_labels.nbytes
    assert peak < output + n * m + 6 * n * 8
