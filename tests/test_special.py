"""The numpy normal and chi-squared tails against scipy and exact oracles."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsadkit import _special
from tsadkit.rankstats import pairwise_rank_z
from tsadkit.scoring import Z_CLAMP

from reference import chi2_sf_decimal, chi2_sf_scipy, neg_log_normal_sf, two_sided_normal_p

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
ROOT2 = math.sqrt(2.0)
# the branch edges |x| = |z|/sqrt(2) = 1, one ulp either side, and the clamp
EDGES = [
    edge
    for z in (ROOT2, -ROOT2, Z_CLAMP, -Z_CLAMP, 0.0)
    for edge in (np.nextafter(z, -np.inf), z, np.nextafter(z, np.inf))
]


def rel_err(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return np.abs(got - want) / np.abs(want)


class TestNegLogNormalSf:
    def test_dense_grid_and_edges_match_scipy(self):
        z = np.concatenate([np.linspace(-Z_CLAMP, Z_CLAMP, 400_001), EDGES])
        assert rel_err(_special.neg_log_normal_sf(z), neg_log_normal_sf(z)).max() < 1e-13

    @PROPERTY
    @given(st.floats(-Z_CLAMP, Z_CLAMP))
    def test_random_z_matches_scipy(self, z):
        got = float(_special.neg_log_normal_sf(np.array([z]))[0])
        assert rel_err(got, neg_log_normal_sf(z)) < 1e-13

    def test_keeps_the_shape_and_propagates_nan(self):
        z = np.array([[-8.0, 0.0, np.nan], [1.0, 2.0, 8.0]])
        got = _special.neg_log_normal_sf(z)
        assert got.shape == (2, 3)
        assert np.array_equal(np.isnan(got), np.isnan(z))


class TestTwoSidedP:
    def test_dense_grid_matches_scipy_where_representable(self):
        z = np.concatenate([np.linspace(0.0, 40.0, 400_001), np.abs(EDGES), [1e3, 1e200, np.inf]])
        want = two_sided_normal_p(z)
        got = _special.erfc(z * math.sqrt(0.5))
        kept = want >= 1e-300
        assert kept.sum() > 350_000
        assert rel_err(got[kept], want[kept]).max() < 1e-12
        assert np.all(got[~kept] <= 1e-300)

    def test_p_is_one_at_zero(self):
        assert _special.erfc(np.array([0.0]))[0] == 1.0
        z, p = pairwise_rank_z(np.array([2.0, 2.0, 1.0]), 3, 10, baseline=2)
        assert p[0] == p[1] and p[2] == 1.0
        z, p = pairwise_rank_z(np.array([1.5, 1.5]), 2, 10, baseline=0)
        assert list(p) == [1.0, 1.0]


# (df, stat) across the even and odd forms, small and large df, the body
# and both tails; scipy's own gammaincc is off by up to ~1.2e-12 at
# df ~ 1000, so the pin is to the exact decimal oracle
CHI2_CASES = [
    (df, stat)
    for df in (1, 2, 3, 4, 5, 10, 11, 99, 100, 101, 499, 500, 901, 968, 999, 1000)
    for stat in (1e-8, 0.3, 0.5 * df, df - 1.0, float(df), 1.6 * df + 40.0, 2.2 * df + 300.0, 1e6)
]


@pytest.mark.parametrize("df, stat", CHI2_CASES)
def test_chi2_sf_matches_exact_oracle(df, stat):
    if chi2_sf_scipy(stat, df) < 1e-300:
        assert _special.chi2_sf(stat, df) < 1e-290
        return
    assert rel_err(_special.chi2_sf(stat, df), chi2_sf_decimal(stat, df)) < 1e-12


@settings(PROPERTY, max_examples=120)
@given(st.integers(1, 1000), st.one_of(st.floats(0.0, 1e6), st.floats(0.0, 4000.0)))
def test_chi2_sf_random_matches_exact_oracle(df, stat):
    if chi2_sf_scipy(stat, df) >= 1e-300:
        assert rel_err(_special.chi2_sf(stat, df), chi2_sf_decimal(stat, df)) < 1e-12


def test_chi2_sf_is_a_survival_for_every_df():
    stats = np.concatenate([[0.0, 5e-324, 1e-300], np.geomspace(1e-8, 1e6, 9)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for df in range(1, 1001):
            p = np.array([_special.chi2_sf(float(s), df) for s in stats])
            assert p[0] == 1.0
            assert np.all(np.isfinite(p)) and np.all((p >= 0.0) & (p <= 1.0)), df
            # non-increasing, up to one rounding where p is next to 1
            assert np.all(np.diff(p) <= np.finfo(float).eps), df
