"""Residual tests: hand counts, reference CDF values, size calibration."""

import numpy as np
import pytest

from tailseries import (
    DegenerateInputError,
    DomainError,
    RngState,
    chisq_sf,
    difference_sign_test,
    ljung_box_curve,
    normal_cdf,
    portmanteau_test,
    sample_acf,
    turning_point_test,
)

# reference values computed with mpmath at 30 digits
NORMAL_CDF_TABLE = [
    (-8.0, 6.2209605742717841e-16),
    (-5.0, 2.8665157187919391e-7),
    (-3.0, 0.0013498980316300945),
    (-2.0, 0.022750131948179207),
    (-1.0, 0.15865525393145705),
    (-0.5, 0.3085375387259869),
    (0.0, 0.5),
    (0.5, 0.6914624612740131),
    (1.0, 0.84134474606854295),
    (2.0, 0.97724986805182079),
    (3.5, 0.99976737092096447),
    (6.0, 0.99999999901341235),
]
CHISQ_CDF_TABLE = [
    (0.5, 1, 0.52049987781304654),
    (4.5, 1, 0.96610514647531073),
    (1.0, 2, 0.39346934028736658),
    (5.99, 2, 0.94996337291341372),
    (2.0, 3, 0.42759329552912017),
    (7.81, 3, 0.94989394364999406),
    (10.0, 5, 0.92476475385348782),
    (3.94, 10, 0.049986909209909281),
    (18.31, 10, 0.9500458336563033),
    (11.59, 20, 0.070534517640899645),
    (31.41, 20, 0.94999476079768483),
    (43.77, 30, 0.94996916913445586),
]


class TestReferenceCdfs:
    def test_normal_cdf_table(self):
        for x, expected in NORMAL_CDF_TABLE:
            assert normal_cdf(x) == pytest.approx(expected, abs=1e-10)

    def test_chisq_cdf_table(self):
        for x, df, expected in CHISQ_CDF_TABLE:
            assert 1.0 - chisq_sf(x, df) == pytest.approx(expected, abs=1e-10)


class TestTurningPoint:
    def test_hand_count(self):
        report = turning_point_test([1, 3, 2, 4, 3])
        assert report.statistic == 3
        # expected count 2(5-2)/3 = 2
        assert report.z_or_q == pytest.approx((3 - 2) / np.sqrt((16 * 5 - 29) / 90))

    def test_monotone_no_turns(self):
        assert turning_point_test([1, 2, 3, 4, 5]).statistic == 0

    def test_ties_not_counted(self):
        # every candidate has a tie on one side, so nothing counts
        assert turning_point_test([1, 2, 2, 1, 1, 2]).statistic == 0
        # breaking the ties restores the turns
        assert turning_point_test([1, 2, 1.9, 1, 0.9, 2]).statistic == 2

    def test_too_short(self):
        with pytest.raises(DomainError):
            turning_point_test([1, 2])

    def test_invariant_under_increasing_transform(self):
        x = RngState(61).uniforms(500)
        base = turning_point_test(x)
        assert turning_point_test(np.exp(4 * x)).statistic == base.statistic
        assert turning_point_test(7 * x - 3).statistic == base.statistic


class TestDifferenceSign:
    def test_hand_count(self):
        report = difference_sign_test([1, 2, 3])
        assert report.statistic == 2
        assert report.z_or_q == pytest.approx((2 - 1) / np.sqrt(4 / 12))

    def test_decreasing(self):
        assert difference_sign_test([5, 4, 3, 2]).statistic == 0

    def test_invariant_under_increasing_transform(self):
        x = RngState(62).uniforms(500)
        base = difference_sign_test(x)
        assert difference_sign_test(np.expm1(x)).statistic == base.statistic
        assert difference_sign_test(0.1 * x + 9).statistic == base.statistic


class TestPortmanteau:
    def test_hand_value(self):
        x = [1.0, -1.0, 1.0, -1.0]
        report = portmanteau_test(x, h=1)
        assert sample_acf(x, 1)[0] == pytest.approx(-0.75, abs=1e-15)
        assert report.statistic == pytest.approx(4.5, abs=1e-12)
        # chi-square(1) upper tail at 4.5, frozen from mpmath
        assert report.p_value == pytest.approx(0.033894853524689273, abs=1e-10)
        assert report.reject_at_5pct

    def test_zero_autocorrelation_gives_zero_q(self):
        # perfectly balanced cycle of period 4 has rho_2 = -? build explicitly:
        x = np.array([1.0, 0.0, -1.0, 0.0] * 50)
        rho = sample_acf(x, 2)
        q, p = ljung_box_curve(x, 2)
        assert rho[1] == pytest.approx(-1.0, abs=0.02)  # lag 2 strongly negative
        assert q[0] < q[1]

    def test_zero_acf_gives_unit_p_value(self):
        # {1,2,3} has exactly zero lag-1 autocorrelation
        report = portmanteau_test([1.0, 2.0, 3.0], h=1)
        assert report.statistic == 0.0
        assert report.p_value == 1.0
        assert not report.reject_at_5pct

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateInputError):
            portmanteau_test([2.0, 2.0, 2.0, 2.0], 1)

    def test_affine_invariance(self):
        x = RngState(63).uniforms(400)
        a = portmanteau_test(x, 10)
        b = portmanteau_test(5 * x - 2, 10)
        assert a.statistic == pytest.approx(b.statistic, rel=1e-9)

    @pytest.mark.parametrize("scale", [900, -900])
    def test_power_of_two_scale_is_exact(self, scale):
        # lag products of 2**900-scale data overflow unless the acf rescales first
        x = RngState(65).uniforms(400) - 0.5
        assert np.array_equal(sample_acf(np.ldexp(x, scale), 10), sample_acf(x, 10))

    def test_curve_matches_scalar(self):
        x = RngState(64).uniforms(300)
        q, p = ljung_box_curve(x, 15)
        for h in (1, 7, 15):
            rep = portmanteau_test(x, h)
            assert rep.statistic == pytest.approx(q[h - 1], rel=1e-12)
            assert rep.p_value == pytest.approx(p[h - 1], rel=1e-12)


# i.i.d. continuous data, nominal size 0.05, 10^4 replicates
REPS, N = 10_000, 2000


@pytest.fixture(scope="module")
def iid_matrix():
    return RngState(6006).uniforms(REPS * N).reshape(REPS, N)


class TestSizeCalibration:

    def test_turning_point_size(self, iid_matrix):
        rate = np.mean([turning_point_test(row).reject_at_5pct for row in iid_matrix])
        assert rate == pytest.approx(0.05, abs=0.01)

    def test_difference_sign_size(self, iid_matrix):
        rate = np.mean([difference_sign_test(row).reject_at_5pct for row in iid_matrix])
        assert rate == pytest.approx(0.05, abs=0.01)

    def test_portmanteau_size(self, iid_matrix):
        rate = np.mean([portmanteau_test(row, 20).reject_at_5pct for row in iid_matrix])
        assert rate == pytest.approx(0.05, abs=0.01)

    def test_report_consistency(self, iid_matrix):
        rep = portmanteau_test(iid_matrix[0], 20)
        assert rep.reject_at_5pct == (rep.p_value < 0.05)
