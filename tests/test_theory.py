"""Formula evaluators against hand/high-precision oracles and identities."""

import numpy as np
import pytest

from tailseries import (
    CoefficientSequence,
    DomainError,
    SecondOrderTail,
    hill_avar_ar1,
    hill_avar_linear,
    rmse_ratio_ar1,
    second_order_constants,
    shifted_pareto_tail,
    tail_ratio_ar1,
    tail_ratio_linear,
)
from tailseries import theory
from tailseries.theory import RMSE_RATIO_REPORTED

PHI_GRID = [-0.8, -0.5, -0.2, 0.2, 0.5, 0.8]
GAMMA_GRID = [0.3, 0.5, 1.0]


class TestTailRatio:
    def test_identity_sequence(self):
        seq = CoefficientSequence((1.0,))
        assert tail_ratio_linear(seq, 0.5, 0.5) == 1.0

    def test_geometric_hand_value(self):
        seq = CoefficientSequence.ar1(0.8, 0.5)
        assert tail_ratio_linear(seq, 0.5, 0.5) == pytest.approx(1 / 0.36, rel=1e-10)

    def test_mixed_signs_hand_value(self):
        seq = CoefficientSequence((1.0, -1.0))
        assert tail_ratio_linear(seq, 1.0, 0.5) == pytest.approx(2.0, abs=1e-14)

    def test_ar1_closed_form_values(self):
        assert tail_ratio_ar1(0.0, 0.5) == 1.0
        assert tail_ratio_ar1(0.8, 0.5) == pytest.approx(2.7777777777777777, rel=1e-12)
        assert tail_ratio_ar1(-0.5, 1.0, 0.5) == pytest.approx(2.0, abs=1e-14)

    @pytest.mark.parametrize("phi", [p for p in PHI_GRID if p >= 0])
    @pytest.mark.parametrize("gamma", GAMMA_GRID)
    def test_ar1_equals_series(self, phi, gamma):
        seq = CoefficientSequence.ar1(phi, gamma)
        assert tail_ratio_ar1(phi, gamma, 0.5) == pytest.approx(
            tail_ratio_linear(seq, gamma, 0.5), abs=1e-10)

    @pytest.mark.parametrize("phi", [p for p in PHI_GRID if p < 0])
    def test_ar1_negative_phi_also_matches_series(self, phi):
        # the alternating-sign geometric sequence realizes the negative branch
        for p in (0.3, 0.5, 0.9):
            seq = CoefficientSequence.ar1(phi, 0.5)
            assert tail_ratio_ar1(phi, 0.5, p) == pytest.approx(
                tail_ratio_linear(seq, 0.5, p), abs=1e-10)

    def test_empty_sequence_rejected(self):
        with pytest.raises(DomainError):
            CoefficientSequence(())
        with pytest.raises(DomainError):
            CoefficientSequence((0.0, -0.0))

    def test_array_values_stored_as_floats(self):
        seq = CoefficientSequence(np.array([1.0, -0.5]))
        assert seq.values == (1.0, -0.5)
        assert all(type(v) is float for v in seq.values)

    def test_index_value_pairs_rejected(self):
        # the values are psi_0, psi_1, ...; a (j, psi_j) pair is no number
        with pytest.raises(TypeError):
            CoefficientSequence(((0, 1.0),))


class TestHillAvar:
    def test_iid_value(self):
        seq = CoefficientSequence((1.0,))
        for g in GAMMA_GRID:
            assert hill_avar_linear(seq, g) == pytest.approx(g * g, abs=1e-15)

    def test_geometric_hand_values(self):
        seq = CoefficientSequence.ar1(0.8, 0.5)
        assert hill_avar_linear(seq, 0.5) == pytest.approx(1.1388888888888889, rel=1e-9)
        seq3 = CoefficientSequence.ar1(0.8, 0.3)
        assert hill_avar_linear(seq3, 0.3) == pytest.approx(0.25305232104545667, rel=1e-9)

    def test_closed_form_values(self):
        assert hill_avar_ar1(0.0, 0.7) == pytest.approx(0.49, abs=1e-15)
        assert hill_avar_ar1(0.8, 0.5) == pytest.approx(1.1388888888888889, rel=1e-12)
        assert hill_avar_ar1(0.8, 0.3) == pytest.approx(0.25305232104545667, rel=1e-12)

    # the grid, and 60,680 terms at (phi, gamma) = (0.999, 1)
    @pytest.mark.parametrize("gamma, phi", [(gamma, phi) for gamma in GAMMA_GRID
                                            for phi in PHI_GRID] + [(1.0, 0.999)])
    def test_closed_form_equals_series(self, gamma, phi):
        seq = CoefficientSequence.ar1(phi, gamma)
        assert hill_avar_ar1(phi, gamma) == pytest.approx(
            hill_avar_linear(seq, gamma), abs=1e-8, rel=1e-8)

    @pytest.mark.parametrize("gamma", GAMMA_GRID)
    def test_dependence_never_shrinks_variance(self, gamma):
        rng = np.random.default_rng(5)
        for _ in range(50):
            values = rng.uniform(-1, 1, size=rng.integers(1, 12))
            if not np.any(values):
                continue
            seq = CoefficientSequence(values)
            assert hill_avar_linear(seq, gamma) >= gamma * gamma - 1e-12

    def test_overflow_raises(self):
        # gamma**2 overflows at phi = 0, where the sequence is psi_0 = 1 alone
        with pytest.raises(DomainError):
            hill_avar_linear(CoefficientSequence.ar1(0.0, 1e200), 1e200)

    def test_sequence_beyond_horizon_cap_raises(self):
        # at phi = 0.9999, gamma = 1 the capped sequence would be off by 2.1e-5
        with pytest.raises(DomainError, match="TRUNCATION_TOL"):
            CoefficientSequence.ar1(0.9999, 1.0)
        assert len(CoefficientSequence.ar1(0.999, 1.0).values) < theory._MAX_AR1_HORIZON

    def test_truncation_converged(self):
        # doubling the horizon moves the result by less than the tolerance
        tol = 1e-12
        base = CoefficientSequence.ar1(0.8, 1.0)
        jmax = len(base.values) - 1
        doubled = CoefficientSequence(np.power(0.8, np.arange(2 * jmax + 1)))
        assert abs(hill_avar_linear(base, 1.0)
                   - hill_avar_linear(doubled, 1.0)) < tol


class TestRmseRatio:
    def test_independence_is_exactly_one(self):
        for g in GAMMA_GRID:
            assert rmse_ratio_ar1(0.0, g) == 1.0

    def test_printed_formula_value_and_reported_discrepancy(self):
        # the printed formula evaluates to ~1.0643 at (0.8, 0.3); the quoted
        # reference 1.03 is kept side by side, not substituted
        value = rmse_ratio_ar1(0.8, 0.3)
        assert value == pytest.approx(1.0642904832033602, rel=1e-12)
        assert RMSE_RATIO_REPORTED[(0.8, 0.3)] == 1.03
        assert abs(value - 1.03) > 0.03

    def test_absolute_value_symmetry(self):
        assert rmse_ratio_ar1(-0.8, 0.3) == rmse_ratio_ar1(0.8, 0.3)

    def test_tends_to_one_at_small_phi(self):
        values = [rmse_ratio_ar1(phi, 0.3) for phi in (0.4, 0.2, 0.1, 0.05)]
        assert abs(values[-1] - 1.0) < 0.02
        assert all(abs(v - 1.0) >= abs(w - 1.0) - 1e-12
                   for v, w in zip(values, values[1:]))


class TestSecondOrder:
    def test_identity_coefficients(self):
        seq = CoefficientSequence((1.0,))
        tail = SecondOrderTail(c=0.7, d=-2.0, c_tilde=0.3, d_tilde=-1.0)
        assert second_order_constants(seq, 0.5, tail) == (0.7, 0.7 * -2.0)

    def test_shifted_pareto_constants(self):
        tail = shifted_pareto_tail(0.3, 0.5)
        assert tail.c == 0.5 and tail.c_tilde == 0.5
        assert tail.d == pytest.approx(-5.0 / 3.0, rel=1e-15)
        assert tail.d_tilde == pytest.approx(-5.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("p", [0.0, -0.1, 1.5, float("nan")])
    def test_shifted_pareto_p_checked(self, p):
        with pytest.raises(DomainError, match=r"p must lie in \(0, 1\]"):
            shifted_pareto_tail(0.3, p)

    def test_geometric_hand_values(self):
        seq = CoefficientSequence.ar1(0.8, 0.3)
        d_psi, big_d = second_order_constants(seq, 0.3, shifted_pareto_tail(0.3, 0.5))
        assert d_psi == pytest.approx(0.95292311401515741, rel=1e-9)
        assert big_d == pytest.approx(-1.3446042520437852, rel=1e-9)

    def test_negative_coefficients_use_left_tail(self):
        seq = CoefficientSequence((1.0, -0.5))
        tail = SecondOrderTail(c=1.0, d=-1.0, c_tilde=2.0, d_tilde=-3.0)
        g = 1.0
        d_psi, big_d = second_order_constants(seq, g, tail)
        assert d_psi == pytest.approx(1.0 * 1.0 + 2.0 * 0.5, abs=1e-14)
        assert big_d == pytest.approx(1.0 * -1.0 * 1.0 + 2.0 * -3.0 * 0.25, abs=1e-14)
