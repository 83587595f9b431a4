"""Innovation laws: hand-derived values, round trips, sampling goodness."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tailseries import (
    DomainError,
    InnovationSpec,
    RngState,
    cdf_fn,
    quantile_fn,
    sample,
    shifted_two_sided_pareto,
    survival_fn,
    two_sided_pareto,
)
from tailseries.errors import ConfigurationError

MODEL_A = two_sided_pareto(0.5, 0.5)
MODEL_B = shifted_two_sided_pareto(0.3, 0.5)


class TestQuantile:
    def test_unshifted_hand_value(self):
        # 0.5 * x**-2 = 0.125  =>  x = 2
        assert quantile_fn(MODEL_A, 0.875) == pytest.approx(2.0, abs=1e-14)

    def test_unshifted_flat_segment_convention(self):
        # generalized inverse lands at the lower support edge
        assert quantile_fn(MODEL_A, 0.5) == -1.0

    def test_shifted_hand_value(self):
        # 0.5 * (x+1)**(-10/3) = 0.25  =>  x = 2**0.3 - 1
        assert quantile_fn(MODEL_B, 0.75) == pytest.approx(2**0.3 - 1, abs=1e-14)

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                quantile_fn(MODEL_A, bad)

    def test_nondecreasing(self):
        u = np.linspace(1e-6, 1 - 1e-6, 10_001)
        for spec in (MODEL_A, MODEL_B, two_sided_pareto(1.2, 0.8)):
            q = quantile_fn(spec, u)
            assert np.all(np.diff(q) >= 0)


class TestSurvival:
    def test_unshifted_right(self):
        assert survival_fn(MODEL_A, 2.0) == pytest.approx(0.125, abs=1e-15)

    def test_shifted_boundary(self):
        assert survival_fn(MODEL_B, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_unshifted_left_branch(self):
        # 1 - 0.5 * 2**-2
        assert survival_fn(MODEL_A, -2.0) == pytest.approx(0.875, abs=1e-15)

    def test_support_gap_value(self):
        assert survival_fn(MODEL_A, 0.0) == 0.5
        assert survival_fn(MODEL_A, -0.999) == 0.5

    def test_far_left_tends_to_one(self):
        assert survival_fn(MODEL_A, -1e12) == pytest.approx(1.0, abs=1e-5)
        assert survival_fn(MODEL_B, -1e12) == pytest.approx(1.0, abs=1e-3)

    def test_cdf_complements_survival(self):
        x = np.linspace(-50, 50, 1001)
        for spec in (MODEL_A, MODEL_B):
            assert np.allclose(cdf_fn(spec, x) + survival_fn(spec, x), 1.0, atol=1e-12)


@settings(max_examples=300, deadline=None)
@given(u=st.floats(1e-9, 1 - 1e-9), gamma=st.floats(0.1, 3.0),
       p=st.floats(0.05, 1.0), shifted=st.booleans())
def test_round_trip_survival_of_quantile(u, gamma, p, shifted):
    spec = (shifted_two_sided_pareto if shifted else two_sided_pareto)(gamma, p)
    assert survival_fn(spec, quantile_fn(spec, u)) == pytest.approx(1 - u, abs=1e-12)


class TestSampling:
    def test_deterministic(self):
        a = sample(MODEL_A, RngState(9), 1000)
        b = sample(MODEL_A, RngState(9), 1000)
        assert np.array_equal(a, b)

    def test_empirical_survival_matches(self):
        draws = sample(MODEL_A, RngState(31), 1_000_000)
        assert np.mean(draws > 2.0) == pytest.approx(0.125, abs=1e-3)

    def test_balance(self):
        draws = sample(MODEL_A, RngState(32), 1_000_000)
        assert np.mean(draws > 0) == pytest.approx(0.5, abs=2e-3)

    @pytest.mark.parametrize("spec", [MODEL_A, MODEL_B], ids=["unshifted", "shifted"])
    def test_ks_distance(self, spec):
        draws = np.sort(sample(spec, RngState(33), 100_000))
        n = draws.size
        cdf = cdf_fn(spec, draws)
        hi = np.max(np.arange(1, n + 1) / n - cdf)
        lo = np.max(cdf - np.arange(0, n) / n)
        assert max(hi, lo) < 0.01


class TestSpecValidation:
    def test_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            InnovationSpec("two-sided-pareto", gamma=-1.0, p=0.5)
        with pytest.raises(ConfigurationError):
            InnovationSpec("two-sided-pareto", gamma=0.5, p=0.0)
        with pytest.raises(ConfigurationError):
            InnovationSpec("pareto", gamma=0.5, p=0.5)

    def test_json_round_trip(self):
        spec = two_sided_pareto(0.4, 0.7)
        assert InnovationSpec.from_json(spec.to_json()) == spec

    def test_json_rejects_constant_hook(self):
        with pytest.raises(ConfigurationError):
            InnovationSpec.from_json({"kind": "constant", "gamma": 1.0, "p": 1.0})

    def test_json_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            InnovationSpec.from_json({"kind": "two-sided-pareto", "gamma": 1.0,
                                      "p": 0.5, "shift": 1})
