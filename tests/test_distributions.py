"""Innovation laws: hand-derived values, round trips, sampling goodness."""

import os
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tailseries import (
    DomainError,
    InnovationSpec,
    RngState,
    _kernel,
    cdf_fn,
    quantile_fn,
    sample,
    shifted_two_sided_pareto,
    survival_fn,
    two_sided_pareto,
)
from tailseries.distributions import SHIFTED_TWO_SIDED_PARETO, TWO_SIDED_PARETO
from tailseries.errors import ConfigurationError
from conftest import KERNELS, assert_same_bits, run_python, same_on_every_kernel

MODEL_A = two_sided_pareto(0.5, 0.5)
MODEL_B = shifted_two_sided_pareto(0.3, 0.5)

KINDS = (TWO_SIDED_PARETO, SHIFTED_TWO_SIDED_PARETO)
# small and large indices, and 0.5, which numpy's `**` computes as a square root
GAMMAS = (0.05, 0.3, 0.5, 1.3)
BALANCES = (0.2, 0.5, 1.0)
# one draw, a short block, a full draw block and one more
SIZES = (1, 7, 65536, 65537)


def whole_numpy_quantile(spec, u):
    """The inverse CDF as one numpy expression, as `quantile_fn` computed it
    before its arithmetic moved around the power into the kernel."""
    u_arr = np.asarray(u, dtype=np.float64)
    g, p = spec.gamma, spec.p
    left = u_arr <= (1.0 - p)
    if spec.kind == TWO_SIDED_PARETO:
        lo = -(((1.0 - p) / u_arr) ** g)
        hi = (p / (1.0 - u_arr)) ** g
    else:
        lo = 1.0 - ((1.0 - p) / u_arr) ** g
        hi = (p / (1.0 - u_arr)) ** g - 1.0
    return np.where(left, lo, hi)


def check_law(spec):
    """`sample` and `quantile_fn` give the bytes of `whole_numpy_quantile`
    on every kernel path, at every size of `SIZES`."""
    for n in SIZES:
        u = RngState(n).uniforms(n)
        expected = whole_numpy_quantile(spec, u)
        assert_same_bits(same_on_every_kernel(lambda: sample(spec, RngState(n), n)), expected)
        assert_same_bits(same_on_every_kernel(lambda: quantile_fn(spec, u)), expected)


def check_every_law():
    for kind in KINDS:
        for gamma in GAMMAS:
            for p in BALANCES:
                check_law(InnovationSpec(kind, gamma, p))


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


class TestKernelPaths:
    @pytest.mark.parametrize("p", BALANCES)
    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_whole_numpy_expression(self, kind, gamma, p):
        check_law(InnovationSpec(kind, gamma, p))

    def test_matches_without_avx512_dispatch(self):
        # numpy may compute `**` in another loop without AVX-512; the kernel
        # passes around the power must still give the expression's bytes
        with mock.patch.dict(os.environ,
                             NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"):
            proc = run_python(
                ["-c", "import test_distributions; test_distributions.check_every_law()"],
                cwd=Path(__file__).parent, text=True)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("p", (0.2, 0.5))
    def test_flat_segment_edge(self, p):
        # u = 1 - p: the base is exactly 1, so the unshifted law gives -1.0
        # and the shifted one 1.0 - 1.0 = +0.0
        for spec, expected in ((two_sided_pareto(0.3, p), -1.0),
                               (shifted_two_sided_pareto(0.3, p), 0.0)):
            got = same_on_every_kernel(lambda: quantile_fn(spec, np.array([1.0 - p])))
            assert_same_bits(got, np.array([expected]))

    def test_power_rounding_to_one_gives_positive_zero(self):
        # within a few ulps of 1 - p the power rounds to exactly 1.0 on both
        # branches; the shifted law then gives +0.0, never -0.0
        spec = shifted_two_sided_pareto(0.05, 0.5)
        u = np.array([0.5 - k * 2.0**-54 for k in range(1, 5)]
                     + [0.5 + k * 2.0**-53 for k in range(1, 5)])
        got = same_on_every_kernel(lambda: quantile_fn(spec, u))
        assert_same_bits(got, np.zeros(u.size))
        assert_same_bits(got, whole_numpy_quantile(spec, u))

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, -np.inf, 1.5])
    def test_domain_error_before_any_value(self, bad):
        u = np.array([0.3, bad, 0.7])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no kernel warns before it raises
            for kernel in KERNELS:
                with mock.patch.object(_kernel, "_KERNEL", kernel):
                    for arg in (bad, u):
                        with pytest.raises(DomainError):
                            quantile_fn(MODEL_B, arg)

    def test_nan_gives_nan(self):
        for kernel in KERNELS:
            with mock.patch.object(_kernel, "_KERNEL", kernel):
                for spec in (MODEL_A, MODEL_B):
                    got = quantile_fn(spec, np.array([0.3, np.nan, 0.7]))
                    assert np.isnan(got[1]) and np.isfinite(got[[0, 2]]).all()
                    assert np.isnan(quantile_fn(spec, np.nan))

    def test_scalar_equals_array(self):
        u = RngState(8).uniforms(3000)
        for spec in (MODEL_A, MODEL_B):
            scalars = np.array([quantile_fn(spec, float(v)) for v in u])
            assert_same_bits(scalars, quantile_fn(spec, u))

    def test_sample_writes_into_out(self):
        out = np.empty(100)
        assert sample(MODEL_B, RngState(9), 100, out=out) is out
        assert_same_bits(out, sample(MODEL_B, RngState(9), 100))
        with pytest.raises(ValueError):
            sample(MODEL_B, RngState(9), 100, out=np.empty(99))


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
        obj = {"kind": "two-sided-pareto", "gamma": 0.4, "p": 0.7}
        assert InnovationSpec.from_json(obj) == two_sided_pareto(0.4, 0.7)

    def test_json_rejects_constant_hook(self):
        with pytest.raises(ConfigurationError):
            InnovationSpec.from_json({"kind": "constant", "gamma": 1.0, "p": 1.0})

    def test_json_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            InnovationSpec.from_json({"kind": "two-sided-pareto", "gamma": 1.0,
                                      "p": 0.5, "shift": 1})
