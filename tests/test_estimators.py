"""Hill, AR(1) fit, residuals, and the two Weissman-type quantile estimators."""

import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tailseries import (
    ConfigurationError,
    DegenerateInputError,
    DomainError,
    QuantileTarget,
    RngState,
    fit_ar1,
    hill,
    hill_curve,
    linear_ar1,
    quantile_fn,
    residuals_ar1,
    sample,
    simulate_series,
    two_sided_pareto,
    weissman_direct,
    weissman_direct_curve,
    weissman_model_ar1_curve,
    weissman_model_ar1_fit,
)
from tailseries import estimators
from tailseries.estimators import weissman_extrapolate, _tail_ratio_factor
from tailseries.experiments import DEFAULT_K_GRID, STUDY_T, _study_model

MODEL_A = two_sided_pareto(0.5, 0.5)


def _hill_by_sorting(x, k):
    """Reference Hill estimate: mean log of the top k over the threshold."""
    top = np.sort(x)[x.size - k - 1:]
    return np.mean(np.log(top[1:])) - np.log(top[0])


class TestHill:
    def test_hand_value(self):
        assert hill([1, 2, 4, 8], 2) == pytest.approx((np.log(4) + np.log(2)) / 2, abs=1e-14)

    def test_scale_invariance(self):
        x = sample(MODEL_A, RngState(2), 400)
        for c in (0.1, 3.0, 1e6):
            assert hill(c * np.abs(x), 50) == pytest.approx(hill(np.abs(x), 50), abs=1e-10)

    def test_pareto_plugin_consistency(self):
        # deterministic plug-in grid of exact Pareto quantiles
        n, k, gamma = 10_000, 100, 0.5
        pareto = two_sided_pareto(gamma, 1.0)  # one-sided
        grid = quantile_fn(pareto, (np.arange(1, n + 1) - 0.5) / n)
        assert hill(grid, k) == pytest.approx(gamma, abs=0.05)

    def test_threshold_must_be_positive(self):
        with pytest.raises(DomainError):
            hill([-3, -2, -1, 1, 2], 3)

    def test_all_tied_returns_zero(self):
        assert hill([1, 5, 5, 5, 5], 3) == 0.0

    @pytest.mark.parametrize("x, k", [
        ([1.0] + [7.0] * 6, 5),
        ([0.01] + [3.3] * 21, 20),
        ([0.01] + [2.5] * 10, 9),
        ([0.01] + [1e10] * 10, 9),
        ([0.1] * 21, 20),
    ])
    def test_tied_top_is_exactly_zero(self, x, k):
        # the cumulative log sum leaves a rounding residue unless ties are caught
        assert hill(x, k) == 0.0
        assert hill_curve(x, [k])[0] == 0.0

    def test_k_bounds(self):
        with pytest.raises(DomainError):
            hill([1, 2, 3], 3)
        with pytest.raises(DomainError):
            hill([1, 2, 3], 0)

    def test_curve_matches_scalar(self):
        x = np.abs(sample(MODEL_A, RngState(3), 500))
        ks = np.array([1, 7, 33, 100, 249])
        curve = hill_curve(x, ks)
        for i, k in enumerate(ks):
            assert curve[i] == pytest.approx(_hill_by_sorting(x, k), rel=1e-12)

    def test_curve_nan_on_bad_threshold(self):
        x = np.array([-5.0, -4.0, -1.0, 1.0, 2.0, 8.0])
        curve = hill_curve(x, np.array([1, 2, 3, 4]))
        assert np.isfinite(curve[:2]).all()
        assert np.isnan(curve[2:]).all()

    def test_unbiased_on_exact_pareto(self):
        # 10^4 replicates of n=200 exact Pareto samples
        gamma, n, k, reps = 0.5, 200, 50, 10_000
        u = RngState(17).uniforms(reps * n).reshape(reps, n)
        draws = (1.0 / (1.0 - u)) ** gamma
        top = np.sort(draws, axis=1)[:, n - k - 1:]
        estimates = np.log(top[:, 1:]).mean(axis=1) - np.log(top[:, 0])
        se = estimates.std(ddof=1) / np.sqrt(reps)
        assert abs(estimates.mean() - gamma) < 3 * se + 1e-12


class TestFitAr1:
    def test_hand_value(self):
        assert fit_ar1([1.0, 2.0, 3.0]) == 0.0

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateInputError):
            fit_ar1([5.0, 5.0, 5.0, 5.0])

    def test_consistency_on_simulated_ar1(self):
        series = simulate_series(linear_ar1(0.8, MODEL_A, burnin=2000), 2000, RngState(21))
        assert fit_ar1(series) == pytest.approx(0.8, abs=0.05)

    def test_uncentered_variant(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        expected = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
        assert fit_ar1(x, center=False) == pytest.approx(expected, abs=1e-15)

    def test_too_short(self):
        with pytest.raises(DomainError):
            fit_ar1([1.0, 2.0])

    @pytest.mark.parametrize("center", [True, False])
    @pytest.mark.parametrize("scale", [900, -900])
    def test_power_of_two_scale_is_exact(self, center, scale):
        # at 2**900 the sums of squares overflow, at 2**-900 they underflow,
        # unless the fit rescales first; the coefficient is scale-invariant
        x = simulate_series(linear_ar1(0.8, MODEL_A, burnin=200), 500, RngState(22))
        assert fit_ar1(np.ldexp(x, scale), center=center) == fit_ar1(x, center=center)


class TestResiduals:
    def test_differencing(self):
        assert np.array_equal(residuals_ar1([1.0, 2.0, 3.0], 1.0), [1.0, 1.0])

    def test_phi_zero_identity(self):
        x = np.array([3.0, 1.0, 4.0, 1.0])
        assert np.array_equal(residuals_ar1(x, 0.0), x[1:])

    def test_replay_recovers_innovations(self):
        # with the true coefficient, residuals recover the generator's
        # innovations up to one rounding of each recursion step
        model = linear_ar1(0.8, MODEL_A, burnin=500)
        series = simulate_series(model, 3000, RngState(23))
        draws = sample(MODEL_A, RngState(23), 3500)[501:]  # innovations at t = 2..n
        resid = residuals_ar1(series, 0.8)
        scale = np.maximum(np.abs(series[1:]), np.abs(draws))
        assert np.all(np.abs(resid - draws) <= 4e-16 * scale + 1e-300)

    def test_refit_on_residuals_near_zero(self):
        rows = []
        for r in range(30):
            series = simulate_series(linear_ar1(0.8, MODEL_A, burnin=2000), 2000,
                                     RngState(29).substream(r))
            rows.append(fit_ar1(residuals_ar1(series, fit_ar1(series))))
        assert abs(np.mean(rows)) < 0.05


class TestWeissmanDirect:
    def test_forced_components_hand_value(self):
        # anchor 10, gamma 0.5, n=1000, k=100, t=0.001
        assert weissman_extrapolate(10.0, 0.5, 1000, 100, 0.001) == pytest.approx(100.0, rel=1e-12)

    def test_threshold_self_consistency(self):
        x = sample(MODEL_A, RngState(31), 400)
        k = 40
        target = QuantileTarget(t=k / 400, k=k, n=400)
        anchor = np.sort(x)[400 - k - 1]
        assert weissman_direct(x, target) == pytest.approx(anchor, rel=1e-12)

    def test_scaling_equivariance(self):
        x = np.abs(sample(MODEL_A, RngState(37), 500))
        target = QuantileTarget(t=0.001, k=50, n=500)
        for c in (0.5, 2.0, 40.0):
            assert weissman_direct(c * x, target) == pytest.approx(
                c * weissman_direct(x, target), rel=1e-10)

    def test_nonincreasing_in_t(self):
        x = np.abs(sample(MODEL_A, RngState(38), 500))
        values = [weissman_direct(x, QuantileTarget(t=t, k=50, n=500))
                  for t in (0.0005, 0.001, 0.01, 0.05)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_curve_matches_scalar(self):
        x = simulate_series(linear_ar1(0.8, MODEL_A, burnin=1000), 2000, RngState(39))
        ks = np.array([10, 100, 400])
        curve = weissman_direct_curve(x, ks, 0.001)
        for i, k in enumerate(ks):
            anchor = np.sort(x)[2000 - k - 1]
            expected = anchor * (2000 * 0.001 / k) ** -_hill_by_sorting(x, k)
            assert curve[i] == pytest.approx(expected, rel=1e-10)


class TestWeissmanModel:
    def test_forced_components_hand_value(self):
        # anchor 5, gamma 0.5, phi 0.8, n=2000, k=100, t=0.001
        u = (1 - 0.8 ** (1 / 0.5)) * 0.001
        assert u == pytest.approx(0.00036, abs=1e-18)
        value = weissman_extrapolate(5.0, 0.5, 2000, 100, u)
        assert value == pytest.approx(5.0 * 0.0072 ** -0.5, rel=1e-12)
        assert value == pytest.approx(58.926, abs=5e-3)

    def test_phi_zero_factor_reduces_to_direct(self):
        factor, clamped = _tail_ratio_factor(0.0, np.array([0.5]))
        assert factor[0] == 1.0 and not clamped[0]

    def test_clamp_on_unit_root(self):
        factor, clamped = _tail_ratio_factor(1.05, np.array([0.5]))
        assert factor[0] == pytest.approx(1e-6) and clamped[0]

    def test_pipeline_matches_manual_composition(self):
        series = simulate_series(linear_ar1(0.8, MODEL_A, burnin=1000), 2000, RngState(41))
        k, t = 200, 0.001
        fit = weissman_model_ar1_fit(series, QuantileTarget(t=t, k=k, n=2000))
        phi = fit_ar1(series)
        resid = residuals_ar1(series, phi)
        gamma = hill(resid, k)
        anchor = np.sort(resid)[resid.size - k]
        u = (1 - abs(phi) ** (1 / gamma)) * t
        assert fit.phi_hat == phi
        assert fit.gamma_hat == gamma
        assert fit.estimate == pytest.approx(anchor * (2000 * u / k) ** -gamma, rel=1e-12)

    def test_curve_matches_scalar(self):
        series = simulate_series(linear_ar1(0.8, MODEL_A, burnin=1000), 2000, RngState(43))
        ks = np.array([25, 100, 662])
        curve, phi_hat, _ = weissman_model_ar1_curve(series, ks, 0.001)
        d = series - series.mean()
        phi = np.dot(d[:-1], d[1:]) / np.dot(d, d)
        resid = series[1:] - phi * series[:-1]
        for i, k in enumerate(ks):
            gamma = _hill_by_sorting(resid, k)
            anchor = np.sort(resid)[resid.size - k]
            u = (1 - abs(phi) ** (1 / gamma)) * 0.001
            assert curve[i] == pytest.approx(anchor * (2000 * u / k) ** -gamma, rel=1e-10)
        assert phi_hat == pytest.approx(phi, rel=1e-12)

    def test_sanity_near_truth_model_a(self):
        # a single n=2000 draw lands within a factor ~2 of the true quantile
        series = simulate_series(linear_ar1(0.8, MODEL_A, burnin=10_000), 2000, RngState(47))
        est = weissman_model_ar1_fit(series, QuantileTarget(t=0.001, k=600, n=2000)).estimate
        assert 15 < est < 80  # truth is near 37.9


T = QuantileTarget(t=0.001, k=50, n=300)
PUBLIC_ESTIMATORS = {
    "hill": lambda x: hill(x, 50),
    "hill_curve": lambda x: hill_curve(x, [10, 50]),
    "fit_ar1": fit_ar1,
    "weissman_direct": lambda x: weissman_direct(x, T),
    "weissman_direct_curve": lambda x: weissman_direct_curve(x, [10, 50], 0.001),
    "weissman_model_ar1": lambda x: weissman_model_ar1_fit(x, T).estimate,
    "weissman_model_ar1_fit": lambda x: weissman_model_ar1_fit(x, T),
    "weissman_model_ar1_curve": lambda x: weissman_model_ar1_curve(x, [10, 50], 0.001),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("estimator", PUBLIC_ESTIMATORS.values(), ids=list(PUBLIC_ESTIMATORS))
def test_nonfinite_input_raises(estimator, bad):
    x = simulate_series(linear_ar1(0.8, MODEL_A, burnin=100), 300, RngState(53))
    estimator(x)  # finite input is accepted
    x[17] = bad
    with pytest.raises(DomainError, match="non-finite"):
        estimator(x)


@pytest.mark.parametrize("estimator", [weissman_direct, weissman_model_ar1_fit])
def test_overflowing_estimate_raises(estimator):
    # a Hill estimate near 700 raises the top value to a power beyond the
    # largest double: an error, with no overflow warning before it
    x = np.concatenate([np.ones(200), [1e300, 1.5e300, 1e306]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="not finite"):
            estimator(x, QuantileTarget(t=0.001, k=3, n=x.size))


@pytest.mark.parametrize("t", [0.0, 1.0, 1.5, 2.0, -0.001, np.nan])
@pytest.mark.parametrize("curve", [weissman_direct_curve, weissman_model_ar1_curve])
def test_curves_need_t_in_the_unit_interval(curve, t):
    x = simulate_series(linear_ar1(0.8, two_sided_pareto(0.5)), 500, RngState(2))
    with pytest.raises(ConfigurationError, match=r"t must lie in \(0, 1\)"):
        curve(x, [10, 50], t)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32), k=st.integers(1, 60), c=st.floats(0.01, 100.0))
def test_hill_scale_invariance_property(seed, k, c):
    x = np.abs(sample(MODEL_A, RngState(seed), 100)) + 1e-9
    assert hill(c * x, k) == pytest.approx(hill(x, k), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("call", [
    lambda x, k: hill(x, k),
    lambda x, k: hill_curve(x, [10, k]),
    lambda x, k: weissman_direct_curve(x, [k], 0.001),
    lambda x, k: weissman_direct_curve(x, [k], 0.001, use_abs=True),
    lambda x, k: weissman_model_ar1_curve(x, [k, 50], 0.001),
], ids=["hill", "hill_curve", "direct_curve", "direct_curve-abs", "model_curve"])
@pytest.mark.parametrize("k", [2.7, 10.5, "3", np.nan, np.inf])
def test_k_must_be_a_whole_number(call, k):
    x = simulate_series(linear_ar1(0.8, MODEL_A, burnin=100), 300, RngState(59))
    call(x, 3.0)  # a whole float is a whole number
    with pytest.raises(DomainError, match="every k must be a whole number"):
        call(x, k)


@pytest.mark.parametrize("k", [10.9, "10", np.nan, False])
def test_target_k_must_be_a_whole_number(k):
    QuantileTarget(t=0.001, k=10.0, n=500)
    with pytest.raises(ConfigurationError, match="k must be a whole number"):
        QuantileTarget(t=0.001, k=k, n=500)


def test_model_based_k_stops_at_n_minus_2():
    # the Hill threshold is the (k+1)-th largest value: at k = n - 1 the n-th
    # of the n - 1 residuals an AR(1) fit leaves
    x = simulate_series(linear_ar1(0.8, MODEL_A, burnin=100), 300, RngState(61))
    assert np.isnan(weissman_model_ar1_curve(x, [298], 0.001)[0]).all()  # a negative threshold
    rule = r"every k must satisfy 1 <= k <= n - 2: an AR\(1\) fit leaves n - 1 residuals"
    with pytest.raises(DomainError, match=rule):
        weissman_model_ar1_fit(x, QuantileTarget(t=0.001, k=299, n=300))
    for ks in ([10, 299], [0, 10]):
        with pytest.raises(DomainError, match=rule):
            weissman_model_ar1_curve(x, ks, 0.001)
    weissman_direct_curve(x, [10, 299], 0.001)  # the direct route takes k = n - 1


@pytest.mark.parametrize("use_abs, sorts", [(False, 1), (True, 2)])
def test_each_curve_sorts_its_sample_once(use_abs, sorts, monkeypatch):
    # the Hill step and the anchor read one descending order; a Hill step on
    # absolute values needs a second
    x = simulate_series(linear_ar1(0.8, MODEL_A, burnin=100), 300, RngState(71))
    calls, sort = [], np.sort
    monkeypatch.setattr(np, "sort", lambda *args, **kw: calls.append(1) or sort(*args, **kw))
    for curve in (weissman_direct_curve, partial(estimators._model_ar1, center=True)):
        calls.clear()
        curve(x, [10, 50], 0.001, use_abs)
        assert len(calls) == sorts
    calls.clear()
    hill_curve(x, [10, 50])
    assert len(calls) == 1


# The curves as they were when each sorted its sample once for the Hill step
# and once more for the Weissman anchor: the reference for sorting once.
def _two_sort_hill_curve(sample, ks):
    x = np.asarray(sample, dtype=np.float64)
    desc = np.sort(x)[::-1]
    thresholds = desc[ks]
    valid = thresholds > 0
    npos = int(np.count_nonzero(desc > 0))
    logs = np.zeros(x.size)
    logs[:npos] = np.log(desc[:npos])
    csum = np.cumsum(logs)
    out = np.full(ks.shape, np.nan)
    kv = ks[valid]
    out[valid] = csum[kv - 1] / kv - logs[kv]
    out[valid & (thresholds == desc[0])] = 0.0
    return out


def _two_sort_direct_curve(x, ks, t, use_abs):
    gammas = _two_sort_hill_curve(np.abs(x) if use_abs else x, ks)
    anchors = np.sort(x)[::-1][ks]
    with np.errstate(over="ignore", invalid="ignore"):
        est = anchors * (ks / (x.size * t)) ** gammas
        return np.where(anchors > 0, est, np.nan)


def _two_sort_model_curve(x, ks, t, use_abs, center):
    phi_hat = estimators.fit_ar1(x, center=center)
    resid = residuals_ar1(x, phi_hat)
    gammas = _two_sort_hill_curve(np.abs(resid) if use_abs else resid, ks)
    anchors = np.sort(resid)[::-1][ks - 1]
    factor, clamped = _tail_ratio_factor(phi_hat, gammas)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        est = weissman_extrapolate(anchors, gammas, x.size, ks, factor * t)
        est = np.where(anchors > 0, est, np.nan)
    return est, phi_hat, gammas, clamped


STUDY_CASES = {f"{'linear' if linear else 'nonlinear'}-{law}-{n}": (linear, law, n)
               for linear in (True, False) for law in ("unshifted", "shifted")
               for n in (300, 2000)}
SPECIAL_CASES = ("tied-top", "all-negative", "unit-root")


@pytest.mark.parametrize("case", list(STUDY_CASES) + list(SPECIAL_CASES))
def test_curves_equal_the_two_sort_formulas(case, monkeypatch):
    linear, law, n = STUDY_CASES.get(case, (True, "unshifted", 2000))
    x = simulate_series(_study_model(linear, law), n, RngState(67))
    if case == "tied-top":
        x = np.minimum(x, np.sort(x)[-100])
    elif case == "all-negative":
        x = -np.abs(x) - 1.0
    elif case == "unit-root":
        # Cauchy-Schwarz keeps |fit_ar1| below 1 on any non-degenerate
        # series, so phi_hat is pinned to reach the tail-ratio clamp
        monkeypatch.setattr(estimators, "fit_ar1", lambda series, center=True: 1.0)
    ks = np.array([k for k in DEFAULT_K_GRID if k <= n - 2])
    same = partial(np.array_equal, equal_nan=True)
    for sample_ in (x, np.abs(x)):
        assert same(hill_curve(sample_, ks), _two_sort_hill_curve(sample_, ks))
    for use_abs in (False, True):
        assert same(weissman_direct_curve(x, ks, STUDY_T, use_abs),
                    _two_sort_direct_curve(x, ks, STUDY_T, use_abs))
        for center in (False, True):
            got = estimators._model_ar1(x, ks, STUDY_T, use_abs, center)
            expected = _two_sort_model_curve(x, ks, STUDY_T, use_abs, center)
            assert all(map(same, got, expected))
    est, phi_hat, clamped = weissman_model_ar1_curve(x, ks, STUDY_T)
    expected, expected_phi, _, expected_clamped = _two_sort_model_curve(x, ks, STUDY_T,
                                                                        False, True)
    assert same(est, expected) and phi_hat == expected_phi and same(clamped, expected_clamped)
    # each special case reaches the branch it is here for
    if case == "tied-top":
        assert (hill_curve(x, ks) == 0.0).sum() == (ks < 100).sum()
    elif case == "all-negative":
        assert np.isnan(hill_curve(x, ks)).all() and np.isnan(est).any()
    elif case == "unit-root":
        assert clamped.all()
