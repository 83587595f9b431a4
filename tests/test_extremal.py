"""Extremal quantities against closed-form, enumeration, and cross-generator oracles."""

import tracemalloc
import warnings
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from scipy.stats import binom

from tailseries import (
    ConfigurationError,
    DomainError,
    HorizonTooSmallError,
    JointExceedanceQuery,
    RngState,
    SREDriver,
    TwoPointLaw,
    WalkEnsemble,
    cluster_size_probs,
    extremal_index,
    hill_avar_sre,
    joint_exceedance,
    simulate_walks,
)
from tailseries import LognormalLaw, _kernel, extremal, simulate, solve_kappa
from tailseries.simulate import _PATH_BLOCK
from conftest import KERNELS, assert_same_bits, same_on_every_kernel, walk_matrix

DRIVER = SREDriver(TwoPointLaw(2.0, 0.5, 1.0 / 3.0))  # E A = 1, kappa = 1

# gambler's ruin for the +-1 walk with p_up = 1/3:
# P(max >= 0) = 1/3 + (2/3)(1/2) = 2/3 and max = -1 otherwise, so
# E min(U_1, 1) = 2/3 + (1/3)(1/2) = 5/6 and theta = 1/6
THETA_TRUE = 1.0 / 6.0


@pytest.fixture(scope="module")
def ensemble():
    return simulate_walks(DRIVER, 1.0, 200, 100_000, RngState(1001))


@dataclass(eq=False)
class MatrixEnsemble(WalkEnsemble):
    """An ensemble whose paths are the rows of a given matrix."""

    matrix: np.ndarray = None

    def _fill(self, start, out):
        count, n = out.shape
        out[...] = self.matrix[start:start + count, :n]


def hook(paths, kappa=1.0, driver=DRIVER):
    paths = np.asarray(paths, dtype=np.float64)
    return MatrixEnsemble(kappa=kappa, driver=driver, n_paths=paths.shape[0],
                          horizon=paths.shape[1], base=0, maxima=paths.max(axis=1),
                          capped_sums=np.minimum(paths, 1.0).sum(axis=1), matrix=paths)


class TestExtremalIndex:
    def test_gamblers_ruin_value(self, ensemble):
        theta, se = extremal_index(ensemble)
        assert theta == pytest.approx(THETA_TRUE, abs=0.01)
        assert abs(theta - THETA_TRUE) < 4 * se + 2e-4  # 2e-4 covers truncation

    def test_all_zero_hook(self):
        theta, se = extremal_index(hook(np.zeros((100, 10))))
        assert theta == 1.0 and se == 0.0

    def test_all_one_hook(self):
        theta, _ = extremal_index(hook(np.ones((100, 10))))
        assert theta == 0.0


class TestClusterSizes:
    def test_zero_hook_all_clusters_size_one(self):
        summary = cluster_size_probs(hook(np.zeros((50, 10))), 3)
        assert summary.theta == 1.0
        assert np.array_equal(summary.theta_k, [1.0, 0.0, 0.0])
        assert summary.pi_k[0] == 1.0 and np.all(summary.pi_k[1:] == 0.0)

    def test_theta1_equals_theta_exactly(self, ensemble):
        summary = cluster_size_probs(ensemble, 20)
        theta, _ = extremal_index(ensemble)
        assert summary.theta_k[0] == summary.theta  # same estimator, same bytes
        assert summary.theta == pytest.approx(theta, abs=1e-14)

    def test_telescoping_sums(self, ensemble):
        summary = cluster_size_probs(ensemble, 20)
        # sum theta_k + remainder = 1 - theta_21
        total = summary.theta_k.sum() + summary.horizon_remainder
        assert total == pytest.approx(1.0, abs=0.02)
        theta_next = 1.0 - total
        assert summary.pi_k.sum() + theta_next / summary.theta == pytest.approx(1.0, abs=0.01)

    def test_mean_cluster_size_matches_reciprocal_theta(self, ensemble):
        summary = cluster_size_probs(ensemble, 20)
        assert summary.mean_cluster_size() == pytest.approx(1.0 / summary.theta, rel=0.05)

    def test_monotonicity_and_positivity_within_noise(self, ensemble):
        summary = cluster_size_probs(ensemble, 20)
        slack = 4 * np.max(summary.mc_stderr["theta_k"])
        assert np.all(np.diff(summary.theta_k) <= slack)
        assert np.all(summary.pi_k >= -4 * summary.mc_stderr["pi_k"])
        assert summary.pi_k.sum() <= 1.0 + 4 * np.sum(summary.mc_stderr["pi_k"])

    def test_pi1_against_cross_generator_oracle(self, ensemble):
        summary = cluster_size_probs(ensemble, 20)
        # independent walks from numpy's PCG64, direct evaluation of the
        # defining expectations
        gen = np.random.default_rng(987654321)
        a = np.where(gen.random((100_000, 200)) < 1.0 / 3.0, 2.0, 0.5)
        w = np.cumprod(a, axis=1)
        top2 = np.sort(np.partition(w, 198, axis=1)[:, 198:], axis=1)[:, ::-1]
        m1 = np.minimum(top2[:, 0], 1.0)
        m2 = np.minimum(top2[:, 1], 1.0)
        theta_o = 1.0 - m1.mean()
        theta2_o = (m1 - m2).mean()
        pi1_o = (theta_o - theta2_o) / theta_o
        se = 4 * (summary.mc_stderr["pi_k"][0] + np.std(m1 - m2, ddof=1) / 316.0)
        assert summary.pi_k[0] == pytest.approx(pi1_o, abs=se + 0.005)

    def test_kmax_bounds(self, ensemble):
        with pytest.raises(ConfigurationError):
            cluster_size_probs(ensemble, 200)
        with pytest.raises(ConfigurationError):
            cluster_size_probs(ensemble, 0)

    def test_deterministic_and_read_only(self, ensemble):
        rows = (0, 1, ensemble.n_paths - 1)
        before = [ensemble.paths[p] for p in rows]
        query = JointExceedanceQuery((1.0, 2.0, 0.7), "some")
        for functional in (extremal_index, lambda ens: cluster_size_probs(ens, 10),
                           hill_avar_sre, lambda ens: joint_exceedance(ens, query)):
            assert_same_bits(flat(functional(ensemble)), flat(functional(ensemble)))
        for p, row in zip(rows, before):
            assert_same_bits(ensemble.paths[p], row)


def _enumeration_sum(n_terms: int) -> tuple[float, float]:
    """sum_j E min(W_j, 1) by exact binomial enumeration, plus a tail bound."""
    total = 0.0
    for j in range(1, n_terms + 1):
        ups = np.arange(j + 1)
        pmf = binom.pmf(ups, j, 1.0 / 3.0)
        s = 2 * ups - j
        total += float(np.sum(pmf * np.minimum(2.0 ** np.minimum(s, 0), 1.0)))
    r = DRIVER.law.moment(0.5)  # E sqrt(A) = 2*sqrt(2)/3
    tail = r ** (n_terms + 1) / (1.0 - r)
    return total, tail


class TestHillAvarSRE:
    def test_zero_hook_iid_value(self):
        # multipliers of 1e-300: every W_j = (1e-300)**2j is 0.0, and so is
        # the tail bound r**11 / (1 - r) with r = E A = 1e-300
        vanishing = SREDriver(TwoPointLaw(1e-300, 1e-300, 0.5))
        result = hill_avar_sre(hook(np.zeros((50, 10)), kappa=2.0, driver=vanishing))
        assert result.variance == 0.25
        assert result.tail_bound == 0.0

    def test_matches_enumeration_oracle(self, ensemble):
        result = hill_avar_sre(ensemble)
        enum, tail = _enumeration_sum(200)
        low = 1.0 + 2.0 * enum
        high = 1.0 + 2.0 * (enum + tail)
        assert low - 2 * result.stderr <= result.variance <= high + 2 * result.stderr

    def test_doubling_horizon_within_reported_bound(self):
        small = simulate_walks(DRIVER, 1.0, 200, 20_000, RngState(55))
        large = simulate_walks(DRIVER, 1.0, 400, 20_000, RngState(55))
        r_small = hill_avar_sre(small)
        r_large = hill_avar_sre(large)
        diff = r_large.variance - r_small.variance
        assert 0.0 <= diff <= r_small.tail_bound + 1e-4

    def test_horizon_too_small_raises(self):
        short = simulate_walks(DRIVER, 1.0, 20, 1000, RngState(56))
        with pytest.raises(HorizonTooSmallError):
            hill_avar_sre(short)

    @pytest.mark.parametrize("law, kappa", [
        (TwoPointLaw(2.0, 0.5, 0.01), 3000.0),  # 2.0**1500 overflows
        (TwoPointLaw(2.0, 0.5, 0.01), 20.0),    # E A**10 = 10.24..., finite
        (LognormalLaw(-0.5, 1.0), 3000.0),     # exp of 1500**2/2 overflows
        (LognormalLaw(-0.5, 1.0), 1e200),      # (kappa/2)**2 overflows
    ])
    def test_no_horizon_bounds_a_moment_at_or_above_one(self, law, kappa):
        # paths that never step up keep every walk value finite, but
        # E A**(kappa/2) >= 1 bounds no omitted tail, at any horizon
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(HorizonTooSmallError, match=r"E A\*\*\(kappa/2\) = .* >= 1"):
                hill_avar_sre(hook(np.zeros((2, 3)), kappa=kappa, driver=SREDriver(law)))


def flat(result) -> np.ndarray:
    """Every number of a functional's result, in one array."""
    if isinstance(result, extremal.ExtremalSummary):
        result = (result.theta, result.theta_k, result.pi_k, result.mc_stderr["theta"],
                  result.mc_stderr["theta_k"], result.mc_stderr["pi_k"],
                  result.horizon_remainder)
    elif isinstance(result, extremal.HillAvarSRE):
        result = (result.variance, result.stderr, result.tail_bound)
    return np.concatenate([np.atleast_1d(np.asarray(part, dtype=np.float64)) for part in result])


# The whole-matrix forms the functionals had while the ensemble held its
# walk matrix, as they were written there, with `ensemble.paths` the matrix.

def matrix_extremal_index(ensemble, paths):
    capped_max = np.minimum(paths.max(axis=1), 1.0)
    mean, se = extremal._mean_se(capped_max)
    return 1.0 - mean, se


def matrix_cluster_size_probs(ensemble, paths, kmax):
    p = ensemble.n_paths
    count = kmax + 1
    part = np.partition(paths, paths.shape[1] - count, axis=1)[:, -count:]
    top = -np.sort(-part, axis=1)
    capped = np.empty((p, kmax + 2))
    capped[:, 0] = 1.0  # min(U_0, 1) convention
    np.minimum(top, 1.0, out=capped[:, 1:])
    diffs = capped[:, :-1] - capped[:, 1:]         # per-path theta_k terms, k=1..kmax+1
    theta_all = diffs.mean(axis=0)
    theta_all_se = diffs.std(axis=0, ddof=1) / np.sqrt(p)
    theta = float(theta_all[0])
    pi_terms = diffs[:, :-1] - diffs[:, 1:]        # per-path (theta_k - theta_{k+1})
    pi_k = pi_terms.mean(axis=0) / theta
    pi_se = pi_terms.std(axis=0, ddof=1) / (np.sqrt(p) * theta)
    return extremal.ExtremalSummary(
        theta=theta,
        theta_k=theta_all[:kmax].copy(),
        pi_k=pi_k,
        mc_stderr={"theta": float(theta_all_se[0]),
                   "theta_k": theta_all_se[:kmax].copy(),
                   "pi_k": pi_se},
        horizon_remainder=float(np.minimum(top[:, kmax], 1.0).mean()),
    )


def matrix_hill_avar_sre(ensemble, paths):
    kappa = ensemble.kappa
    per_path = np.minimum(paths, 1.0).sum(axis=1)
    mean, se = extremal._mean_se(per_path)
    r = float(ensemble.driver.law.moment(kappa / 2.0))  # E min(W_j, 1) <= r**j
    if r < 1.0:
        omitted = r ** (ensemble.horizon + 1) / (1.0 - r)
    else:
        omitted = float("inf")
    scale = kappa ** -2
    bound = 2.0 * scale * omitted
    return extremal.HillAvarSRE(variance=scale * (1.0 + 2.0 * mean),
                                stderr=2.0 * scale * se, tail_bound=bound)


def matrix_joint_exceedance(ensemble, paths, query):
    k = len(query.x)
    weights = np.asarray(query.x, dtype=np.float64) ** (-ensemble.kappa)
    segment = np.empty((ensemble.n_paths, k))
    segment[:, 0] = 1.0  # W_0
    segment[:, 1:] = paths[:, :k - 1]
    scaled = segment * weights[None, :]
    reduced = scaled.min(axis=1) if query.mode == "all" else scaled.max(axis=1)
    return extremal._mean_se(reduced)


class TestBlockedReductions:
    """The functionals, which reduce the ensemble a block of paths at a time
    or read its per-path summaries, equal their whole-matrix forms bit for
    bit, across block boundaries, on every kernel path."""

    # horizons at which the omitted-tail bound is below the tolerance:
    # 2 * r**151 / (1 - r) for r = E sqrt(A) = 2*sqrt(2)/3, and
    # 2 * r**81 / (1 - r) for r = exp(-1/8)
    @pytest.mark.parametrize("driver, horizon", [(DRIVER, 150),
                                                 (SREDriver(LognormalLaw(-0.5, 1.0)), 80)],
                             ids=["two-point", "lognormal"])
    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: "python" if k is
                             _kernel._PYTHON_KERNEL else "c")
    def test_equal_whole_matrix(self, driver, horizon, kernel):
        kappa = solve_kappa(driver)
        queries = [JointExceedanceQuery(x, mode) for mode in ("all", "some")
                   for x in ((1.0, 1.0), (0.5, 2.0, 1.0, 3.0), (1.5,) * (horizon + 1))]
        with mock.patch.object(_kernel, "_KERNEL", kernel):
            ens = simulate_walks(driver, kappa, horizon, 2 * _PATH_BLOCK + 5, RngState(57))
            paths = walk_matrix(ens)
            assert_same_bits(flat(extremal_index(ens)), flat(matrix_extremal_index(ens, paths)))
            for kmax in (1, 2, 6, 20):
                assert_same_bits(flat(cluster_size_probs(ens, kmax)),
                                 flat(matrix_cluster_size_probs(ens, paths, kmax)))
            assert_same_bits(flat(hill_avar_sre(ens)), flat(matrix_hill_avar_sre(ens, paths)))
            for query in queries:
                assert_same_bits(flat(joint_exceedance(ens, query)),
                                 flat(matrix_joint_exceedance(ens, paths, query)))

    def test_joint_on_first_steps_equals_matrix_prefix(self):
        # a query of k thresholds regenerates W_1..W_{k-1} only; that equals
        # an ensemble holding just the first k-1 columns of the whole matrix
        ens = simulate_walks(DRIVER, 1.0, 60, 2 * _PATH_BLOCK + 5, RngState(58))
        paths = walk_matrix(ens)
        for x in ((1.0, 1.0), (2.0, 0.3, 1.0, 1.0), (0.8,) * 61):
            for mode in ("all", "some"):
                query = JointExceedanceQuery(x, mode)
                assert_same_bits(flat(joint_exceedance(ens, query)),
                                 flat(joint_exceedance(hook(paths[:, :len(x) - 1]), query)))


class TestThreadCounts:
    """The walk passes run on every usable CPU, and every functional gives the
    same bits whatever their number, on every kernel path and for both laws."""

    @pytest.mark.parametrize("driver, horizon", [(DRIVER, 150),
                                                 (SREDriver(LognormalLaw(-0.5, 1.0)), 80)],
                             ids=["two-point", "lognormal"])
    def test_same_bits_at_any_thread_count(self, monkeypatch, driver, horizon):
        kappa, n_paths = solve_kappa(driver), 2 * _PATH_BLOCK + 5
        queries = [JointExceedanceQuery(x, mode) for mode in ("all", "some")
                   for x in ((1.0, 1.0), (0.5, 2.0, 1.0), (1.5,) * (horizon + 1))]

        def run():
            ens = simulate_walks(driver, kappa, horizon, n_paths, RngState(60))
            paths = walk_matrix(ens)
            for query in queries:  # value-sized blocks: k = 2, 3 and horizon + 1
                assert_same_bits(flat(joint_exceedance(ens, query)),
                                 flat(matrix_joint_exceedance(ens, paths, query)))
            return np.concatenate([ens.maxima, ens.capped_sums, flat(extremal_index(ens)),
                                   flat(cluster_size_probs(ens, 1)),
                                   flat(cluster_size_probs(ens, 20)), flat(hill_avar_sre(ens)),
                                   *(flat(joint_exceedance(ens, query)) for query in queries)])

        outcomes = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(simulate, "_usable_cpus", lambda cpus=cpus: cpus)
            outcomes.append(same_on_every_kernel(run))
        for other in outcomes[1:]:
            assert_same_bits(other, outcomes[0])


def kernel_capped_top(rows, k):
    count, n = rows.shape
    capped = np.empty((count, k + 1))
    _kernel._KERNEL.capped_top(rows, count, n, k, capped)
    return capped


def sorted_capped_top(rows, k):
    """1.0, then the k largest of min(row, 1) in descending order, by a full sort."""
    top = -np.sort(-np.minimum(rows, 1.0), axis=1)[:, :k]
    return np.hstack([np.ones((rows.shape[0], 1)), top])


def kernel_cluster_moments(capped):
    count, width = capped.shape
    out = np.empty(2 * (width - 1) + 2 * (width - 2))
    theta_mean, theta_sd, pi_mean, pi_sd = np.split(
        out, np.cumsum([width - 1, width - 1, width - 2]))
    _kernel._KERNEL.cluster_moments(capped, count, width, theta_mean, theta_sd, pi_mean, pi_sd)
    return out


def numpy_cluster_moments(capped):
    """Mean and std(ddof=1) over the paths of the arrays of per-path theta and pi terms."""
    diffs = capped[:, :-1] - capped[:, 1:]
    pi_terms = diffs[:, :-1] - diffs[:, 1:]
    return np.concatenate([diffs.mean(axis=0), diffs.std(axis=0, ddof=1),
                           pi_terms.mean(axis=0), pi_terms.std(axis=0, ddof=1)])


class TestClusterKernels:
    """``capped_top`` and ``cluster_moments`` agree on every kernel path with
    a full sort and with numpy's mean and std over the arrays of terms."""

    @pytest.mark.parametrize("rows, k", [
        (np.arange(40).reshape(4, 10) % 3 / 2.0, 4),            # ties, values >= 1
        (np.full((3, 7), 0.25), 3),                              # one value, all tied
        (np.linspace(0.1, 3.0, 60).reshape(3, 20), 5),           # rising: every value enters
        (np.linspace(0.9, 0.01, 60).reshape(3, 20), 5),          # falling: none enters
        (np.linspace(0.9, 0.01, 60).reshape(3, 20)[:, ::-1].copy(), 20),  # k = n
        (np.array([[0.3], [1.0], [7.0], [0.0]]), 1),             # n = 1
        (np.zeros((5, 12)), 6),                                  # all-zero rows
        (np.array([[2.0, 0.5, 1.0, 0.5, 3.0, 0.25, 1.0, 0.5]]), 6),
    ], ids=["ties", "tied", "rising", "falling", "k-is-n", "n-is-1", "zero", "mixed"])
    def test_capped_top_edges(self, rows, k):
        assert_same_bits(same_on_every_kernel(lambda: kernel_capped_top(rows, k)),
                         sorted_capped_top(rows, k))

    @pytest.mark.parametrize("k", [1, 2, 21, 80])
    def test_capped_top_on_walks(self, k):
        ens = simulate_walks(SREDriver(LognormalLaw(-0.5, 1.0)), 1.0, 80, 300, RngState(60))
        rows = walk_matrix(ens)
        assert_same_bits(same_on_every_kernel(lambda: kernel_capped_top(rows, k)),
                         sorted_capped_top(rows, k))

    @pytest.mark.parametrize("n_paths", [2, 3, _PATH_BLOCK, 2 * _PATH_BLOCK + 5])
    @pytest.mark.parametrize("kmax", [1, 2, 6, 20, 39])  # 39: horizon - 1
    def test_cluster_moments_equal_numpy(self, n_paths, kmax):
        ens = simulate_walks(DRIVER, 1.0, 40, n_paths, RngState(61))
        walks = sorted_capped_top(walk_matrix(ens), kmax + 1)
        # descending values with every bit pattern, not only powers of two
        noise = -np.sort(-np.random.default_rng(n_paths).random((n_paths, kmax + 2)), axis=1)
        for capped in (walks, noise):
            assert_same_bits(same_on_every_kernel(lambda: kernel_cluster_moments(capped)),
                             numpy_cluster_moments(capped))

    def test_cluster_moments_sum_one_column_pairwise(self):
        # at kmax = 1 the pi terms are one column, which numpy sums as a 1-d
        # array, pairwise; its blocks of 128 and their halving reach down here
        capped = -np.sort(-np.random.default_rng(62).random((100_003, 3)), axis=1)
        assert_same_bits(same_on_every_kernel(lambda: kernel_cluster_moments(capped)),
                         numpy_cluster_moments(capped))


# 10,000 x 1,000 walk values are an 80 MB matrix; the ensemble holds two
# per-path arrays and one block of paths at a time, and the cluster sizes
# one row of kmax+2 capped values per path
MEMORY_PATHS, MEMORY_HORIZON = 10_000, 1_000


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: "python" if k is
                         _kernel._PYTHON_KERNEL else "c")
def test_theta_and_hill_avar_memory_stays_below_the_matrix(kernel):
    def run():
        ens = simulate_walks(DRIVER, 1.0, MEMORY_HORIZON, MEMORY_PATHS, RngState(59))
        extremal_index(ens)
        hill_avar_sre(ens)

    with mock.patch.object(_kernel, "_KERNEL", kernel):
        assert traced_peak(run) < MEMORY_PATHS * MEMORY_HORIZON * 8 / 4


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: "python" if k is
                         _kernel._PYTHON_KERNEL else "c")
def test_cluster_sizes_memory_stays_below_the_matrix(kernel):
    with mock.patch.object(_kernel, "_KERNEL", kernel):
        ens = simulate_walks(DRIVER, 1.0, MEMORY_HORIZON, MEMORY_PATHS, RngState(59))
        assert traced_peak(lambda: cluster_size_probs(ens, 20)) < (
            MEMORY_PATHS * MEMORY_HORIZON * 8 / 4)


class TestJointExceedance:
    def test_k1_exact(self, ensemble):
        for mode in ("all", "some"):
            for x0 in (0.5, 1.0, 3.0):
                limit, se = joint_exceedance(ensemble, JointExceedanceQuery((x0,), mode))
                assert limit == x0 ** -1.0
                assert se == 0.0

    def test_hand_values_at_unit_thresholds(self, ensemble):
        allv, se_a = joint_exceedance(ensemble, JointExceedanceQuery((1.0, 1.0), "all"))
        somev, se_s = joint_exceedance(ensemble, JointExceedanceQuery((1.0, 1.0), "some"))
        assert allv == pytest.approx(2.0 / 3.0, abs=0.005)
        assert somev == pytest.approx(4.0 / 3.0, abs=0.005)
        assert se_a < 0.002 and se_s < 0.002

    def test_homogeneity(self, ensemble):
        base = (1.0, 2.0, 0.7)
        for mode in ("all", "some"):
            v1, _ = joint_exceedance(ensemble, JointExceedanceQuery(base, mode))
            c = 3.0
            v2, _ = joint_exceedance(ensemble,
                                     JointExceedanceQuery(tuple(c * x for x in base), mode))
            assert v2 == pytest.approx(c ** -1.0 * v1, rel=1e-12)

    def test_all_below_some(self, ensemble):
        for x in ((1.0, 1.0, 1.0), (0.5, 2.0), (2.0, 0.3, 1.0, 1.0)):
            av, _ = joint_exceedance(ensemble, JointExceedanceQuery(x, "all"))
            sv, _ = joint_exceedance(ensemble, JointExceedanceQuery(x, "some"))
            assert av <= sv

    def test_constant_threshold_is_scaled_segment_extreme(self, ensemble):
        # for x_j = x the limit is x**-kappa times the unit-threshold value
        for mode in ("all", "some"):
            unit, _ = joint_exceedance(ensemble, JointExceedanceQuery((1.0,) * 4, mode))
            scaled, _ = joint_exceedance(ensemble, JointExceedanceQuery((2.5,) * 4, mode))
            assert scaled == pytest.approx(2.5 ** -1.0 * unit, rel=1e-12)

    def test_non_finite_limit_raises(self):
        # at kappa 3, 1e-300**-3 is beyond the largest double: no finite limit
        ens = simulate_walks(DRIVER, 3.0, 20, 500, RngState(61))
        for x in ((1e-300,), (1e-300, 1.0)):
            for mode in ("all", "some") if len(x) == 1 else ("some",):
                with pytest.raises(DomainError, match="not finite"):
                    joint_exceedance(ens, JointExceedanceQuery(x, mode))
        # all thresholds exceeded: W_0's infinite weight drops out of the minimum
        query = JointExceedanceQuery((1e-300, 1.0), "all")
        limit, se = joint_exceedance(ens, query)
        assert np.isfinite(limit) and np.isfinite(se)
        with np.errstate(over="ignore"):
            expected = matrix_joint_exceedance(ens, walk_matrix(ens), query)
        assert_same_bits(flat((limit, se)), flat(expected))

    def test_query_validation(self, ensemble):
        with pytest.raises(ConfigurationError):
            JointExceedanceQuery((1.0, -1.0), "all")
        with pytest.raises(ConfigurationError):
            JointExceedanceQuery((1.0,), "any")
        with pytest.raises(ConfigurationError):
            joint_exceedance(ensemble, JointExceedanceQuery((1.0,) * 202, "all"))
