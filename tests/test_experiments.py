"""Monte Carlo harness: conventions, aggregation identities, determinism, KDE."""

import dataclasses
import math
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from multiprocessing import active_children, get_all_start_methods, get_context

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tailseries import (
    ConfigurationError,
    DegenerateInputError,
    DomainError,
    ExperimentSpec,
    RngState,
    SimulationError,
    SREDriver,
    TwoPointLaw,
    empirical_quantile,
    fit_ar1,
    kde,
    linear_ar1,
    nonlinear_ar1,
    quantile_fn,
    run_quantile_experiment,
    sample_acf,
    shifted_two_sided_pareto,
    simulate_series,
    sre_model,
    summarize_estimates,
    true_quantile,
    two_sided_pareto,
)
from tailseries import experiments, simulate
from tailseries import test_power_experiment as power_experiment
from tailseries.distributions import InnovationSpec
from tailseries.experiments import DIRECT, silverman_bandwidth
from scipy.special import ndtri
from conftest import run_python

MODEL_A = two_sided_pareto(0.5, 0.5)
MODEL_B = shifted_two_sided_pareto(0.3, 0.5)


class TestEmpiricalQuantile:
    def test_median_convention(self):
        assert empirical_quantile(np.arange(1, 11), 0.5) == 5.0

    def test_ceiling_convention(self):
        assert empirical_quantile(np.arange(1, 11), 0.95) == 10.0

    def test_always_an_element(self):
        x = RngState(3).uniforms(97)
        for q in (0.01, 0.37, 0.5, 0.93, 0.999):
            assert empirical_quantile(x, q) in x
        assert np.array_equal(x, RngState(3).uniforms(97))  # left unsorted

    def test_domain(self):
        with pytest.raises(ConfigurationError):
            empirical_quantile([1.0, 2.0], 0.0)

    def test_empty_series(self):
        with pytest.raises(DomainError, match="empty"):
            empirical_quantile([], 0.5)


class TestTrueQuantile:
    def test_iid_closed_form(self):
        # phi = 0: the series is i.i.d., so the target quantile is exact
        model = linear_ar1(0.0, MODEL_A, burnin=0)
        value, half_width = true_quantile(model, 0.001, 30, 200_000, RngState(100))
        exact = quantile_fn(MODEL_A, 0.999)
        assert exact == pytest.approx((2 * 0.001) ** -0.5, rel=1e-12)
        assert abs(value - exact) < max(half_width, 0.02 * exact)

    def test_truth_stage_selects_in_place(self):
        # each truth series is folded block by block into its largest values,
        # to the same order statistic `empirical_quantile` selects from a copy
        model = linear_ar1(0.8, MODEL_B, burnin=100)
        rng = RngState(12)
        selected = experiments._map_series(
            partial(experiments._fold_quantiles, size=50_000, q=1.0 - 0.001),
            model, 50_000, rng, 3, 1, blocks=True)
        for i in range(3):
            series = simulate_series(model, 50_000, rng.substream(i))
            assert selected[i] == empirical_quantile(series, 0.999)

    def test_exceedance_precondition(self):
        model = linear_ar1(0.0, MODEL_A, burnin=0)
        with pytest.raises(ConfigurationError):
            true_quantile(model, 0.001, 5, 50_000, RngState(1))


BLOCK = simulate._DRAW_BLOCK
STUDY_MODELS = {f"{variant}-{label}": (linear_ar1(0.8, law) if variant == "linear"
                                       else nonlinear_ar1(0.8, 0.6, law))
                for variant in ("linear", "nonlinear")
                for label, law in experiments.INNOVATIONS.items()}


def whole_series_truth(model, t, n_reps, n, rng):
    """`true_quantile` from whole series: `empirical_quantile` of each
    `simulate_series`, reduced as `true_quantile` reduces them."""
    q = np.array([empirical_quantile(simulate_series(model, n, rng.substream(i)), 1.0 - t)
                  for i in range(n_reps)])
    return float(q.mean()), float(2.58 * q.std(ddof=1) / math.sqrt(n_reps))


# the models of `test_group_raises_lowest_series_error`
FAULT_NONLINEAR = nonlinear_ar1(0.8, 0.6, MODEL_A, burnin=100)
FAULT_SRE = sre_model(SREDriver(TwoPointLaw(2.0, 0.5, 1.0 / 3.0),
                                InnovationSpec("two-sided-pareto", gamma=0.25, p=1.0)), burnin=100)


class TestFoldedTruth:
    """The truth stage folds each block of a series into its largest values,
    and gives the bytes of selecting the quantile from the whole series."""

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.integers(-3, 3), min_size=1, max_size=60),
           cuts=st.lists(st.integers(0, 60), max_size=6), q=st.floats(0.001, 0.999))
    def test_fold_equals_partition_for_any_blocks(self, values, cuts, q):
        # few distinct values, so most ranks fall on ties; each row of the
        # blocks is folded on its own
        rows = np.array([values, values[::-1], np.negative(values)], dtype=np.float64)
        blocks = np.split(rows, sorted(c for c in cuts if c <= len(values)), axis=1)
        m = min(max(math.ceil(q * len(values)), 1), len(values)) - 1
        assert (experiments._fold_quantiles(iter(blocks), len(values), q)
                == [np.partition(x, m)[m] for x in rows])

    @pytest.mark.parametrize("model", STUDY_MODELS.values(), ids=STUDY_MODELS)
    @pytest.mark.parametrize("burnin, n, t", [
        (100, 5_000, 0.02),                 # the series is less than one block
        (2 * BLOCK - 50, BLOCK, 0.002),     # the burn-in ends 50 steps before a block does
        (1_000, 3 * BLOCK - 1_000, 0.001),  # burnin + n is a whole number of blocks
        (100, BLOCK + 500, 1 - 1e-7),       # the whole series is kept: size - m = n
    ], ids=["below-one-block", "burnin-inside-block", "whole-blocks", "keep-all"])
    def test_truth_equals_whole_series_quantiles(self, model, burnin, n, t):
        model = dataclasses.replace(model, burnin=burnin)
        rng = RngState(17)
        assert true_quantile(model, t, 2, n, rng) == whole_series_truth(model, t, 2, n, rng)

    def test_tied_values(self, monkeypatch):
        # phi = 0 passes the innovations through: a few values repeated, in
        # every block
        def tied_sample(spec, rng, n, out):
            out[...] = np.resize([3.0, 1.0, 2.0, 3.0, 2.0, 1.0, 3.0, 2.5], n)
            return out

        monkeypatch.setattr(simulate.dists, "sample", tied_sample)
        model = linear_ar1(0.0, MODEL_A, burnin=10)
        for t in (0.001, 0.3, 0.5, 0.9):
            truth = true_quantile(model, t, 2, 2 * BLOCK + 7, RngState(2))
            assert truth == whole_series_truth(model, t, 2, 2 * BLOCK + 7, RngState(2))

    def test_nonfinite_series_raises_at_its_step(self, monkeypatch):
        at = BLOCK + 10  # a draw in the second block, past the burn-in
        real_sample = simulate.dists.sample

        def sample_with_nan(spec, rng, n, out):
            start = rng.state[1]
            real_sample(spec, rng, n, out=out)
            if start <= at < start + n:
                out[at - start] = np.nan
            return out

        monkeypatch.setattr(simulate.dists, "sample", sample_with_nan)
        model = nonlinear_ar1(0.8, 0.6, MODEL_A, burnin=100)
        with pytest.raises(SimulationError) as folded:
            true_quantile(model, 0.001, 2, 3 * BLOCK, RngState(4))
        with pytest.raises(SimulationError) as whole:
            simulate_series(model, 3 * BLOCK, RngState(4).substream(0))
        assert folded.value.step == whole.value.step == at

    @pytest.mark.parametrize("workers, model", [
        pytest.param(1, FAULT_NONLINEAR, id="1"), pytest.param(2, FAULT_NONLINEAR, id="2"),
        pytest.param(3, FAULT_NONLINEAR, id="3"), pytest.param(1, FAULT_SRE, id="sre-1"),
        pytest.param(2, FAULT_SRE, id="sre-2"), pytest.param(3, FAULT_SRE, id="sre-3")])
    def test_group_raises_lowest_series_error(self, workers, model, monkeypatch):
        # in a group of 4, series 2 meets a nan in the first block and series
        # 0 one in the third: a serial run raises series 0's error first. At 2
        # workers the pool steps series 0-1 and the calling process series
        # 2-3, whose earlier error must wait for series 0's; at 3 the pool's
        # two processes step both groups.
        if workers > 1:
            # the patched `sample` reaches pool workers only by fork
            if "fork" not in get_all_start_methods():
                pytest.skip("no fork start method")
            monkeypatch.setattr(experiments, "ProcessPoolExecutor",
                                partial(ProcessPoolExecutor, mp_context=get_context("fork")))
            monkeypatch.setattr(experiments, "_usable_cpus", lambda: workers)
        root = RngState(4)
        width = BLOCK // 4
        n = 3 * width
        # a step's innovation, or the SRE's B_t, which follows the burn-in + n
        # multipliers and the start value
        first = model.burnin + n + 1 if model.variant == simulate.SRE else 0
        faults = {root.substream(2).state[0]: first + 100,
                  root.substream(0).state[0]: first + 2 * width + 10}
        real_sample = simulate.dists.sample

        def sample_with_nan(spec, rng, n, out):
            start, at = rng.state[1], faults.get(rng.state[0])
            real_sample(spec, rng, n, out=out)
            if at is not None and start <= at < start + n:
                out[at - start] = np.nan
            return out

        monkeypatch.setattr(simulate.dists, "sample", sample_with_nan)
        alone = {}
        for i in (2, 0):
            with pytest.raises(SimulationError) as err:
                simulate_series(model, n, root.substream(i))
            alone[i] = err.value
        assert (alone[2].step, alone[0].step) == (100, 2 * width + 10)
        with pytest.raises(SimulationError) as truth:
            true_quantile(model, 0.01, 4, n, root, workers=workers)
        spec = ExperimentSpec(model=model, n=n, replicates=4, k_grid=(10, 25), t=0.005,
                              master_seed=4)
        with pytest.raises(SimulationError) as replicates:
            run_quantile_experiment(spec, 20.0, workers=workers)
        for err in (truth.value, replicates.value):
            assert (err.step, str(err)) == (alone[0].step, str(alone[0]))
        if model.variant == simulate.SRE:
            assert str(alone[0]) == f"non-finite value in stochastic recurrence (step {alone[0].step})"

    def test_holds_less_than_one_series(self):
        # 8 series run in two groups of 4, each holding one block of draws in
        # total (BLOCK * 8 bytes), not one block per series
        n = 2_000_000
        model = linear_ar1(0.8, MODEL_A)
        tracemalloc.start()
        try:
            true_quantile(model, 0.001, 8, n, RngState(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n
        assert peak < 3 * BLOCK * 8


class TestSummaries:
    def test_constant_offset_hook(self):
        # synthetic estimator always returning truth + 1
        estimates = np.full((40, 1, 3), 11.0)
        summary = summarize_estimates(("direct",), (10, 20, 30), estimates, 10.0)
        assert np.all(summary.rmse == 1.0)
        assert np.all(summary.l1 == 1.0)
        assert np.all(summary.bias == 1.0)
        assert np.all(summary.stderr == 0.0)
        assert np.all(summary.missing == 0)

    def test_moment_identity_and_jensen(self):
        gen = np.random.default_rng(42)
        estimates = gen.lognormal(1.0, 1.0, size=(100, 2, 5))
        estimates[gen.random(estimates.shape) < 0.1] = np.nan
        summary = summarize_estimates(("direct", "model-based"), (1, 2, 3, 4, 5),
                                      estimates, 3.0)
        completed = np.sum(~np.isnan(estimates), axis=0)
        lhs = summary.rmse**2
        rhs = summary.bias**2 + summary.stderr**2 * (completed - 1) / completed
        assert np.allclose(lhs, rhs, rtol=1e-9)
        assert np.all(summary.l1 <= summary.rmse + 1e-12)
        assert np.array_equal(summary.missing, 100 - completed)

    def test_argmin_points_into_grid(self):
        gen = np.random.default_rng(7)
        estimates = gen.normal(5.0, 1.0, size=(30, 1, 4))
        summary = summarize_estimates(("direct",), (10, 50, 100, 200), estimates, 5.0)
        k, value = summary.argmin_rmse["direct"]
        assert k in (10, 50, 100, 200)
        assert value == np.nanmin(summary.rmse)

    def test_all_missing_column(self):
        estimates = np.full((10, 1, 2), np.nan)
        estimates[:, 0, 0] = 1.0
        summary = summarize_estimates(("direct",), (5, 10), estimates, 1.0)
        assert summary.missing[0, 1] == 10
        assert np.isnan(summary.rmse[0, 1])
        assert summary.argmin_rmse["direct"][0] == 5


SMALL_SPEC = ExperimentSpec(
    model=linear_ar1(0.8, MODEL_A, burnin=500), n=400, replicates=24,
    k_grid=(10, 25, 50, 100), t=0.005, master_seed=99)


# Each Monte Carlo stage as a function of (replicates, workers), returning the
# values that must not depend on the worker count.
def _truth_stage(replicates, workers):
    model = nonlinear_ar1(0.8, 0.6, MODEL_B, burnin=100)
    return true_quantile(model, 0.01, max(replicates, 2), 10_000, RngState(5),
                         workers=workers)


def _replicate_stage(replicates, workers):
    spec = dataclasses.replace(SMALL_SPEC, replicates=max(replicates, 2))
    summary = run_quantile_experiment(spec, 20.0, workers=workers, keep_estimates=True)
    return summary.estimates, summary.rmse, summary.clamp_count


def _power_stage(replicates, workers):
    model = nonlinear_ar1(0.8, 0.6, MODEL_B, burnin=100)
    report = power_experiment(model, 400, replicates, RngState(81), workers=workers)
    return report.turning_point, report.difference_sign, report.portmanteau_by_h


STAGES = {"truth": _truth_stage, "replicates": _replicate_stage, "power": _power_stage}


def recording_pool(monkeypatch, cpus):
    """Make `_map_series` see ``cpus`` usable CPUs and run its pool in this
    process; returns the list to which each pool, when it is made, appends
    its processes and the list of its maps, each the chunk size and the first
    series of each group the pool was handed."""
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            self.maps = []
            pools.append((max_workers, self.maps))

        def map(self, fn, iterable, chunksize=1):
            self.maps.append((chunksize, list(iterable)))
            return map(fn, iterable)

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
    return pools


def _identical(a, b):
    return all(np.array_equal(x, y, equal_nan=True) for x, y in zip(a, b, strict=True))


each_stage = pytest.mark.parametrize("stage", STAGES.values(), ids=list(STAGES))
START_METHODS = [method for method in ("fork", "spawn") if method in get_all_start_methods()]


class TestRunExperiment:
    def test_spec_needs_two_replicates(self):
        with pytest.raises(ConfigurationError, match="2 replicates"):
            dataclasses.replace(SMALL_SPEC, replicates=1)

    @pytest.mark.parametrize("k_grid, match", [
        ((10, 50, 399), r"1 <= k <= n - 2: an AR\(1\) fit leaves n - 1 residuals"),
        ((10, 50.5), "whole number"),
        ((10, "50"), "whole number"),
    ], ids=["n-1", "fraction", "string"])
    def test_spec_takes_whole_k_up_to_n_minus_2(self, k_grid, match):
        # k = n - 1 left the model-based row missing at every k of the study
        dataclasses.replace(SMALL_SPEC, k_grid=(1, 50.0, 398))
        with pytest.raises(ConfigurationError, match=match):
            dataclasses.replace(SMALL_SPEC, k_grid=k_grid)

    @pytest.mark.parametrize("k_grid", [(10, 50), np.array([10, 50])], ids=["tuple", "array"])
    def test_spec_takes_a_numpy_grid_and_refuses_an_empty_one(self, k_grid):
        assert list(dataclasses.replace(SMALL_SPEC, k_grid=k_grid).k_grid) == [10, 50]
        with pytest.raises(ConfigurationError, match="k_grid must be nonempty"):
            dataclasses.replace(SMALL_SPEC, k_grid=k_grid[:0])

    def test_deterministic_rerun(self):
        a = run_quantile_experiment(SMALL_SPEC, 20.0, keep_estimates=True)
        b = run_quantile_experiment(SMALL_SPEC, 20.0, keep_estimates=True)
        assert np.array_equal(a.estimates, b.estimates, equal_nan=True)

    @each_stage
    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_workers_do_not_change_results(self, stage, start_method, monkeypatch):
        # spawn, the default on macOS and Windows, starts each worker from a
        # fresh interpreter; fork copies this one
        monkeypatch.setattr(experiments, "ProcessPoolExecutor",
                            partial(ProcessPoolExecutor, mp_context=get_context(start_method)))
        assert _identical(stage(24, 1), stage(24, 3))

    @each_stage
    @settings(max_examples=10, deadline=None)
    @given(replicates=st.integers(1, 9), workers=st.integers(1, 3))
    def test_any_worker_count_matches_serial(self, stage, replicates, workers):
        assert _identical(stage(replicates, workers), stage(replicates, 1))

    @each_stage
    def test_pool_capped_at_cpu_count(self, stage, monkeypatch):
        pools = recording_pool(monkeypatch, cpus=4)
        capped = stage(24, 10**6)
        # 4 processes compute: 24 substreams in 6 groups of 4, the pool's 3
        # processes handed the leading 5 in chunks of ceil(5 / 12), the
        # calling process stepping the trailing 6 // 4 = 1 (first series 20)
        assert pools == [(3, [(1, [0, 4, 8, 12, 16])])]
        assert _identical(capped, stage(24, 1))

    # firsts: the first series of each group the pool is handed; the calling
    # process steps the groups after them
    @pytest.mark.parametrize("count, workers, firsts", [
        (4, 2, [0]),          # every process gets a group of 2: the caller's is 2
        (9, 2, [0, 4]),       # at most 4 series step together: the caller's is 8
        (5, 3, [0, 2]),       # ceil(5 / 3) = 2, the caller's group (4) holds one
    ])
    def test_group_rule(self, count, workers, firsts, monkeypatch):
        pools = recording_pool(monkeypatch, cpus=workers)
        grouped = _truth_stage(count, workers)
        assert pools == [(workers - 1, [(1, firsts)])]
        assert _identical(grouped, _truth_stage(count, 1))

    def test_csv_rows_schema(self):
        summary = run_quantile_experiment(SMALL_SPEC, 20.0)
        rows = list(summary.csv_rows())
        assert len(rows) == 2 * 4
        name, k, *metrics, missing = rows[0]
        assert name == DIRECT and k == 10 and len(metrics) == 4


# The parallel presets at a tiny size: a 4 x 100,000-step truth per law and 8
# replicates. Their stages: table2's truth and replicates for each of its two
# laws, figure4's truth and replicates for one law, power's power and size.
TINY_SCALE = "tiny"
PRESET_STAGES = {"table2": 4, "figure4": 2, "power": 2}
each_parallel_preset = pytest.mark.parametrize("preset", PRESET_STAGES)
needs_fork = pytest.mark.skipif("fork" not in get_all_start_methods(),
                                reason="no fork start method")


@pytest.fixture
def tiny_scale(monkeypatch):
    monkeypatch.setitem(experiments.TRUTH_PROTOCOL, TINY_SCALE, (4, 100_000))


def run_tiny_preset(preset, out_dir, workers):
    """The files of ``preset`` at the tiny size, by name."""
    experiments.run_preset(preset, out_dir, replicates=8, seed=3, scale=TINY_SCALE,
                           workers=workers)
    return {path.relative_to(out_dir): path.read_bytes()
            for path in sorted(out_dir.rglob("*")) if path.is_file()}


def fork_pools(monkeypatch):
    """Run `_map_series` pools as fork pools; returns the list to which each
    pool appends its processes when it is made."""
    started = []

    def pool(max_workers):
        started.append(max_workers)
        return ProcessPoolExecutor(max_workers=max_workers, mp_context=get_context("fork"))

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", pool)
    return started


@pytest.mark.usefixtures("tiny_scale")
class TestPresetPool:
    """A preset run shares one pool of ``workers - 1`` processes among all
    of its stages, and leaves no process behind."""

    @each_parallel_preset
    def test_one_pool_per_preset(self, preset, monkeypatch, tmp_path):
        pools = recording_pool(monkeypatch, cpus=2)
        run_tiny_preset(preset, tmp_path, workers=2)
        assert [processes for processes, _ in pools] == [1]
        assert len(pools[0][1]) == PRESET_STAGES[preset]

    def test_serial_preset_starts_no_pool(self, monkeypatch, tmp_path):
        pools = recording_pool(monkeypatch, cpus=2)
        run_tiny_preset("table2", tmp_path, workers=1)
        assert pools == []

    @needs_fork
    @each_parallel_preset
    def test_preset_bytes_do_not_depend_on_workers(self, preset, monkeypatch, tmp_path):
        serial = run_tiny_preset(preset, tmp_path / "w1", workers=1)
        started = fork_pools(monkeypatch)
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 3)
        for workers in (2, 3):
            assert run_tiny_preset(preset, tmp_path / f"w{workers}", workers) == serial
        assert started == [1, 2]
        assert active_children() == []

    @needs_fork
    def test_no_process_outlives_a_failed_preset(self, monkeypatch, tmp_path):
        # a nan in the shifted law's replicate 1, the last stage of table2:
        # a pool process raises while the calling process steps replicates 4-7
        fault = RngState(RngState(3).derive_seed(1)).substream(1).state[0]
        at = experiments.STUDY_N // 2
        real_sample = simulate.dists.sample

        def sample_with_nan(spec, rng, n, out):
            start = rng.state[1]
            real_sample(spec, rng, n, out=out)
            if rng.state[0] == fault and start <= at < start + n:
                out[at - start] = np.nan
            return out

        started = fork_pools(monkeypatch)
        monkeypatch.setattr(simulate.dists, "sample", sample_with_nan)
        with pytest.raises(SimulationError):
            run_tiny_preset("table2", tmp_path / "failed", workers=2)
        assert started == [1]
        assert active_children() == []
        assert (tmp_path / "failed" / "unshifted" / "summary.json").is_file()
        assert not (tmp_path / "failed" / "shifted").exists()
        # the scope closed with the error, so the next run starts a pool of its own
        monkeypatch.setattr(simulate.dists, "sample", real_sample)
        run_tiny_preset("table2", tmp_path / "next", workers=2)
        assert started == [1, 1]
        assert active_children() == []


class TestKde:
    def test_normal_density_at_zero(self):
        z = ndtri(RngState(55).uniforms(10_000))
        h = silverman_bandwidth(z)
        est = kde(z, grid=np.linspace(z.min() - 3 * h, z.max() + 3 * h, 512))
        at0 = np.interp(0.0, est.grid, est.density)
        assert at0 == pytest.approx(1 / np.sqrt(2 * np.pi), rel=0.05)

    def test_integrates_to_one_on_wide_grid(self):
        z = ndtri(RngState(56).uniforms(2000))
        h = silverman_bandwidth(z)
        grid = np.linspace(z.min() - 5 * h, z.max() + 5 * h, 1024)
        est = kde(z, grid=grid)
        assert np.trapezoid(est.density, est.grid) == pytest.approx(1.0, abs=0.01)

    def test_shift_invariance(self):
        v = RngState(57).uniforms(500)
        h = silverman_bandwidth(v)
        base = kde(v, grid=np.linspace(v.min() - 3 * h, v.max() + 3 * h, 512))
        shifted = kde(v + 10.0, grid=base.grid + 10.0)
        assert shifted.bandwidth == pytest.approx(base.bandwidth, rel=1e-12)
        assert np.allclose(shifted.density, base.density, atol=1e-12)

    def test_degenerate_input(self):
        with pytest.raises(DegenerateInputError):
            kde(np.ones(50), grid=np.linspace(-2.0, 4.0, 512))

    def test_silverman_rule(self):
        v = ndtri(RngState(58).uniforms(4000))
        sd = v.std(ddof=1)
        iqr = np.subtract(*np.percentile(v, [75, 25])) * -1.0
        expected = 1.06 * min(sd, abs(iqr) / 1.34) * 4000 ** -0.2
        assert silverman_bandwidth(v) == pytest.approx(expected, rel=1e-12)


class TestPowerExperiment:
    def test_size_on_linear_model(self):
        model = linear_ar1(0.8, MODEL_B, burnin=2000)
        report = power_experiment(model, 1000, 300, RngState(81))
        assert report.turning_point == pytest.approx(0.05, abs=0.05)
        assert report.difference_sign == pytest.approx(0.05, abs=0.05)
        assert report.portmanteau_by_h.shape == (30,)
        assert report.portmanteau_max == report.portmanteau_by_h.max()

    def test_warns_on_infinite_variance_innovations(self):
        model = linear_ar1(0.5, MODEL_A, burnin=100)  # gamma = 0.5
        with pytest.warns(UserWarning, match="variance"):
            power_experiment(model, 200, 2, RngState(82))

    def test_requires_autoregressive_model(self):
        from tailseries import SREDriver, TwoPointLaw, sre_model
        model = sre_model(SREDriver(TwoPointLaw(2.0, 0.5, 1 / 3)))
        with pytest.raises(ConfigurationError):
            power_experiment(model, 100, 2, RngState(83))

    def test_pool_starts_after_scipy_special_is_imported(self):
        # in a fresh process, where nothing has imported scipy.special yet:
        # the pool's forked workers inherit it instead of each importing it
        proc = run_python(["-c", (
            "import sys\n"
            "from tailseries import RngState, _kernel, experiments, nonlinear_ar1\n"
            "print(_kernel.RECURSION_PATH, 'scipy.special' in sys.modules)\n"
            "class Pool:\n"
            "    def __init__(self, max_workers):\n"
            "        print('pool', 'scipy.special' in sys.modules)\n"
            "    def map(self, fn, iterable, chunksize=1):\n"
            "        return map(fn, iterable)\n"
            "    def shutdown(self, wait=True, cancel_futures=False):\n"
            "        pass\n"
            "experiments.ProcessPoolExecutor = Pool\n"
            "experiments._usable_cpus = lambda: 2\n"
            "model = nonlinear_ar1(0.8, 0.6, experiments.INNOVATIONS['shifted'], burnin=100)\n"
            "experiments.test_power_experiment(model, 400, 4, RngState(84), workers=2)\n")],
            text=True)
        assert proc.returncode == 0, proc.stderr
        start, pool = proc.stdout.splitlines()
        assert start in ("c False", "python False")
        assert pool == "pool True"


class TestFittedCoefficientOnNonlinearModel:
    def test_fit_is_the_lag_one_autocorrelation(self):
        # one arithmetic path: the same bits as the diagnostics' acf
        series = simulate_series(nonlinear_ar1(0.8, 0.6, MODEL_B), 2000, RngState(778))
        assert fit_ar1(series).hex() == float(sample_acf(series, 1)[0]).hex()

    def test_mean_fit_in_reported_band(self):
        model = nonlinear_ar1(0.8, 0.6, MODEL_B)
        root = RngState(777)
        fits = [fit_ar1(simulate_series(model, 2000, root.substream(r)))
                for r in range(150)]
        assert 0.96 <= np.mean(fits) <= 1.00
