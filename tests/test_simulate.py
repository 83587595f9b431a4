"""Series generators, walk ensembles, and the moment-exponent solver."""

import math
import shutil
import sys
import threading
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import lfilter

from tailseries import (
    ConfigurationError,
    NoRootError,
    RngState,
    SeriesModel,
    SimulationError,
    SREDriver,
    LognormalLaw,
    TwoPointLaw,
    linear_ar1,
    nonlinear_ar1,
    sample,
    shifted_two_sided_pareto,
    simulate_series,
    simulate_walks,
    solve_kappa,
    sre_model,
    two_sided_pareto,
)
from tailseries import _kernel, simulate
from tailseries.distributions import InnovationSpec
from tailseries.rng import uniforms_for_bases
from conftest import KERNELS, assert_same_bits, run_python, same_on_every_kernel, walk_matrix

MODEL_A = two_sided_pareto(0.5, 0.5)
TWO_POINT = SREDriver(TwoPointLaw(2.0, 0.5, 1.0 / 3.0))
POSITIVE_B = InnovationSpec("two-sided-pareto", gamma=0.25, p=1.0)


@pytest.fixture
def constant_innovations(monkeypatch):
    """``constant_innovations(c)`` makes every innovation draw equal ``c`` and
    returns a law to build the model with; its own draws are never used.
    ``c`` may also be a sequence, which each draw of ``n`` repeats to length ``n``.
    Like `sample`, the fake writes into ``out`` when it is given."""
    def use(value):
        value = np.asarray(value, dtype=np.float64)

        def constant_sample(spec, rng, n, out=None):
            if out is None:
                return np.resize(value, n)
            out[...] = np.resize(value, n)
            return out

        monkeypatch.setattr(simulate.dists, "sample", constant_sample)
        return MODEL_A
    return use


def reference_nonlinear(z, phi, delta):
    """The documented nonlinear AR(1) recursion from 0, in plain Python:
    ``phi*x + delta*sgn(x)*log(max(|x|, 1)) + z`` for each innovation ``z``."""
    x, state = [], 0.0
    for zt in np.asarray(z).tolist():
        s = 1.0 if state > 0 else (-1.0 if state < 0 else 0.0)
        state = phi * state + delta * s * math.log(max(abs(state), 1.0)) + zt
        x.append(state)
    return np.array(x)


HAVE_CC = shutil.which("cc") is not None


def simulate_both_paths(model, n, seed):
    """`simulate_series` on every kernel path, which must agree."""
    return same_on_every_kernel(lambda: simulate_series(model, n, RngState(seed)))


UP, DOWN = np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0)
# From a state in [-1, 1] with phi = 0 the next state is the innovation itself,
# so these drive the states through 0.0, +-1.0, the neighbours of +-1.0 just
# outside [-1, 1], a -0.0 * state meeting a +0.0 innovation, and large values.
EDGE_INNOVATIONS = [0.0, 1.0, -1.0, 0.25, UP, 0.25, DOWN, -0.25, 0.5, -0.5, 0.0,
                    3.0, -3.0, 0.75, 1e300, -1e300, 1e300]


class TestSeriesModels:
    def test_phi_zero_returns_innovations(self):
        model = linear_ar1(0.0, MODEL_A, burnin=0)
        series = simulate_series(model, 500, RngState(4))
        draws = sample(MODEL_A, RngState(4), 500)
        assert np.array_equal(series, draws)

    def test_nonlinear_delta_zero_bitwise_equals_linear(self):
        lin = simulate_both_paths(linear_ar1(0.8, MODEL_A, burnin=100), 2000, 9)
        non = simulate_both_paths(nonlinear_ar1(0.8, 0.0, MODEL_A, burnin=100), 2000, 9)
        assert_same_bits(lin, non)

    def test_constant_innovation_fixed_point(self, constant_innovations):
        model = linear_ar1(0.5, constant_innovations(1.0), burnin=100)
        series = simulate_series(model, 10, RngState(1))
        assert np.all(np.abs(series - 2.0) < 1e-12)

    def test_start_influence_bounded_geometrically(self, constant_innovations):
        # from start 0 the distance to the fixed point c/(1-phi) after B+1
        # steps is |phi|**(B+1) * |fixed point|
        phi, c = 0.8, 1.0
        fixed = c / (1 - phi)
        for burnin in (10, 20, 40):
            model = linear_ar1(phi, constant_innovations(c), burnin=burnin)
            first = simulate_series(model, 1, RngState(1))[0]
            assert abs(first - fixed) <= phi**burnin * fixed + 1e-12

    def test_burnin_is_discarded(self):
        long = simulate_series(linear_ar1(0.8, MODEL_A, burnin=0), 1500, RngState(5))
        short = simulate_series(linear_ar1(0.8, MODEL_A, burnin=1000), 500, RngState(5))
        assert np.array_equal(long[1000:], short)

    def test_stationarity_two_windows_agree(self):
        series = simulate_series(linear_ar1(0.8, MODEL_A, burnin=1000), 400_000, RngState(6))
        q1 = np.quantile(series[:200_000], [0.25, 0.5, 0.9])
        q2 = np.quantile(series[200_000:], [0.25, 0.5, 0.9])
        assert np.allclose(q1, q2, atol=0.12)

    def test_nonfinite_raises_simulation_error(self, constant_innovations):
        # an explosive nonlinear recursion overflows in finite time, at the
        # step where the documented formula does
        for delta in (0.0, 0.6, -0.6):
            model = nonlinear_ar1(3.0, delta, constant_innovations(1e300), burnin=0)
            with pytest.raises(SimulationError) as err:
                simulate_both_paths(model, 2000, 1)
            expected = reference_nonlinear(np.full(2000, 1e300), 3.0, delta)
            assert err.value.step == int(np.argmax(~np.isfinite(expected))) > 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("model, what", [
        (linear_ar1(0.8, MODEL_A, burnin=0), "linear AR(1) recursion"),
        (nonlinear_ar1(0.8, 0.6, MODEL_A, burnin=0), "nonlinear AR(1) recursion"),
        (sre_model(SREDriver(TWO_POINT.law, POSITIVE_B), burnin=0),
         "stochastic recurrence"),
    ], ids=["linear", "nonlinear", "sre"])
    def test_nonfinite_in_second_draw_block(self, monkeypatch, bad, model, what):
        # the state carried into the second block is finite; the bad draw
        # makes its own step the first non-finite one on every kernel
        at, n = simulate._DRAW_BLOCK + 10, 2 * simulate._DRAW_BLOCK
        # the draw of step `at`: its innovation, or the SRE's B_at, which
        # follows the n multipliers and the start value
        draw = at + (n + 1 if model.variant == simulate.SRE else 0)
        real_sample = simulate.dists.sample

        def sample_with_bad_draw(spec, rng, n, out=None):  # draw `draw` of the stream is `bad`
            start = rng.state[1]
            z = real_sample(spec, rng, n, out=out)
            if start <= draw < start + n:
                z[draw - start] = bad
            return z

        monkeypatch.setattr(simulate.dists, "sample", sample_with_bad_draw)
        with pytest.raises(SimulationError) as err:
            simulate_both_paths(model, n, 1)
        assert err.value.step == at
        assert str(err.value) == f"non-finite value in {what} (step {at})"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            linear_ar1(1.0, MODEL_A)
        for phi, delta in ((0.5, float("nan")), (0.5, float("inf")), (float("inf"), 0.5)):
            with pytest.raises(ConfigurationError):
                nonlinear_ar1(phi, delta, MODEL_A)
        with pytest.raises(ConfigurationError):
            SeriesModel("linear-ar1", phi1=0.5)  # no innovations
        with pytest.raises(ConfigurationError):
            simulate_series(linear_ar1(0.5, MODEL_A), 0, RngState(1))

    def test_json_round_trip(self):
        # model files in the README's schema
        innovations = {"kind": "two-sided-pareto", "gamma": 0.5, "p": 0.5}
        driver = {"law": {"kind": "two-point", "a_up": 2.0, "a_down": 0.5,
                          "p_up": 1.0 / 3.0},
                  "b": {"kind": "constant", "value": 1.0}}
        for obj, model in (
                ({"variant": "linear-ar1", "phi1": 0.8, "burnin": 55,
                  "innovations": innovations}, linear_ar1(0.8, MODEL_A, burnin=55)),
                ({"variant": "nonlinear-ar1", "phi1": 0.8, "delta": 0.6, "burnin": 10000,
                  "innovations": innovations}, nonlinear_ar1(0.8, 0.6, MODEL_A)),
                ({"variant": "sre", "driver": driver, "burnin": 7},
                 sre_model(TWO_POINT, burnin=7))):
            assert SeriesModel.from_json(obj) == model

    def test_json_integral_float_burnin_accepted(self):
        obj = {"variant": "linear-ar1", "phi1": 0.8, "burnin": 55.0,
               "innovations": {"kind": "two-sided-pareto", "gamma": 0.5, "p": 0.5}}
        model = SeriesModel.from_json(obj)
        assert model.burnin == 55 and isinstance(model.burnin, int)

    def test_json_unknown_key_rejected(self):
        obj = {"variant": "linear-ar1", "phi1": 0.8, "phi2": 0.1, "burnin": 10000,
               "innovations": {"kind": "two-sided-pareto", "gamma": 0.5, "p": 0.5}}
        with pytest.raises(ConfigurationError):
            SeriesModel.from_json(obj)


class TestNonlinearRecursion:
    """`simulate_series` steps the nonlinear AR(1) in three branches, in C and
    in Python; both must reproduce the documented sgn/max formula bit for bit."""

    @pytest.mark.parametrize("phi", [0.0, 0.5, -0.5, 0.9])
    @pytest.mark.parametrize("delta", [0.0, 0.6, -0.6, 1.0])
    def test_edge_states_match_formula(self, constant_innovations, phi, delta):
        z = np.array(EDGE_INNOVATIONS)
        model = nonlinear_ar1(phi, delta, constant_innovations(z), burnin=0)
        series = simulate_both_paths(model, z.size, 1)
        assert_same_bits(series, reference_nonlinear(z, phi, delta))
        if phi == 0.0:
            for value in (0.0, 1.0, -1.0, UP, DOWN):
                assert value in series
            assert np.abs(series).max() >= 1e300

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("phi, delta", [(0.0, 0.6), (0.5, -0.6), (0.9, 1.0)])
    def test_nonfinite_step_matches_formula(self, constant_innovations, bad, phi, delta):
        z = np.array(EDGE_INNOVATIONS[:5] + [bad] + EDGE_INNOVATIONS[5:])
        expected = reference_nonlinear(z, phi, delta)
        model = nonlinear_ar1(phi, delta, constant_innovations(z), burnin=0)
        with pytest.raises(SimulationError) as err:
            simulate_both_paths(model, z.size, 1)
        assert err.value.step == int(np.argmax(~np.isfinite(expected)))

    def test_matches_formula_across_draw_blocks(self):
        spec = shifted_two_sided_pareto(0.5, 0.5)
        total = 2 * simulate._DRAW_BLOCK + 123
        z = sample(spec, RngState(21), total)
        series = simulate_both_paths(nonlinear_ar1(0.8, 0.6, spec, burnin=77), total - 77, 21)
        assert_same_bits(series, reference_nonlinear(z, 0.8, 0.6)[77:])

    @settings(max_examples=25, deadline=None)
    @given(phi=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
           delta=st.floats(-1.0, 1.0), shifted=st.booleans(),
           gamma=st.sampled_from([0.25, 0.5, 1.0]), seed=st.integers(0, 2**32),
           n=st.integers(1, 3000), burnin=st.integers(0, 50))
    def test_matches_formula(self, phi, delta, shifted, gamma, seed, n, burnin):
        spec = (shifted_two_sided_pareto if shifted else two_sided_pareto)(gamma, 0.5)
        z = sample(spec, RngState(seed), burnin + n)
        series = simulate_both_paths(nonlinear_ar1(phi, delta, spec, burnin=burnin), n, seed)
        assert_same_bits(series, reference_nonlinear(z, phi, delta)[burnin:])


LINEAR_LAWS = {"pareto-0.5": two_sided_pareto(0.5, 0.5),
               "shifted-0.5": shifted_two_sided_pareto(0.5, 0.5),
               "pareto-0.25-skewed": two_sided_pareto(0.25, 0.7)}


class TestLinearRecursion:
    """The linear AR(1) in C and in the Python twin agree bit for bit with
    scipy's `lfilter`, the reference: ``lfilter([1], [1, -phi], z)`` steps
    ``1.0*z + (0.0*z_prev + phi*y_prev)``, whose products by 1.0 and 0.0 are
    exact and whose zero terms leave a sum as it is, since no innovation is
    -0.0."""

    @pytest.mark.parametrize("phi", [0.8, -0.95, 0.3, 0.0])
    @pytest.mark.parametrize("law", LINEAR_LAWS)
    def test_matches_lfilter(self, law, phi):
        spec, burnin, n = LINEAR_LAWS[law], 50, 20_000
        z = sample(spec, RngState(31), burnin + n)
        series = simulate_both_paths(linear_ar1(phi, spec, burnin=burnin), n, 31)
        assert_same_bits(series, lfilter([1.0], [1.0, -phi], z)[burnin:])

    @pytest.mark.parametrize("phi", [0.8, -0.95])
    @pytest.mark.parametrize("law", ["pareto-0.5", "shifted-0.5"])
    def test_matches_lfilter_across_draw_blocks(self, law, phi):
        # the carried state enters each block as it does one whole-series lfilter
        spec, burnin = LINEAR_LAWS[law], 77
        total = 2 * simulate._DRAW_BLOCK + 123
        z = sample(spec, RngState(22), total)
        series = simulate_both_paths(linear_ar1(phi, spec, burnin=burnin), total - burnin, 22)
        assert_same_bits(series, lfilter([1.0], [1.0, -phi], z)[burnin:])

    @pytest.mark.parametrize("phi", [0.0, 0.5, -0.5])
    def test_edge_states_match_lfilter(self, constant_innovations, phi):
        z = np.array(EDGE_INNOVATIONS)
        model = linear_ar1(phi, constant_innovations(z), burnin=0)
        assert_same_bits(simulate_both_paths(model, z.size, 1), lfilter([1.0], [1.0, -phi], z))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 1e308])
    def test_nonfinite_step(self, constant_innovations, bad):
        z = np.array(EDGE_INNOVATIONS[:5] + [bad, 1e308] + EDGE_INNOVATIONS[5:])
        expected = lfilter([1.0], [1.0, -0.9], z)
        model = linear_ar1(0.9, constant_innovations(z), burnin=0)
        with pytest.raises(SimulationError) as err:
            simulate_both_paths(model, z.size, 1)
        assert err.value.step == int(np.argmax(~np.isfinite(expected)))


KINDS = {"linear": _kernel.LINEAR, "nonlinear": _kernel.NONLINEAR, "sre": _kernel.SRE}


def step_rows(kernel, kind, a, z, states):
    """One call of the kernel's ``series`` for ``kind`` on the C-contiguous
    rows of ``z``; the SRE takes the multipliers of the same rows of ``a``."""
    count, n = z.shape
    kernel.series(KINDS[kind], a, z, count, n, 0.8, 0.6, states)


class TestRowGroups:
    """The kernel's ``series`` steps ``count`` rows in one call, the compiled
    kernel four at a time in lockstep and then the last one to three
    together; each row must get the bits of that row stepped alone, on every
    kernel path."""

    # start states on both sides of |x| = 1 and at its edges; the last row
    # starts from nan, and row 2 meets a nan innovation
    STATES = [0.0, 1.5, -1.5, 1.0, -1.0, UP, DOWN, 0.25, float("nan")]

    @staticmethod
    def innovations(count, n=300):
        # scaled so that the states cross |x| = 1 again and again
        z = np.random.default_rng(count).standard_normal((count, n)) * 1.5
        z[0, :11] = EDGE_INNOVATIONS[:11]
        if count > 2:
            z[2, 40] = np.nan
        return z

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: "python" if k is
                             _kernel._PYTHON_KERNEL else "c")
    @pytest.mark.parametrize("kind", ["linear", "nonlinear", "sre"])
    @pytest.mark.parametrize("count", range(1, 10))
    def test_each_row_steps_as_alone(self, kernel, kind, count):
        z = self.innovations(count)
        # SRE multipliers on both sides of 1, of mean 0.75
        a = np.random.default_rng(count + 100).uniform(0.0, 1.5, z.shape)
        states = np.array(self.STATES[:count])
        # the group in two calls, carrying its states from the first
        first, second = z[:, :120].copy(), z[:, 120:].copy()
        step_rows(kernel, kind, a[:, :120].copy(), first, states)
        step_rows(kernel, kind, a[:, 120:].copy(), second, states)
        grouped = np.hstack((first, second))
        for p in range(count):
            row, state = z[p:p + 1].copy(), np.array(self.STATES[p:p + 1])
            step_rows(_kernel._PYTHON_KERNEL, kind, a[p:p + 1].copy(), row, state)
            assert grouped[p].tobytes() == row[0].tobytes()
            assert states[p:p + 1].tobytes() == state.tobytes()
        crossed = np.abs(grouped[0]) > 1.0
        assert crossed.any() and not crossed.all()
        if count > 2:
            assert np.isnan(grouped[2, 40:]).all() and np.isfinite(grouped[2, :40]).all()


class TestKernelLoader:
    """The kernel compiles into the first writable cache directory, and
    loading falls back to None (the Python path) without a compiler."""

    @pytest.mark.skipif(not HAVE_CC, reason="no C compiler (cc) on PATH")
    def test_kernel_loads_where_a_compiler_exists(self):
        assert simulate.RECURSION_PATH == "c" and _kernel._KERNEL is not _kernel._PYTHON_KERNEL
        for name in _kernel._KERNEL_SIGNATURES:
            assert hasattr(_kernel._KERNEL, name) and hasattr(_kernel._PYTHON_KERNEL, name)

    @pytest.mark.skipif(not HAVE_CC, reason="no C compiler (cc) on PATH")
    def test_build_removes_stale_libraries(self, tmp_path):
        stale = tmp_path / "_recursion-0123456789abcdef.so"
        stale.write_bytes(b"a library built from an older _recursion.c")
        unrelated = tmp_path / "other.so"
        unrelated.write_bytes(b"")
        assert _kernel._load_kernel([tmp_path]) is not None
        (library,) = tmp_path.glob("_recursion-*.so")
        assert library != stale and unrelated.exists()

    @pytest.mark.skipif(not HAVE_CC, reason="no C compiler (cc) on PATH")
    def test_compiles_into_cache_and_reuses_it(self, tmp_path):
        unwritable = tmp_path / "file"
        unwritable.write_text("")
        cache = tmp_path / "cache"
        kernel = _kernel._load_kernel([unwritable / "sub", cache])
        assert kernel is not None
        (library,) = cache.iterdir()  # the library alone, no partial build left
        assert library.name.startswith("_recursion-") and library.suffix == ".so"
        built = library.stat().st_mtime_ns
        assert _kernel._load_kernel([cache]) is not None
        assert library.stat().st_mtime_ns == built
        with mock.patch.object(_kernel, "_KERNEL", kernel):
            fresh = simulate_series(nonlinear_ar1(0.8, 0.6, MODEL_A, burnin=10), 5000, RngState(3))
        assert_same_bits(fresh, simulate_both_paths(nonlinear_ar1(0.8, 0.6, MODEL_A, burnin=10),
                                                     5000, 3))

    def test_python_path_imports_no_scipy(self):
        # a fresh process where no library loads: the Python twins run, and
        # neither they nor the package import scipy for a two-sided Pareto law
        proc = run_python(["-c", (
            "import ctypes, sys\n"
            "import numpy as np\n"
            "def no_library(*args, **kwargs):\n"
            "    raise OSError('no library')\n"
            "ctypes.CDLL = no_library\n"
            "from tailseries import RngState, linear_ar1, simulate_series, two_sided_pareto\n"
            "from tailseries import _kernel\n"
            "assert _kernel.RECURSION_PATH == 'python', _kernel.RECURSION_PATH\n"
            "x = simulate_series(linear_ar1(0.8, two_sided_pareto(0.5, 0.5), burnin=50), 100,\n"
            "                    RngState(1))\n"
            "assert x.shape == (100,) and np.isfinite(x).all()\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n")],
            text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_no_compiler_gives_python_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PATH", "")
        assert _kernel._load_kernel([tmp_path]) is None
        assert list(tmp_path.iterdir()) == []

    def test_user_cache_follows_xdg(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        package_cache, user_cache = _kernel._kernel_dirs()
        assert package_cache == Path(_kernel.__file__).parent / "__pycache__"
        assert user_cache == tmp_path / "tailseries"

    def test_no_home_directory(self, monkeypatch):
        # no HOME, no XDG_CACHE_HOME and no passwd entry: Path.home() raises
        def no_home():
            raise RuntimeError("Could not determine home directory.")

        monkeypatch.delenv("HOME", raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        monkeypatch.setattr(Path, "home", no_home)
        assert list(_kernel._kernel_dirs()) == [Path(_kernel.__file__).parent / "__pycache__"]
        kernel = _kernel._load_kernel(_kernel._kernel_dirs())
        assert (kernel is None) == (_kernel._KERNEL is _kernel._PYTHON_KERNEL)


def reference_sre(driver, total, rng):
    """The documented SRE draw protocol in plain Python: ``total`` steps of
    ``X_t = A_t X_{t-1} + B_t`` from ``rng``, which draws the ``total``
    multipliers and then, for a random additive part, its start value and
    the ``total`` additive parts, each in one call."""
    a = driver.law.sample_from_uniforms(rng.uniforms(total)).tolist()
    if isinstance(driver.b, InnovationSpec):
        b = sample(driver.b, rng, total + 1).tolist()
    else:
        b = [driver.b] * (total + 1)
    x, state = [], b[0]
    for t in range(total):
        state = a[t] * state + b[t + 1]
        x.append(state)
    return np.array(x)


SRE_DRIVERS = {"two-point": TWO_POINT,
               "lognormal": SREDriver(LognormalLaw(-0.5, 1.0)),
               "two-point-random-b": SREDriver(TWO_POINT.law, POSITIVE_B),
               "lognormal-random-b": SREDriver(LognormalLaw(-0.5, 1.0), POSITIVE_B)}


class TestSRE:
    @pytest.mark.parametrize("driver", SRE_DRIVERS.values(), ids=list(SRE_DRIVERS))
    def test_matches_protocol_across_draw_blocks(self, driver):
        # two calls on one stream: the second starts where the documented
        # protocol leaves the stream, c0 + total or c0 + 2*total + 1
        burnin, n = 77, 2 * simulate._DRAW_BLOCK + 123
        total = burnin + n
        model = sre_model(driver, burnin=burnin)
        random_b = isinstance(driver.b, InnovationSpec)

        def two_calls():
            rng = RngState(23)
            first = simulate_series(model, n, rng)
            assert rng.state[1] == (2 * total + 1 if random_b else total)
            return np.concatenate((first, simulate_series(model, n, rng)))

        series = same_on_every_kernel(two_calls)
        reference = RngState(23)
        expected = [reference_sre(driver, total, reference)[burnin:] for _ in range(2)]
        assert_same_bits(series, np.concatenate(expected))

    @pytest.mark.parametrize("driver", SRE_DRIVERS.values(), ids=list(SRE_DRIVERS))
    def test_each_row_of_a_group_as_alone(self, driver):
        model, n = sre_model(driver, burnin=100), 40_000  # crosses blocks from 2 rows
        for count in range(1, 6):
            rows = same_on_every_kernel(lambda: simulate.series_rows(
                model, n, [RngState(count).substream(i) for i in range(count)]))
            for i, row in enumerate(rows):
                assert_same_bits(row, simulate_series(model, n, RngState(count).substream(i)))

    def test_tail_plateau(self):
        # Kesten tail: x * P(X > x) flattens to a positive constant over a
        # decade once kappa = 1
        model = sre_model(TWO_POINT, burnin=1000)
        series = simulate_series(model, 1_000_000, RngState(8))
        xs = np.geomspace(20, 200, 8)
        levels = np.array([x * np.mean(series > x) for x in xs])
        assert levels.min() > 0
        assert levels.max() / levels.min() < 1.5

    def test_b_spec_positive_support_required(self):
        with pytest.raises(ConfigurationError):
            SREDriver(TwoPointLaw(2.0, 0.5, 1.0 / 3.0), two_sided_pareto(0.5, 0.5))  # p < 1

    def test_random_b_runs(self):
        drv = SREDriver(TwoPointLaw(2.0, 0.5, 1.0 / 3.0),
                        InnovationSpec("two-sided-pareto", gamma=0.25, p=1.0))
        series = simulate_series(sre_model(drv, burnin=100), 1000, RngState(3))
        assert np.all(series > 0)

    def test_drift_violation_rejected(self):
        with pytest.raises(ConfigurationError):
            sre_model(SREDriver(TwoPointLaw(2.0, 0.5, 0.5)))  # E log A = 0


def reference_walks(driver, kappa, horizon, n_paths, seed):
    """The documented walk: row p is the running product of the multipliers'
    powers over draws 1..horizon of substream p, in one whole-matrix pass."""
    u = uniforms_for_bases(RngState(seed).child_bases(n_paths), horizon)
    with np.errstate(over="ignore"):
        return np.cumprod(driver.law.sample_from_uniforms(u) ** kappa, axis=1)


class TestWalks:
    # solve_kappa's root for TWO_POINT, small and large exponents, and the
    # exponents numpy's `**` special-cases (square root, square)
    @pytest.mark.parametrize("kappa", [1.0000000000000004, 0.0025, 0.7318, 1.37, 11.3, 0.5, 2.0])
    @pytest.mark.parametrize("horizon", [1, 200])
    def test_two_point_walk_matches_formula(self, kappa, horizon):
        # 8193 paths: full path blocks and a block of one path
        paths = same_on_every_kernel(
            lambda: walk_matrix(simulate_walks(TWO_POINT, kappa, horizon, 8193, RngState(15))))
        assert_same_bits(paths, reference_walks(TWO_POINT, kappa, horizon, 8193, 15))

    @pytest.mark.parametrize("driver", [SREDriver(TwoPointLaw(3.0, 0.4, 0.2)),
                                        SREDriver(LognormalLaw(-0.5, 1.0))],
                             ids=["two-point-3", "lognormal"])
    def test_walk_matches_formula(self, driver):
        kappa = solve_kappa(driver)
        paths = same_on_every_kernel(
            lambda: walk_matrix(simulate_walks(driver, kappa, 50, 9000, RngState(16))))
        assert_same_bits(paths, reference_walks(driver, kappa, 50, 9000, 16))

    @pytest.mark.parametrize("driver", [TWO_POINT, SREDriver(LognormalLaw(-0.5, 1.0))],
                             ids=["two-point", "lognormal"])
    def test_summaries_prefixes_and_rows_match_matrix(self, driver):
        # three path blocks; the summaries, any prefix of the horizon and
        # single rows are the values of the whole matrix, bit for bit
        kappa, n_paths = solve_kappa(driver), 2 * simulate._PATH_BLOCK + 5

        def run():
            ens = simulate_walks(driver, kappa, 40, n_paths, RngState(17))
            paths = walk_matrix(ens)
            assert_same_bits(ens.maxima, paths.max(axis=1))
            assert_same_bits(ens.capped_sums, np.minimum(paths, 1.0).sum(axis=1))
            for n in (1, 7, 39):
                assert_same_bits(walk_matrix(ens, n), paths[:, :n])
            for p in (0, 1, n_paths - 1):
                assert_same_bits(ens.paths[p], paths[p])
            assert_same_bits(ens.paths[-1], paths[-1])
            return paths

        same_on_every_kernel(run)

    def test_paths_ignore_later_draws_on_the_callers_stream(self):
        rng = RngState(18)
        ens = simulate_walks(TWO_POINT, 1.0, 30, 50, rng)
        before = walk_matrix(ens)
        rng.uniforms(1000)
        assert_same_bits(walk_matrix(ens), before)
        assert_same_bits(before, reference_walks(TWO_POINT, 1.0, 30, 50, 18))

    def test_blocks_and_rows_out_of_range(self):
        ens = simulate_walks(TWO_POINT, 1.0, 30, 50, RngState(19))
        for n in (0, 31):
            with pytest.raises(ConfigurationError):
                ens._map_blocks(n, lambda first, rows: None)
        for p in (50, -51):
            with pytest.raises(IndexError):
                ens.paths[p]

    def test_overflow_step_past_first_path_block(self):
        # at kappa = 76 a walk overflows once it stands 14 up-steps above its
        # start; with seed 6 the first such path is 9360, past the first
        # path block. No kernel warns of the overflow before the error.
        with warnings.catch_warnings(record=True) as caught, \
                pytest.raises(SimulationError) as err:
            warnings.simplefilter("always")
            same_on_every_kernel(lambda: simulate_walks(TWO_POINT, 76.0, 200, 9500, RngState(6)))
        assert [str(w.message) for w in caught] == []
        expected = reference_walks(TWO_POINT, 76.0, 200, 9500, 6)
        assert err.value.step == int(np.argmax(~np.isfinite(expected.ravel())))
        assert err.value.step // 200 >= simulate._PATH_BLOCK

    @pytest.mark.parametrize("law", [TwoPointLaw(2.0, 0.5, 0.01), LognormalLaw(-0.5, 1.0)],
                             ids=["two-point", "lognormal"])
    def test_overflowing_powers_warn_of_nothing(self, law):
        # at kappa 3000 the power of a multiplier not near 1 overflows to inf
        # or underflows to 0.0, and inf * 0.0 = nan follows; the error names
        # the first non-finite step, and no kernel warns before it
        driver = SREDriver(law)
        with warnings.catch_warnings(record=True) as caught, \
                pytest.raises(SimulationError) as err:
            warnings.simplefilter("always")
            same_on_every_kernel(lambda: simulate_walks(driver, 3000.0, 3, 2000, RngState(1)))
        assert [str(w.message) for w in caught] == []
        with np.errstate(invalid="ignore"):
            expected = reference_walks(driver, 3000.0, 3, 2000, 1)
        assert err.value.step == int(np.argmax(~np.isfinite(expected.ravel())))

    def test_mean_w1_is_one(self):
        ens = simulate_walks(TWO_POINT, 1.0, 1, 1_000_000, RngState(10))
        assert walk_matrix(ens)[:, 0].mean() == pytest.approx(1.0, abs=3e-3)

    def test_two_point_fractions(self):
        ens = simulate_walks(TWO_POINT, 1.0, 1, 1_000_000, RngState(11))
        assert np.mean(walk_matrix(ens)[:, 0] == 2.0) == pytest.approx(1.0 / 3.0, abs=2e-3)

    def test_degenerate_multiplier_rejected(self):
        with pytest.raises(ConfigurationError):
            simulate_walks(SREDriver(TwoPointLaw(1.0, 1.0, 0.5)), 1.0, 10, 10, RngState(1))

    def test_paths_positive_and_drifting_down(self):
        paths = walk_matrix(simulate_walks(TWO_POINT, 1.0, 200, 5000, RngState(12)))
        assert np.all(paths > 0)
        assert np.log(paths[:, -1]).mean() < 0

    def test_path_block_boundaries_do_not_matter(self):
        # path p depends only on substream p, not on the batch layout
        big = simulate_walks(TWO_POINT, 1.0, 50, 9000, RngState(13))
        small = simulate_walks(TWO_POINT, 1.0, 50, 100, RngState(13))
        assert np.array_equal(walk_matrix(big)[:100], walk_matrix(small))

    def test_deterministic(self):
        a = simulate_walks(TWO_POINT, 1.0, 30, 500, RngState(14))
        b = simulate_walks(TWO_POINT, 1.0, 30, 500, RngState(14))
        assert np.array_equal(walk_matrix(a), walk_matrix(b))


class TestWalkThreads:
    """The walk passes spread over the usable CPUs; no result depends on how many."""

    def test_usable_cpus_follow_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 8)
        assert simulate._usable_cpus() == 1
        monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {0, 2, 5},
                            raising=False)
        assert simulate._usable_cpus() == 3

    def test_usable_cpus_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(simulate.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 6)
        assert simulate._usable_cpus() == 6
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: None)
        assert simulate._usable_cpus() == 1

    def test_blocks_hold_a_horizon_of_values(self, monkeypatch):
        ens = simulate_walks(TWO_POINT, 1.0, 40, 2 * simulate._PATH_BLOCK + 5, RngState(21))
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 1)
        sizes = {}
        for n in (40, 20, 13, 1):
            sizes[n] = []
            ens._map_blocks(n, lambda first, rows: sizes[n].append(rows.shape[0]))
        assert sizes == {40: [1024, 1024, 5], 20: [2048, 5], 13: [2053], 1: [2053]}

    def test_one_block_runs_on_the_calling_thread(self, monkeypatch):
        # a pass with one range skips the pool, whose threads' malloc arenas
        # would keep the freed block buffers resident
        ens = simulate_walks(TWO_POINT, 1.0, 40, 2 * simulate._PATH_BLOCK + 5, RngState(23))
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
        for n, on_caller in ((1, True), (40, False)):  # one block; three blocks
            threads = set()
            ens._map_blocks(n, lambda first, rows: threads.add(threading.get_ident()))
            assert (threads == {threading.get_ident()}) is on_caller

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_last_range_runs_on_the_calling_thread(self, monkeypatch, cpus):
        # at n = 40 the three blocks of paths split into `cpus` ranges, and
        # at n = 1 the one block is one range: the calling thread walks the
        # last range, and at most one thread starts for each other range
        ens = simulate_walks(TWO_POINT, 1.0, 40, 3 * simulate._PATH_BLOCK, RngState(24))
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
        caller = threading.current_thread()
        for n, ranges in ((40, cpus), (1, 1)):
            before = threading.active_count()
            placed = []
            ens._map_blocks(n, lambda first, rows: placed.append(
                (first, threading.current_thread(), threading.active_count())))
            last = ens.n_paths * (ranges - 1) // ranges  # the last range's first path
            assert [thread is caller for _, thread, _ in placed] == \
                [first >= last for first, _, _ in placed]
            assert len({thread for _, thread, _ in placed} - {caller}) <= ranges - 1
            assert max(active for *_, active in placed) <= before + ranges - 1

    def test_more_threads_than_cores_with_a_short_switch_interval(self, monkeypatch):
        # eight ranges write their own rows of the shared per-path arrays while
        # the interpreter switches threads every microsecond; a row lost or
        # written by the wrong range would change these bits
        def run():
            ens = simulate_walks(TWO_POINT, 1.0, 20, 8 * simulate._PATH_BLOCK + 3,
                                 RngState(22))
            return np.concatenate([ens.maxima, ens.capped_sums])

        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 1)
        serial = same_on_every_kernel(run)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = same_on_every_kernel(run)
        finally:
            sys.setswitchinterval(interval)
        assert_same_bits(threaded, serial)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_overflow_step_in_a_later_range(self, monkeypatch, cpus):
        # kappa 76, seed 6: the first overflowing path, 9360, lies in the last
        # range of paths at every one of these thread counts
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
        with pytest.raises(SimulationError) as err:
            same_on_every_kernel(lambda: simulate_walks(TWO_POINT, 76.0, 200, 9500, RngState(6)))
        expected = reference_walks(TWO_POINT, 76.0, 200, 9500, 6)
        assert err.value.step == int(np.argmax(~np.isfinite(expected.ravel())))

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("failing", [
        [2 * simulate._PATH_BLOCK + 3],
        [2 * simulate._PATH_BLOCK + 1, 5, 700],
    ], ids=["later-range", "every-range"])
    def test_map_blocks_raises_the_error_of_the_first_range(self, monkeypatch, cpus, failing):
        # a reduction raises for a block that holds a failing path; the
        # block of the first such path sleeps before it raises, so the ranges
        # after it fail first, yet its error is the one raised
        ens = simulate_walks(TWO_POINT, 1.0, 40, 2 * simulate._PATH_BLOCK + 5, RngState(20))
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)

        def reduce(first, rows):
            hit = [p for p in failing if first <= p < first + rows.shape[0]]
            if min(failing) in hit:
                time.sleep(0.05)
            if hit:
                raise ValueError(min(hit))

        with pytest.raises(ValueError) as err:
            ens._map_blocks(40, reduce)
        assert err.value.args == (min(failing),)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("placed", [
        [(2 * simulate._PATH_BLOCK + 3, 17, np.inf)],
        [(2 * simulate._PATH_BLOCK + 1, 0, np.nan), (5, 39, np.inf), (700, 2, np.nan)],
    ], ids=["later-range", "every-range"])
    def test_placed_non_finite_step(self, monkeypatch, cpus, placed):
        # the first non-finite value in path order, whichever range finds its
        # own first
        fill = simulate.WalkEnsemble._fill

        def spoiled(ens, start, out):
            fill(ens, start, out)
            for p, j, value in placed:
                if start <= p < start + out.shape[0]:
                    out[p - start, j] = value

        monkeypatch.setattr(simulate.WalkEnsemble, "_fill", spoiled)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
        with pytest.raises(SimulationError) as err:
            same_on_every_kernel(lambda: simulate_walks(TWO_POINT, 1.0, 40,
                                                        2 * simulate._PATH_BLOCK + 5,
                                                        RngState(20)))
        assert err.value.step == min(p * 40 + j for p, j, _ in placed)


def kernel_walk_summary(rows):
    """``walk_summary`` of ``rows``: its index, then the maxima and capped sums."""
    count, n = rows.shape
    maxima, capped_sums = np.empty(count), np.empty(count)
    index = _kernel._KERNEL.walk_summary(rows, count, n, maxima, capped_sums)
    return np.concatenate([[float(index)], maxima, capped_sums])


class TestWalkSummary:
    @pytest.mark.parametrize("n", [1, 7, 8, 128, 129, 200, 10_000])
    def test_equals_numpy_on_finite_rows(self, n):
        rows = np.random.default_rng(n).lognormal(-0.3, 1.5, (5, n))
        rows[0, 0], rows[-1, -1] = 1.0, 0.0
        out = same_on_every_kernel(lambda: kernel_walk_summary(rows))
        assert out[0] == 5 * n
        assert_same_bits(out[1:6], rows.max(axis=1))
        assert_same_bits(out[6:], np.minimum(rows, 1.0).sum(axis=1))

    @pytest.mark.parametrize("n", [1, 7, 8, 128, 129, 200])
    @pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_index_of_the_first_non_finite_value(self, n, bad, where):
        rows = np.random.default_rng(n).lognormal(-0.3, 1.5, (3, n))
        index = {"first": 0, "middle": 3 * n // 2, "last": 3 * n - 1}[where]
        rows.ravel()[index] = bad
        rows.ravel()[index + 1:] = np.inf  # later non-finite values do not count
        for kernel in KERNELS:
            with mock.patch.object(_kernel, "_KERNEL", kernel):
                assert kernel_walk_summary(rows)[0] == index


class TestSolveKappa:
    def test_two_point_hand_root(self):
        # y = 2**kappa solves y**2 - 3y + 2 = 0 at y = 2, i.e. kappa = 1
        assert solve_kappa(TWO_POINT) == pytest.approx(1.0, abs=1e-10)
        assert abs(TWO_POINT.law.moment(solve_kappa(TWO_POINT)) - 1.0) <= 1e-10

    def test_lognormal_closed_form(self):
        drv = SREDriver(LognormalLaw(mu=-0.5, sigma=1.0))
        assert solve_kappa(drv) == pytest.approx(1.0, abs=1e-14)
        drv2 = SREDriver(LognormalLaw(mu=-0.3, sigma=0.7))
        kappa = solve_kappa(drv2)
        assert drv2.law.moment(kappa) == pytest.approx(1.0, abs=1e-12)
        # sigma**2 overflows or underflows, while -2*mu/sigma**2 is a double
        assert solve_kappa(SREDriver(LognormalLaw(-1e308, 1e155))) == pytest.approx(0.02)
        assert solve_kappa(SREDriver(LognormalLaw(-1e-300, 1e-200))) == pytest.approx(2e100)
        for mu, sigma in ((-1e308, 1e-300), (-1e-300, 1e160)):  # beyond the doubles
            with pytest.raises(NoRootError):
                solve_kappa(SREDriver(LognormalLaw(mu, sigma)))
        for mu, sigma in ((-math.inf, 1.0), (math.nan, 1.0), (-0.5, math.inf), (-0.5, 0.0)):
            with pytest.raises(ConfigurationError):
                LognormalLaw(mu, sigma)

    def test_no_root_on_zero_drift(self):
        # the drift check of `SREDriver.check_drift`, as `simulate_walks` makes it
        with pytest.raises(ConfigurationError, match=r"E\[log A\] < 0"):
            solve_kappa(SREDriver(TwoPointLaw(2.0, 0.5, 0.5)))

    def test_no_root_when_a_below_one(self):
        with pytest.raises(NoRootError):
            solve_kappa(SREDriver(TwoPointLaw(0.9, 0.5, 0.5)))

    def test_asymmetric_two_point(self):
        drv = SREDriver(TwoPointLaw(3.0, 0.25, 0.2))
        kappa = solve_kappa(drv)
        assert abs(drv.law.moment(kappa) - 1.0) <= 1e-10

    @pytest.mark.parametrize("law, bits", [
        (TWO_POINT.law, "0x1.0000000000002p+0"),  # 1.0000000000000004
        (TwoPointLaw(3.0, 0.25, 0.2), "0x1.5829de9cddacfp+0"),
        (TwoPointLaw(1.5, 0.1, 0.7), "0x1.7bce32dc14f32p-1"),
    ])
    def test_pinned_bits(self, law, bits):
        # scipy.optimize.brentq's bits on x86-64 Linux: the reference on every platform
        assert solve_kappa(SREDriver(law)).hex() == bits

    def test_brent_port_matches_scipy_brentq(self):
        from scipy.optimize import brentq

        rng = np.random.default_rng(1009)
        compared = 0
        while compared < 2000:
            log_up, log_down = rng.uniform(0.01, 5.0, 2)
            law = TwoPointLaw(math.exp(log_up), math.exp(-log_down), rng.uniform(0.001, 0.999))
            if not law.mean_log() < 0:
                continue

            def g(s):
                return law.moment(s) - 1.0

            hi = 1e-6  # the bracket of `solve_kappa`
            while g(hi) <= 0 and hi <= 64.0:
                hi *= 2.0
            if hi > 64.0:
                with pytest.raises(NoRootError):
                    solve_kappa(SREDriver(law))
                continue
            expected = brentq(g, hi / 2.0, hi, xtol=1e-14, rtol=8.9e-16)
            assert solve_kappa(SREDriver(law)).hex() == expected.hex(), law
            compared += 1
