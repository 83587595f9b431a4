"""Monte Carlo harness: ground truth, replicated estimation, and test power.

The central object is a replicated quantile-estimation experiment: simulate
R series, evaluate the direct and the model-based extreme-quantile
estimator on each over a grid of k, and summarize RMSE / L1 / bias /
standard error against a ground-truth quantile obtained from long
simulations. The ground truth, the replicates and the power study each
reduce their series to one statistic through one series map (`_map_series`):
series i always consumes substream i of its stream, so results are
bit-identical for any worker count. The map runs the series in consecutive
groups of at most four, ``min(4, ceil(count / workers))`` each, whose series
step together in lockstep in the kernel at any group width, and the
statistic is applied per series in index order. The calling process steps
the trailing ``len(groups) // workers`` groups and a pool of ``workers - 1``
processes the leading ones, so one worker makes no pool; a preset run
(`run_preset`) makes that pool once, and every stage of the run shares it
(`_pool_scope`). The ground truth never holds a whole series: it folds
each block of a group's draws, one buffer of ``simulate._DRAW_BLOCK`` values
for the whole group, into each series' own largest values.

Presets mirror the simulation study's tables and figures at desk scale and
write plot-ready CSV plus JSON summaries; see `run_preset`.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import serialize
from ._kernel import LOCKSTEP_ROWS
from .diagnostics import difference_sign_test, ljung_box_curve, turning_point_test
from .distributions import shifted_two_sided_pareto, two_sided_pareto
from .errors import ConfigurationError, DegenerateInputError, DomainError, TailSeriesError
from .estimators import (_check_t, _whole, fit_ar1, residuals_ar1, weissman_direct_curve,
                         weissman_model_ar1_curve)
from .rng import RngState
from .simulate import (LINEAR_AR1, NONLINEAR_AR1, SeriesModel, _caller_joins, _usable_cpus,
                       linear_ar1, nonlinear_ar1, series_blocks, series_rows, simulate_series)

DIRECT = "direct"
MODEL_BASED = "model-based"

DEFAULT_K_GRID = tuple(range(10, 1001, 5))
DEFAULT_SEED = 1

# shared study parameters
STUDY_PHI = 0.8
STUDY_DELTA = 0.6
STUDY_N = 2000
STUDY_T = 0.001
POWER_LAGS = 30  # the power study's portmanteau test runs at every h = 1..POWER_LAGS
INNOVATIONS = {
    "unshifted": two_sided_pareto(0.5, 0.5),
    "shifted": shifted_two_sided_pareto(0.3, 0.5),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """A replicated quantile-estimation experiment over a grid of k; every
    replicate is estimated by the direct, then the model-based estimator.
    Its standard errors need at least 2 replicates."""

    model: SeriesModel
    n: int
    replicates: int
    k_grid: tuple
    t: float
    master_seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.replicates < 2:
            raise ConfigurationError(
                f"a standard error needs at least 2 replicates, got {self.replicates}")
        if len(self.k_grid) == 0:  # not `not k_grid`, which a numpy array refuses
            raise ConfigurationError("k_grid must be nonempty")
        if not _whole(self.k_grid):
            raise ConfigurationError("every k must be a whole number")
        if any(not (1 <= k <= self.n - 2) for k in self.k_grid):
            raise ConfigurationError(
                "every k must satisfy 1 <= k <= n - 2: an AR(1) fit leaves n - 1 residuals")
        _check_t(self.t)


@dataclass(frozen=True)
class ErrorSummary:
    """Per-(estimator, k) error summaries of a quantile experiment."""

    estimators: tuple
    k_grid: tuple
    rmse: np.ndarray
    l1: np.ndarray
    bias: np.ndarray
    stderr: np.ndarray
    missing: np.ndarray
    argmin_rmse: dict
    argmin_l1: dict
    true_value: float
    true_half_width: float
    replicates: int
    clamp_count: int
    estimates: np.ndarray | None = None  # (R, E, K), kept on request

    def to_dict(self) -> dict:
        per_estimator = {}
        for i, name in enumerate(self.estimators):
            per_estimator[name] = {
                "argmin_rmse": self._argmin_dict(self.argmin_rmse.get(name)),
                "argmin_l1": self._argmin_dict(self.argmin_l1.get(name)),
                "rmse": self.rmse[i], "l1": self.l1[i], "bias": self.bias[i],
                "stderr": self.stderr[i], "missing": self.missing[i].tolist(),
            }
        return {
            "schema_version": serialize.SCHEMA_VERSION,
            "true_value": self.true_value,
            "true_half_width": self.true_half_width,
            "replicates": self.replicates,
            "clamp_count": self.clamp_count,
            "k_grid": [int(k) for k in self.k_grid],
            "estimators": list(self.estimators),
            "per_estimator": per_estimator,
        }

    @staticmethod
    def _argmin_dict(entry):
        if entry is None:
            return None
        k, value = entry
        return {"k": int(k), "value": float(value)}

    def csv_rows(self):
        for i, name in enumerate(self.estimators):
            for j, k in enumerate(self.k_grid):
                yield (name, int(k), self.rmse[i, j], self.l1[i, j],
                       self.bias[i, j], self.stderr[i, j], int(self.missing[i, j]))


@dataclass(frozen=True)
class DensityEstimate:
    """Gaussian-kernel density on a fixed grid."""

    grid: np.ndarray
    density: np.ndarray
    bandwidth: float


@dataclass(frozen=True)
class PowerReport:
    """Rejection rates of the three residual tests at nominal size 0.05."""

    turning_point: float
    difference_sign: float
    portmanteau_by_h: np.ndarray
    portmanteau_max: float
    portmanteau_best_h: int
    replicates: int

    def to_dict(self) -> dict:
        return {
            "turning_point": self.turning_point,
            "difference_sign": self.difference_sign,
            "portmanteau_max": self.portmanteau_max,
            "portmanteau_best_h": self.portmanteau_best_h,
            "portmanteau_by_h": self.portmanteau_by_h,
            "replicates": self.replicates,
        }


def _fold_quantiles(blocks, size: int, q: float) -> list:
    """Per row of the 2-d ``blocks``: the ceil(q*size)-th smallest of the
    ``size`` values that row yields across the blocks in turn, holding one
    block and the largest values of each row seen so far.

    With ``m`` the 0-based index of that rank, the minimum of the largest
    ``size - m`` values is the element ``x.partition(m)`` places at ``m``, so
    the result does not depend on how the values are cut into blocks. Once
    ``size - m`` values of a row are held, only a value above the least of
    them can enter.
    """
    if not (0 < q < 1):
        raise ConfigurationError("q must lie in (0, 1)")
    keep = size + 1 - min(max(int(math.ceil(q * size)), 1), size)
    tops = None
    for block in blocks:
        if tops is None:
            tops = [np.empty(0)] * block.shape[0]
        for i, values in enumerate(block):
            top = tops[i]
            if top.size == keep:
                values = values[values > top[0]]
            pool = np.concatenate((top, values))
            if pool.size >= keep:
                pool.partition(pool.size - keep)  # the least of the top `keep` to pool[-keep]
                pool = pool[pool.size - keep:]
            tops[i] = pool
    return [float(top[0]) for top in tops]


def empirical_quantile(series, q: float) -> float:
    """The ceil(q*n)-th smallest value (always an element of the series)."""
    x = np.asarray(series, dtype=np.float64)
    if x.size == 0:
        raise DomainError("empirical quantile of an empty series")
    return _fold_quantiles((x[None],), x.size, q)[0]


def _group_statistics(statistic, blocks: bool, model: SeriesModel, n: int, rng: RngState,
                      count: int, size: int, first: int) -> list:
    """`_map_series` on the group of series ``first .. first+size-1`` (those
    below ``count``), stepped together."""
    streams = [rng.substream(i) for i in range(first, min(first + size, count))]
    if blocks:
        return statistic(series_blocks(model, n, streams))
    return [statistic(series) for series in series_rows(model, n, streams)]


_OPEN_POOL: ContextVar = ContextVar("tailseries_open_pool", default=None)


@contextmanager
def _pool_scope(processes: int):
    """The process pool of ``processes`` processes that every `_map_series`
    call in the block shares, or None when ``processes`` is 0.

    Inside an open scope this opens no other: the block shares the outer
    pool. A `ProcessPoolExecutor` forks its processes at its first map, so
    they inherit what the process imported before that map
    (`test_power_experiment` imports ``scipy.special`` first). When the
    outermost block ends, by a return or by an error, the pool is shut down
    with its pending groups cancelled and its processes joined.
    """
    pool = _OPEN_POOL.get()
    if pool is not None or processes == 0:
        yield pool
        return
    pool = ProcessPoolExecutor(max_workers=processes)
    token = _OPEN_POOL.set(pool)
    try:
        yield pool
    finally:
        _OPEN_POOL.reset(token)
        pool.shutdown(wait=True, cancel_futures=True)


def _map_series(statistic, model: SeriesModel, n: int, rng: RngState, count: int,
                workers: int, blocks: bool = False) -> list:
    """``statistic`` of series i = 0..count-1, each ``n`` observations of
    ``model`` drawn from substream i of ``rng``, in index order.

    The series run in consecutive groups of
    ``min(LOCKSTEP_ROWS, ceil(count / workers))`` (four, or fewer so that
    every process gets work), whose series step together in lockstep
    (`simulate.series_blocks`). The statistic gets each series as one array,
    one call per series in index order, or, with ``blocks``, one call per
    group with the iterator of the group's 2-d blocks (row i continuing the
    group's series i), and returns a sequence of one result per row. A
    series' bits do not depend on its group, and a group raises the
    `SimulationError` of its lowest-index series that has a non-finite
    value, at that series' step, so any grouping gives the results and the
    error of a serial run.

    Every Monte Carlo stage runs its series through here, so a fixed-order
    reduction over the results gives the same bytes for any ``workers``.
    ``workers`` processes compute, the calling process included, capped at
    the usable CPUs (`simulate._usable_cpus`). The calling process steps the
    trailing ``len(groups) // workers`` groups itself, and the pool of the
    open `_pool_scope` (or of one opened for this call), of ``workers - 1``
    processes, steps the leading ones, about four chunks of them per
    process; ``statistic`` must then pickle (a module-level function or a
    `partial` of one). At one worker that is every group, and no pool is
    made. The first group in index order that raises raises
    (`simulate._caller_joins`).
    """
    workers = max(1, min(workers, _usable_cpus()))
    size = min(LOCKSTEP_ROWS, math.ceil(count / workers))
    group = partial(_group_statistics, statistic, blocks, model, n, rng, count, size)
    firsts = range(0, count, size)
    split = len(firsts) - len(firsts) // workers
    with _pool_scope(workers - 1) as pool:
        results = _caller_joins(pool, group, firsts, split,
                                chunksize=math.ceil(split / (4 * max(workers - 1, 1))))
    return [value for values in results for value in values]


def true_quantile(model: SeriesModel, t: float, n_reps: int, rep_length: int,
                  rng: RngState, workers: int = 1) -> tuple[float, float]:
    """Ground-truth F^{-1}(1-t) as the mean of long-run empirical quantiles.

    Series i uses substream i of ``rng``; ``workers`` processes simulate the
    series in parallel without changing the result. The series of a group
    step together, and each is folded a block at a time into its own ``n*t``
    or so largest values (`_fold_quantiles`), so a process holds one block of
    draws for the whole group and those values, not the series.
    Returns (value, half_width) where half_width = 2.58 * stderr of the mean
    (a 99% normal margin).
    """
    if rep_length * t < 100:
        raise ConfigurationError(
            f"rep_length*t = {rep_length * t:g} < 100: too few exceedances per replicate")
    if n_reps < 2:
        raise ConfigurationError("need at least 2 replicates for an error estimate")
    quantiles = np.array(_map_series(partial(_fold_quantiles, size=rep_length, q=1.0 - t),
                                     model, rep_length, rng, n_reps, workers, blocks=True))
    half_width = 2.58 * quantiles.std(ddof=1) / math.sqrt(n_reps)
    return float(quantiles.mean()), float(half_width)


def _replicate_estimates(ks: np.ndarray, t: float, series: np.ndarray):
    """One replicate's (2, K) estimates, direct then model-based, NaN where
    an estimator failed, and whether the model-based row clamped the
    tail-ratio factor at some k."""
    out = np.full((2, ks.size), np.nan)
    clamped = False
    try:
        out[0] = weissman_direct_curve(series, ks, t)
    except TailSeriesError:
        pass  # row stays NaN; counted as missing
    try:
        out[1], _, clamps = weissman_model_ar1_curve(series, ks, t)
        clamped = bool(clamps.any())
    except TailSeriesError:
        pass
    return out, clamped


def run_quantile_experiment(spec: ExperimentSpec, true_value: float,
                            true_half_width: float = 0.0, workers: int = 1,
                            keep_estimates: bool = False) -> ErrorSummary:
    """Run the replicated experiment and summarize errors against the truth.

    Deterministic given ``spec.master_seed`` for any ``workers`` value:
    replicate r always uses substream r and aggregation is fixed-order.
    """
    ks = np.asarray(spec.k_grid, dtype=np.int64)
    estimates, clamped = zip(*_map_series(partial(_replicate_estimates, ks, spec.t), spec.model,
                                          spec.n, RngState(spec.master_seed), spec.replicates,
                                          workers))
    return summarize_estimates((DIRECT, MODEL_BASED), spec.k_grid, np.stack(estimates),
                               true_value, true_half_width, clamp_count=sum(clamped),
                               keep_estimates=keep_estimates)


def summarize_estimates(estimators, k_grid, estimates: np.ndarray, true_value: float,
                        true_half_width: float = 0.0, clamp_count: int = 0,
                        keep_estimates: bool = False) -> ErrorSummary:
    """Aggregate a (replicates, estimators, k) estimate array into an ErrorSummary.

    NaN entries are missing estimates: they are counted and excluded from the
    error metrics, never silently dropped.
    """
    R = estimates.shape[0]
    err = estimates - true_value
    completed = np.sum(~np.isnan(estimates), axis=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rmse = np.sqrt(np.nanmean(err**2, axis=0))
        l1 = np.nanmean(np.abs(err), axis=0)
        bias = np.nanmean(err, axis=0)
        stderr = np.nanstd(estimates, axis=0, ddof=1)
    missing = R - completed

    argmin_rmse, argmin_l1 = {}, {}
    for i, name in enumerate(estimators):
        argmin_rmse[name] = _argmin_entry(k_grid, rmse[i])
        argmin_l1[name] = _argmin_entry(k_grid, l1[i])
    return ErrorSummary(
        estimators=tuple(estimators), k_grid=tuple(k_grid),
        rmse=rmse, l1=l1, bias=bias, stderr=stderr, missing=missing,
        argmin_rmse=argmin_rmse, argmin_l1=argmin_l1,
        true_value=true_value, true_half_width=true_half_width,
        replicates=R, clamp_count=clamp_count,
        estimates=estimates if keep_estimates else None,
    )


def _argmin_entry(k_grid, values):
    if np.all(np.isnan(values)):
        return None
    idx = int(np.nanargmin(values))
    return (int(k_grid[idx]), float(values[idx]))


def silverman_bandwidth(values: np.ndarray) -> float:
    """1.06 * min(sd, iqr/1.34) * n**(-1/5), with the iqr term skipped if zero."""
    sd = float(values.std(ddof=1))
    q75, q25 = np.percentile(values, [75.0, 25.0])
    iqr = float(q75 - q25)
    scale = min(sd, iqr / 1.34) if iqr > 0 else sd
    return 1.06 * scale * values.size ** (-0.2)


def kde(values, grid) -> DensityEstimate:
    """Gaussian-kernel density estimate on ``grid`` with Silverman's rule bandwidth."""
    x = np.asarray(values, dtype=np.float64)
    if x.size < 2 or np.unique(x).size < 2:
        raise DegenerateInputError("need at least 2 distinct values")
    h = silverman_bandwidth(x)
    grid = np.asarray(grid, dtype=np.float64)
    density = np.zeros_like(grid)
    norm = 1.0 / (x.size * h * math.sqrt(2.0 * math.pi))
    for start in range(0, grid.size, 1024):
        g = grid[start:start + 1024]
        z = (g[:, None] - x[None, :]) / h
        density[start:start + 1024] = norm * np.exp(-0.5 * z * z).sum(axis=1)
    _check_density_mass(grid, density, x, h)
    return DensityEstimate(grid=grid, density=density, bandwidth=h)


def _check_density_mass(grid, density, values, h):
    from .diagnostics import normal_cdf

    integral = float(np.trapezoid(density, grid))
    covered = float(np.mean(normal_cdf((grid[-1] - values) / h)
                            - normal_cdf((grid[0] - values) / h)))
    if abs(integral - covered) > 0.01:
        raise ConfigurationError(
            f"density grid too coarse: integral {integral:.4f} vs covered mass {covered:.4f}")


def _power_rejections(series: np.ndarray) -> np.ndarray:
    """One replicate's rejections at size 0.05: turning point, difference
    sign, then the portmanteau test at h = 1..POWER_LAGS."""
    resid = residuals_ar1(series, fit_ar1(series))
    _, pvals = ljung_box_curve(resid, POWER_LAGS)
    return np.concatenate(([turning_point_test(resid).reject_at_5pct,
                            difference_sign_test(resid).reject_at_5pct], pvals < 0.05))


def test_power_experiment(model: SeriesModel, n: int, replicates: int,
                          rng: RngState, workers: int = 1) -> PowerReport:
    """Rejection rates of the residual tests after (mis)fitting a linear AR(1).

    Per replicate: simulate, fit the AR(1) coefficient, form residuals, run
    the turning point and difference-sign tests at size 0.05, and the
    portmanteau test at every h = 1..POWER_LAGS. The portmanteau power is
    reported per h and maximized over h. Replicate r uses substream r of
    ``rng``; ``workers`` processes run the replicates in parallel without
    changing the result.
    """
    if model.variant not in (LINEAR_AR1, NONLINEAR_AR1):
        raise ConfigurationError("power experiment needs an autoregressive model")
    if model.innovations.gamma >= 0.5:
        warnings.warn("portmanteau test is unreliable: innovation variance is "
                      "infinite for extreme value index >= 1/2", UserWarning)
    # the p-values' scipy.special, imported once here rather than by each
    # forked pool worker on its first p-value
    import scipy.special  # noqa: F401
    rows = _map_series(_power_rejections, model, n, rng, replicates, workers)
    rates = np.sum(rows, axis=0) / replicates
    lb_rates = rates[2:]
    best = int(np.argmax(lb_rates))
    return PowerReport(
        turning_point=float(rates[0]), difference_sign=float(rates[1]),
        portmanteau_by_h=lb_rates, portmanteau_max=float(lb_rates[best]),
        portmanteau_best_h=best + 1, replicates=replicates,
    )


# ---------------------------------------------------------------------------
# presets reproducing the simulation study at desk scale
# ---------------------------------------------------------------------------

TRUTH_PROTOCOL = {"desk": (50, 1_000_000), "paper": (200, 9_000_000)}

_TRUTH_STREAM = 2**32      # component namespaces within the preset seed
_SCATTER_STREAM = 2**32 + 1
_POWER_STREAM = 2**32 + 2


def _study_model(linear: bool, innovations_label: str) -> SeriesModel:
    innovations = INNOVATIONS[innovations_label]
    if linear:
        return linear_ar1(STUDY_PHI, innovations)
    return nonlinear_ar1(STUDY_PHI, STUDY_DELTA, innovations)


def _study_summary(model: SeriesModel, replicates: int, seed: int, scale: str, workers: int,
                   truth_stream: int, component: int,
                   keep_estimates: bool = False) -> ErrorSummary:
    """The truth on truth stream ``truth_stream`` of ``seed``, then the errors
    of ``replicates`` study replicates on component ``component`` against it."""
    truth_reps, truth_len = TRUTH_PROTOCOL[scale]
    root = RngState(seed)
    # the spec first, so that a bad replicate count fails before the truth is drawn
    spec = ExperimentSpec(model=model, n=STUDY_N, replicates=replicates, k_grid=DEFAULT_K_GRID,
                          t=STUDY_T, master_seed=root.derive_seed(component))
    truth, half_width = true_quantile(model, STUDY_T, truth_reps, truth_len,
                                      root.substream(_TRUTH_STREAM + truth_stream),
                                      workers=workers)
    return run_quantile_experiment(spec, truth, half_width, workers=workers,
                                   keep_estimates=keep_estimates)


def _quantile_study(linear: bool, out_dir: Path, replicates: int, seed: int,
                    scale: str, workers: int) -> dict:
    results = {}
    for i, label in enumerate(("unshifted", "shifted")):
        summary = _study_summary(_study_model(linear, label), replicates, seed, scale, workers,
                                 truth_stream=i, component=i)
        sub = out_dir / label
        sub.mkdir(parents=True, exist_ok=True)
        (sub / "summary.json").write_text(serialize.dump_json(summary.to_dict()))
        (sub / "errors_vs_k.csv").write_text(serialize.dump_csv(
            ["estimator", "k", "rmse", "l1", "bias", "stderr", "missing"],
            summary.csv_rows()))
        results[label] = summary
    return results


def _density_study(out_dir: Path, replicates: int, seed: int, scale: str,
                   workers: int) -> dict:
    # truth stream 0 (table2's unshifted law) and component 1 (table2's
    # shifted-law replicates) are figure4's frozen streams
    summary = _study_summary(_study_model(False, "shifted"), replicates, seed, scale, workers,
                             truth_stream=0, component=1, keep_estimates=True)
    k_direct, k_model = summary.argmin_rmse[DIRECT][0], summary.argmin_rmse[MODEL_BASED][0]
    direct_vals = summary.estimates[:, 0, summary.k_grid.index(k_direct)]
    model_vals = summary.estimates[:, 1, summary.k_grid.index(k_model)]
    direct_vals = direct_vals[~np.isnan(direct_vals)]
    model_vals = model_vals[~np.isnan(model_vals)]
    # robust common grid: outliers stretch the range but must not starve the
    # resolution needed by the sharper of the two kernels
    h_direct = silverman_bandwidth(direct_vals)
    h_model = silverman_bandwidth(model_vals)
    lo = min(np.percentile(direct_vals, 0.1), np.percentile(model_vals, 0.1))
    hi = max(np.percentile(direct_vals, 99.9), np.percentile(model_vals, 99.9))
    lo -= 3 * max(h_direct, h_model)
    hi += 3 * max(h_direct, h_model)
    n_grid = int(np.clip(math.ceil((hi - lo) / (min(h_direct, h_model) / 4.0)), 512, 16384))
    grid = np.linspace(lo, hi, n_grid)
    dens_direct = kde(direct_vals, grid=grid)
    dens_model = kde(model_vals, grid=grid)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "density.csv").write_text(serialize.dump_csv(
        ["x", "direct", "model"],
        zip(grid, dens_direct.density, dens_model.density)))
    (out_dir / "summary.json").write_text(serialize.dump_json({
        "schema_version": serialize.SCHEMA_VERSION,
        "true_value": summary.true_value, "true_half_width": summary.true_half_width,
        "k_direct": k_direct, "k_model": k_model,
        "bandwidth_direct": dens_direct.bandwidth,
        "bandwidth_model": dens_model.bandwidth,
    }))
    return {"summary": summary, "grid": grid}


def _scatter_study(out_dir: Path, replicates: int, seed: int, scale: str,
                   workers: int) -> dict:
    model = _study_model(False, "shifted")
    series = simulate_series(model, STUDY_N, RngState(seed).substream(_SCATTER_STREAM))
    phi_hat = fit_ar1(series)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "scatter.csv").write_text(serialize.dump_csv(
        ["x_prev", "x_cur"], zip(series[:-1], series[1:])))
    (out_dir / "fit.json").write_text(serialize.dump_json({
        "schema_version": serialize.SCHEMA_VERSION, "phi_hat": phi_hat, "n": STUDY_N}))
    return {"phi_hat": phi_hat}


def _power_study(out_dir: Path, replicates: int, seed: int, scale: str,
                 workers: int) -> dict:
    root = RngState(seed).substream(_POWER_STREAM)
    power = test_power_experiment(_study_model(False, "shifted"), STUDY_N,
                                  replicates, root.substream(0), workers=workers)
    size = test_power_experiment(_study_model(True, "shifted"), STUDY_N,
                                 replicates, root.substream(1), workers=workers)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "power.json").write_text(serialize.dump_json({
        "schema_version": serialize.SCHEMA_VERSION,
        "nonlinear_power": power.to_dict(),
        "linear_size": size.to_dict(),
    }))
    return {"power": power, "size": size}


# name -> (runner taking (out_dir, replicates, seed, scale, workers),
#          default replicate count)
_PRESETS = {
    "table1": (partial(_quantile_study, True), 500),
    "table2": (partial(_quantile_study, False), 500),
    "figure1": (partial(_quantile_study, True), 500),
    "figure3": (partial(_quantile_study, False), 500),
    "figure4": (_density_study, 500),
    "figure2-scatter": (_scatter_study, 500),
    "power": (_power_study, 2000),
}
PRESETS = tuple(_PRESETS)


def run_preset(name: str, out_dir, replicates: int | None = None,
               seed: int = DEFAULT_SEED, scale: str = "desk",
               workers: int = 1) -> dict:
    """Run one named study preset, writing its outputs under ``out_dir``.

    With ``workers > 1`` every parallel stage of the run shares one process
    pool (`_pool_scope`), shut down before this returns or raises.
    """
    if name not in _PRESETS:
        raise ConfigurationError(f"unknown preset {name!r}; choose from {PRESETS}")
    if scale not in TRUTH_PROTOCOL:
        raise ConfigurationError("scale must be 'desk' or 'paper'")
    runner, default_replicates = _PRESETS[name]
    if replicates is None:
        replicates = default_replicates
    if replicates < 1:
        raise ConfigurationError(f"replicates must be >= 1, got {replicates}")
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    with _pool_scope(min(workers, _usable_cpus()) - 1):
        return runner(Path(out_dir), replicates, seed, scale, workers)
