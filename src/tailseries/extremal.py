"""Extremal-dependence quantities of the stochastic recurrence equation.

All four quantities are functionals of the geometric random walk ``W_j`` and
are evaluated by Monte Carlo over a `WalkEnsemble`:

* extremal index:       theta = 1 - E min(U_1, 1),  U_1 = max_{j>=1} W_j
* cluster sizes:        theta_k = E(min(U_{k-1},1) - min(U_k,1)),
                        pi_k = (theta_k - theta_{k+1}) / theta,
                        with U_k the k-th largest walk value, min(U_0,1) = 1
* Hill asymptotic var:  kappa**-2 * (1 + 2 * sum_{j>=1} E min(W_j, 1))
* joint exceedances:    E min (or max) over j of x_j**-kappa * W_j, W_0 = 1

The ensemble holds no walk matrix: theta and the Hill variance read the
per-path maxima and capped sums that `simulate_walks` took in its one pass,
and the joint exceedances regenerate only the first ``k-1`` steps. The
cluster sizes regenerate the whole paths; the compiled kernel keeps each
path's top ``kmax+1`` capped values (``capped_top``) and then takes the
column means and standard deviations of the per-path theta_k and pi_k terms
in two passes over that one array (``cluster_moments``), with numpy's
summation order, so no array of those terms is built. Each regeneration is
a pass of `WalkEnsemble._map_blocks`, which spreads the blocks of paths over
the usable CPUs. Every reduction in a pass works on one path's row alone and
writes that path's entry, and every mean and standard error is taken
serially over the full-length per-path arrays, so no result depends on the
block size or the number of CPUs.

Every point estimate is returned with its Monte Carlo standard error. Walk
tails beyond the ensemble horizon are controlled through the fractional
moment ``r = E[A**(kappa/2)] < 1``: ``min(w,1) <= sqrt(w)`` gives
``E min(W_j,1) <= r**j``, so the omitted contribution is geometrically
bounded and reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernel
from .errors import ConfigurationError, DomainError, HorizonTooSmallError
from .simulate import WalkEnsemble

DEFAULT_TAIL_TOL = 1e-2


@dataclass(frozen=True)
class ExtremalSummary:
    """Extremal index and cluster-size distribution with Monte Carlo errors."""

    theta: float
    theta_k: np.ndarray       # k = 1..kmax
    pi_k: np.ndarray          # k = 1..kmax
    mc_stderr: dict           # {"theta": float, "theta_k": array, "pi_k": array}
    horizon_remainder: float  # E min(U_{kmax+1}, 1) = sum of theta_k beyond kmax+1

    def mean_cluster_size(self) -> float:
        """Telescoped estimate of sum_k k*pi_k = (sum_k theta_k) / theta.

        The infinite theta_k sum is 1; truncating at kmax keeps
        ``sum_{k<=kmax} theta_k + horizon_remainder = 1 - theta_{kmax+1}``,
        so the estimate carries a downward bias of theta_{kmax+1}/theta. The
        naive truncated sum of k*pi_k would instead lose the whole k-tail of
        the cluster-size law, which is far larger for slowly mixing walks.
        """
        return float((self.theta_k.sum() + self.horizon_remainder) / self.theta)


@dataclass(frozen=True)
class JointExceedanceQuery:
    """Thresholds x_0..x_{k-1} and whether all or some must be exceeded."""

    x: tuple
    mode: str

    def __post_init__(self):
        if self.mode not in ("all", "some"):
            raise ConfigurationError("mode must be 'all' or 'some'")
        if len(self.x) < 1:
            raise ConfigurationError("query needs at least one threshold")
        if any(not (xi > 0) for xi in self.x):
            raise ConfigurationError("all thresholds must be > 0")


@dataclass(frozen=True)
class HillAvarSRE:
    """Hill asymptotic variance under the SRE, with MC error and tail bound."""

    variance: float
    stderr: float
    tail_bound: float  # bound on the variance mass omitted beyond the horizon


def _require_paths(ensemble: WalkEnsemble):
    """Every functional reports a Monte Carlo standard error, which needs two paths."""
    if ensemble.n_paths < 2:
        raise ConfigurationError(
            f"a Monte Carlo standard error needs at least 2 paths, got {ensemble.n_paths}")


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(values.size))


def extremal_index(ensemble: WalkEnsemble) -> tuple[float, float]:
    """(theta, Monte Carlo stderr) from per-path maxima of the walk."""
    _require_paths(ensemble)
    capped_max = np.minimum(ensemble.maxima, 1.0)
    mean, se = _mean_se(capped_max)
    return 1.0 - mean, se


def cluster_size_probs(ensemble: WalkEnsemble, kmax: int) -> ExtremalSummary:
    """Limiting cluster-size probabilities pi_1..pi_kmax and theta_1..theta_kmax."""
    _require_paths(ensemble)
    if kmax < 1:
        raise ConfigurationError("kmax must be >= 1")
    if ensemble.horizon <= kmax:
        raise ConfigurationError(
            f"horizon {ensemble.horizon} must exceed kmax {kmax} (U_(kmax+1) needed)")
    p, kernel = ensemble.n_paths, _kernel._KERNEL
    # row p: min(U_0, 1) = 1, then min(U_k, 1) for k = 1..kmax+1
    capped = np.empty((p, kmax + 2))

    def top(start, rows):
        count, n = rows.shape
        kernel.capped_top(rows, count, n, kmax + 1, capped[start:start + count])

    ensemble._map_blocks(ensemble.horizon, top)
    theta_all, theta_all_sd = np.empty(kmax + 1), np.empty(kmax + 1)
    pi_mean, pi_sd = np.empty(kmax), np.empty(kmax)
    kernel.cluster_moments(capped, p, kmax + 2, theta_all, theta_all_sd, pi_mean, pi_sd)
    theta = float(theta_all[0])
    if theta == 0.0:
        raise ConfigurationError("estimated theta is 0; cluster sizes are undefined")
    theta_all_se = theta_all_sd / np.sqrt(p)
    return ExtremalSummary(
        theta=theta,
        theta_k=theta_all[:kmax].copy(),
        pi_k=pi_mean / theta,
        mc_stderr={"theta": float(theta_all_se[0]),
                   "theta_k": theta_all_se[:kmax].copy(),
                   "pi_k": pi_sd / (np.sqrt(p) * theta)},
        # a contiguous copy, which numpy sums as one 1-d array, pairwise
        horizon_remainder=float(capped[:, kmax + 1].copy().mean()),
    )


def hill_avar_sre(ensemble: WalkEnsemble) -> HillAvarSRE:
    """Asymptotic variance of the Hill estimator for the SRE solution.

    Raises `HorizonTooSmallError` when the bound on the omitted tail exceeds
    ``DEFAULT_TAIL_TOL``, or when ``E A**(kappa/2) >= 1``, where no horizon
    bounds it.
    """
    _require_paths(ensemble)
    kappa = ensemble.kappa
    mean, se = _mean_se(ensemble.capped_sums)
    r = float(ensemble.driver.law.moment(kappa / 2.0))  # E min(W_j, 1) <= r**j
    if not (r < 1.0):
        raise HorizonTooSmallError(
            f"E A**(kappa/2) = {r:.6g} >= 1, so no horizon bounds the omitted tail")
    omitted = r ** (ensemble.horizon + 1) / (1.0 - r)
    scale = kappa ** -2
    bound = 2.0 * scale * omitted
    if bound > DEFAULT_TAIL_TOL:
        raise HorizonTooSmallError(
            f"omitted-tail bound {bound:.3g} exceeds tolerance {DEFAULT_TAIL_TOL:g}; "
            f"increase the horizon")
    return HillAvarSRE(variance=scale * (1.0 + 2.0 * mean),
                       stderr=2.0 * scale * se, tail_bound=bound)


def joint_exceedance(ensemble: WalkEnsemble, query: JointExceedanceQuery) -> tuple[float, float]:
    """Limiting joint-exceedance functional (limit, Monte Carlo stderr).

    Raises `DomainError` when the limit or its standard error is not finite,
    as where some ``x_j**-kappa`` exceeds the largest double.
    """
    _require_paths(ensemble)
    k = len(query.x)
    if k > ensemble.horizon + 1:
        raise ConfigurationError(f"query length {k} exceeds horizon + 1")
    with np.errstate(over="ignore"):  # an infinite weight is checked for below
        weights = np.asarray(query.x, dtype=np.float64) ** (-ensemble.kappa)
    if k == 1:  # only W_0 = 1 enters: the mean is exactly x_0**-kappa
        limit, se = float(weights[0]), 0.0
    else:
        extreme = np.min if query.mode == "all" else np.max
        reduced = np.empty(ensemble.n_paths)

        def reduce(start, rows):  # rows: W_1..W_{k-1}
            # column-major, so that numpy takes each row's extreme a whole
            # column at a time: the same values, and far faster for small k
            segment = np.empty((rows.shape[0], k), order="F")
            segment[:, 0] = 1.0  # W_0
            segment[:, 1:] = rows
            reduced[start:start + rows.shape[0]] = extreme(segment * weights[None, :], axis=1)

        ensemble._map_blocks(k - 1, reduce)
        with np.errstate(over="ignore", invalid="ignore"):
            limit, se = _mean_se(reduced)
    if not (np.isfinite(limit) and np.isfinite(se)):
        raise DomainError(f"joint-exceedance limit {limit} or its standard error {se} is not "
                          f"finite: the thresholds' x_j**-kappa are too large for a double")
    return limit, se
