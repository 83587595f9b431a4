"""Tail estimators: Hill, AR(1) fitting, residuals, and extreme quantiles.

Two competing extreme-quantile estimators are provided. The direct one
applies the Hill estimator and the power-law extrapolation to the
observations themselves. The model-based one first fits an AR(1)
coefficient, forms residuals, estimates the residual tail, and maps the
residual quantile to the series quantile through the fitted tail-ratio
factor ``1 - |phi_hat|**(1/gamma_hat)``.

Order-statistic conventions: ``X_{j:n}`` is the j-th smallest of n values;
the Hill estimator with k order statistics uses the top k values over the
threshold ``X_{n-k:n}`` (the (k+1)-th largest). All estimators also come in
a vectorized ``*_curve`` form evaluating a whole grid of k at once, which is
what the Monte Carlo harness and the error-vs-k figures use. Each curve sorts
its sample once, in descending order, and reads both the Hill step and the
Weissman anchor from that order; only a Hill step on absolute values
(``use_abs``) sorts a second time. Every k is a whole number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateInputError, DomainError

CLAMP_FLOOR = 1e-6  # floor for 1 - |phi|**(1/gamma) when |phi_hat| >= 1


def _check_t(t: float):
    if not (0 < t < 1):
        raise ConfigurationError("t must lie in (0, 1)")


def _whole(ks) -> bool:
    """Whether every value of ``ks`` is a whole number (``10.0`` is one)."""
    k = np.asarray(ks)
    return k.dtype.kind in "iu" or (
        k.dtype.kind == "f" and bool(np.all(np.isfinite(k) & (k == np.trunc(k)))))


def _point(value, failure: str) -> float:
    """One point of a curve as a float: NaN raises `DomainError` with
    ``failure``, an infinite value the overflow error."""
    value = float(value)
    if np.isnan(value):
        raise DomainError(failure)
    if not np.isfinite(value):
        raise DomainError("quantile estimate is not finite: the extrapolation overflows")
    return value


@dataclass(frozen=True)
class QuantileTarget:
    """Extreme-quantile target: estimate F^{-1}(1 - t) from n points using k
    upper order statistics."""

    t: float
    k: int
    n: int

    def __post_init__(self):
        _check_t(self.t)
        if not _whole(self.k):
            raise ConfigurationError(f"k must be a whole number, got {self.k!r}")
        if not (1 <= self.k < self.n):
            raise ConfigurationError("k must satisfy 1 <= k < n")


@dataclass(frozen=True)
class ModelBasedFit:
    """The model-based quantile estimate with the AR(1) coefficient and
    residual tail index it rests on, and whether the tail-ratio factor was
    clamped."""

    estimate: float
    phi_hat: float
    gamma_hat: float
    clamped: bool


def hill(sample, k: int) -> float:
    """Hill estimate ``(1/k) * sum_{i=1..k} log(X_{n-i+1:n} / X_{n-k:n})``.

    One point of `hill_curve`. Requires the threshold order statistic
    ``X_{n-k:n}`` to be positive. If all top k+1 values are tied the estimate
    is exactly 0, which is valid.
    """
    return _point(hill_curve(sample, [k])[0],
                  f"threshold order statistic X_(n-k:n) must be > 0 (k={k})")


def hill_curve(sample, ks) -> np.ndarray:
    """`hill` over a whole grid of k in one pass; NaN where the threshold
    order statistic is not positive, exactly 0 where the top k+1 values tie."""
    return _tail(sample, ks)[2]


def _tail(sample, ks, use_abs: bool = False, k_rule: str = "1 <= k <= n - 1"):
    """(ks as integers, the sample sorted once in descending order, the Hill
    curve over ks), with every k a whole number in ``1..n-1`` (``k_rule``
    names the bound to the caller). With ``use_abs`` the Hill curve is that of
    the absolute values, a second sort; the order returned stays the raw one.
    """
    x = np.asarray(sample, dtype=np.float64)
    if not _whole(ks):
        raise DomainError("every k must be a whole number")
    ks = np.asarray(ks)
    n = x.size
    # bounds before the cast: a whole float such as 1e30 has no int64
    if ks.size and not (ks.min() >= 1 and ks.max() <= n - 1):
        raise DomainError(f"every k must satisfy {k_rule}")
    ks = ks.astype(np.int64, copy=False)
    if not np.isfinite(x).all():
        raise DomainError("sample contains a non-finite value")
    desc = np.sort(x)[::-1]
    top = np.sort(np.abs(x))[::-1] if use_abs else desc
    thresholds = top[ks]  # (k+1)-th largest
    valid = thresholds > 0
    npos = int(np.count_nonzero(top > 0))
    logs = np.zeros(n)
    logs[:npos] = np.log(top[:npos])
    csum = np.cumsum(logs)
    gammas = np.full(ks.shape, np.nan)
    kv = ks[valid]
    gammas[valid] = csum[kv - 1] / kv - logs[kv]
    # the cumulative sum does not cancel exactly; a tied top is exactly 0
    gammas[valid & (thresholds == top[0])] = 0.0
    return ks, desc, gammas


def fit_ar1(series, center: bool = True) -> float:
    """Lag-1 sample autocorrelation (the default AR(1) coefficient estimate).

    With ``center=False`` the uncentered least-squares-through-origin slope
    ``sum X_t X_{t+1} / sum X_t**2`` is returned instead.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.size < 3:
        raise DomainError("need at least 3 observations")
    if not np.isfinite(x).all():
        raise DomainError("series contains a non-finite value")
    return float(_lag_ratios(x, (1,), center)[0])


def _lag_ratios(x: np.ndarray, lags, center: bool = True) -> list:
    """``sum_t d_t d_{t+j} / sum_t d_t**2`` at each lag ``j`` of ``lags``, with
    ``d`` the series less its mean (the series itself without ``center``):
    the sample autocorrelations, or the through-origin slope at lag 1.

    The ratios are scale-invariant; scaling by a power of two so that max|x|
    lies in [1/2, 1) is exact and keeps the lag products from overflowing.
    """
    x = np.ldexp(x, -np.frexp(np.max(np.abs(x)))[1])
    d = x - x.mean() if center else x
    denom = float(np.dot(d, d))
    if denom == 0.0:
        raise DegenerateInputError("series is constant")
    return [np.dot(d[:-j], d[j:]) / denom for j in lags]


def residuals_ar1(series, phi_hat: float) -> np.ndarray:
    """Residuals ``X_t - phi_hat * X_{t-1}`` for t = 2..n (n-1 values)."""
    x = np.asarray(series, dtype=np.float64)
    if x.size < 2:
        raise DomainError("need at least 2 observations")
    return x[1:] - phi_hat * x[:-1]


def weissman_extrapolate(anchor: float, gamma: float, n: int, k: int, u: float) -> float:
    """Power-law quantile extrapolation ``anchor * (n*u/k)**(-gamma)``; elementwise
    on arrays."""
    return anchor * (n * u / k) ** (-gamma)


def weissman_direct(series, target: QuantileTarget, use_abs: bool = False) -> float:
    """Direct extreme-quantile estimate ``X_{n-k:n} * (k/(n*t))**gamma_hat``
    with ``gamma_hat`` the Hill estimate on the series itself; one point of
    `weissman_direct_curve`.

    With ``use_abs`` the Hill step runs on absolute values; the anchor order
    statistic stays on the raw observations. An estimate beyond the largest
    double raises `DomainError`, as the failures of the curve do.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.size != target.n:
        raise ConfigurationError(f"series length {x.size} != target n {target.n}")
    return _point(weissman_direct_curve(x, [target.k], target.t, use_abs=use_abs)[0],
                  "Hill threshold or anchor order statistic X_(n-k:n) is not > 0")


def weissman_direct_curve(series, ks, t: float, use_abs: bool = False) -> np.ndarray:
    """`weissman_direct` over a k grid; NaN where the Hill threshold fails,
    inf where the extrapolation overflows. ``t`` must lie in (0, 1)."""
    _check_t(t)
    x = np.asarray(series, dtype=np.float64)
    ks, desc, gammas = _tail(x, ks, use_abs)
    anchors = desc[ks]
    with np.errstate(over="ignore", invalid="ignore"):
        est = anchors * (ks / (x.size * t)) ** gammas
        return np.where(anchors > 0, est, np.nan)


def _tail_ratio_factor(phi_hat: float, gamma_hat) -> tuple[np.ndarray, np.ndarray]:
    """(1 - |phi_hat|**(1/gamma_hat), clamped flag), elementwise in gamma_hat."""
    g = np.asarray(gamma_hat, dtype=np.float64)
    r = abs(phi_hat)
    if r >= 1.0:
        factor = np.full(g.shape, CLAMP_FLOOR)
        return factor, np.ones(g.shape, dtype=bool)
    with np.errstate(divide="ignore"):
        factor = np.where(g > 0, 1.0 - r ** (1.0 / np.where(g > 0, g, 1.0)), 1.0)
    return factor, np.zeros(g.shape, dtype=bool)


def _model_ar1(series, ks, t: float, use_abs: bool, center: bool):
    """The model-based estimator over a k grid, with its intermediate values:
    (estimates, phi_hat, gamma_hats, clamped mask)."""
    _check_t(t)
    x = np.asarray(series, dtype=np.float64)
    phi_hat = fit_ar1(x, center=center)
    ks, desc, gammas = _tail(residuals_ar1(x, phi_hat), ks, use_abs,
                             "1 <= k <= n - 2: an AR(1) fit leaves n - 1 residuals")
    # the anchor is the k-th largest raw residual, one above the Hill threshold
    anchors = desc[ks - 1]
    factor, clamped = _tail_ratio_factor(phi_hat, gammas)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        u = factor * t
        est = weissman_extrapolate(anchors, gammas, x.size, ks, u)
        est = np.where(anchors > 0, est, np.nan)
    return est, phi_hat, gammas, clamped


def weissman_model_ar1_fit(series, target: QuantileTarget, use_abs: bool = False,
                           center: bool = True) -> ModelBasedFit:
    """Model-based extreme-quantile estimate via AR(1) residual analysis,
    with its intermediate quantities; one point of `weissman_model_ar1_curve`.

    Steps: phi_hat = `fit_ar1`; residuals Z_t = X_t - phi_hat*X_{t-1};
    gamma_hat = Hill on the top k residual order statistics (absolute values
    when ``use_abs``); u = (1 - |phi_hat|**(1/gamma_hat)) * t; estimate =
    Z_{n-k:n-1} * (n*u/k)**(-gamma_hat). When |phi_hat| >= 1 the tail-ratio
    factor is clamped to ``CLAMP_FLOOR`` and flagged instead of failing, so
    Monte Carlo summaries are not censored. An estimate beyond the largest
    double raises `DomainError`.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.size != target.n:
        raise ConfigurationError(f"series length {x.size} != target n {target.n}")
    est, phi_hat, gammas, clamped = _model_ar1(x, [target.k], target.t, use_abs, center)
    estimate = _point(est[0], "residual Hill threshold or anchor order statistic is not > 0")
    return ModelBasedFit(estimate=estimate, phi_hat=phi_hat,
                         gamma_hat=float(gammas[0]), clamped=bool(clamped[0]))


def weissman_model_ar1_curve(series, ks, t: float) -> tuple[np.ndarray, float, np.ndarray]:
    """Model-based estimates over a k grid, with the default (centered) AR(1)
    fit and the Hill step on raw residuals.

    Returns (estimates, phi_hat, clamped mask); NaN where the residual Hill
    threshold or the anchor order statistic is not positive, inf where the
    extrapolation overflows. ``t`` must lie in (0, 1).
    """
    est, phi_hat, _, clamped = _model_ar1(series, ks, t, False, True)
    return est, phi_hat, clamped
