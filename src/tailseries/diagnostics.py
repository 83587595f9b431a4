"""Randomness tests for fitted-model residuals.

Three classical tests with two-sided normal (or chi-square) reference
distributions:

* turning point test: counts local peaks and troughs; under i.i.d. data the
  count has mean 2(n-2)/3 and variance (16n-29)/90.
* difference-sign test: counts increments X_i > X_{i-1}; mean (n-1)/2,
  variance (n+1)/12.
* portmanteau test in the Ljung-Box form
  Q = n(n+2) * sum_{j<=h} acf_j**2 / (n-j), referred to chi-square(h).

Ties at comparisons are treated as "not greater"; with continuous data they
have probability zero. The portmanteau statistic assumes a finite innovation
variance; callers working with extreme value index >= 1/2 get a warning from
the experiment harness.

The p-value helpers import scipy.special where they are called, so that
importing the package, and every run that computes no p-value, loads no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .estimators import _lag_ratios

ALPHA = 0.05


@dataclass(frozen=True)
class TestReport:
    statistic: float
    z_or_q: float
    p_value: float
    reject_at_5pct: bool


def normal_cdf(x) -> float | np.ndarray:
    """Standard normal CDF via the complementary error function."""
    from scipy.special import erfc

    return 0.5 * erfc(-np.asarray(x, dtype=np.float64) / np.sqrt(2.0))


def normal_sf(x) -> float | np.ndarray:
    """Standard normal survival function, ``normal_cdf(-x)``."""
    return normal_cdf(-np.asarray(x, dtype=np.float64))


def chisq_sf(x, df: float) -> float | np.ndarray:
    from scipy.special import gammaincc

    return gammaincc(df / 2.0, np.asarray(x, dtype=np.float64) / 2.0)


def _normal_report(statistic: float, mean: float, var: float) -> TestReport:
    z = (statistic - mean) / np.sqrt(var)
    p = float(2.0 * normal_sf(abs(z)))
    return TestReport(statistic=float(statistic), z_or_q=float(z),
                      p_value=p, reject_at_5pct=p < ALPHA)


def turning_point_test(series) -> TestReport:
    """Count of strict local extrema against the i.i.d. reference."""
    x = np.asarray(series, dtype=np.float64)
    n = x.size
    if n < 3:
        raise DomainError("need at least 3 observations")
    mid, left, right = x[1:-1], x[:-2], x[2:]
    turns = ((mid > left) & (mid > right)) | ((mid < left) & (mid < right))
    count = int(np.count_nonzero(turns))
    return _normal_report(count, 2.0 * (n - 2) / 3.0, (16.0 * n - 29.0) / 90.0)


def difference_sign_test(series) -> TestReport:
    """Count of positive increments against the i.i.d. reference."""
    x = np.asarray(series, dtype=np.float64)
    n = x.size
    if n < 2:
        raise DomainError("need at least 2 observations")
    count = int(np.count_nonzero(x[1:] > x[:-1]))
    return _normal_report(count, (n - 1) / 2.0, (n + 1) / 12.0)


def sample_acf(series, hmax: int) -> np.ndarray:
    """Mean-centered sample autocorrelations at lags 1..hmax."""
    x = np.asarray(series, dtype=np.float64)
    n = x.size
    if not (1 <= hmax < n):
        raise ConfigurationError("need 1 <= hmax < n")
    return np.array(_lag_ratios(x, range(1, hmax + 1)))


def ljung_box_curve(series, hmax: int) -> tuple[np.ndarray, np.ndarray]:
    """(Q_h, p_h) for every h = 1..hmax in one pass."""
    x = np.asarray(series, dtype=np.float64)
    n = x.size
    rho = sample_acf(x, hmax)
    terms = rho**2 / (n - np.arange(1, hmax + 1))
    q = n * (n + 2.0) * np.cumsum(terms)
    p = chisq_sf(q, np.arange(1, hmax + 1))
    return q, np.asarray(p, dtype=np.float64)


def portmanteau_test(series, h: int = 20) -> TestReport:
    """Ljung-Box test with ``h`` lags."""
    q, p = ljung_box_curve(series, h)
    return TestReport(statistic=float(q[-1]), z_or_q=float(q[-1]),
                      p_value=float(p[-1]), reject_at_5pct=float(p[-1]) < ALPHA)
