"""Closed-form tail quantities for heavy-tailed linear time series.

Everything here is a deterministic formula evaluator: the limiting ratio of
the series tail to the innovation tail, the asymptotic variance of the Hill
estimator applied directly to the observations, the ratio of minimal
asymptotic RMSEs between the residual-based and the direct Hill estimator
for an AR(1), and the second-order tail constants of a linear filter driven
by shifted-Pareto-type innovations.

A linear filter ``X_t = sum_j psi_j Z_{t-j}`` is one-sided: it is given by
its coefficients ``psi_0, ..., psi_J``. Infinite sequences enter through
finite truncations; for AR(1)-type geometric sequences the truncation horizon
is chosen from the tolerance ``TRUNCATION_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_MAX_AR1_HORIZON = 200_000
TRUNCATION_TOL = 1e-12


def _check_gamma(gamma: float):
    if not (0 < gamma < math.inf and 1.0 / gamma < math.inf):
        raise DomainError("gamma must be finite and > 0, with 1/gamma finite")


def _check_p(p: float):
    if not (0 < p <= 1):
        raise DomainError("p must lie in (0, 1]")


def _ar1_ratio(phi: float, gamma: float) -> float:
    """``|phi|**(1/gamma)``, the ratio of the AR(1) tail weights, checked to lie below 1."""
    if not (abs(phi) < 1):
        raise DomainError("|phi| must be < 1")
    _check_gamma(gamma)
    q = abs(phi) ** (1.0 / gamma)
    if q == 1.0:  # 1/gamma is too small for |phi|**(1/gamma) to differ from 1
        raise DomainError(f"|phi|**(1/gamma) rounds to 1 at phi={phi!r}, gamma={gamma!r}")
    return q


@dataclass(frozen=True)
class CoefficientSequence:
    """Moving-average coefficients ``values[j] = psi_j`` for ``j = 0, ..., J``.

    Any sequence of numbers is accepted, a numpy array included, and stored
    as a tuple of floats; a sequence of ``(j, psi_j)`` pairs is rejected.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not self.values:
            raise DomainError("coefficient sequence must be nonempty")
        if all(v == 0.0 for v in self.values):
            raise DomainError("at least one coefficient must be nonzero")

    @classmethod
    def ar1(cls, phi: float, gamma: float):
        """Geometric sequence ``psi_j = phi**j`` truncated for ``TRUNCATION_TOL``.

        The horizon guarantees both ``|psi_j|**(1/gamma) < tol`` past the end
        and that the weighted tail sums entering `tail_ratio_linear` /
        `hill_avar_linear` are below ``tol``, so doubling the horizon moves
        those evaluators by less than ``tol``. Where ``|phi|**(1/gamma)``
        is 0.0 (``phi = 0``, or an underflow), every weight
        ``|psi_j|**(1/gamma)`` with ``j >= 1`` is exactly 0.0, so the
        sequence is ``psi_0 = 1`` alone. Raises `DomainError` where even
        ``J = _MAX_AR1_HORIZON`` leaves those sums above the tolerance.
        """
        q = _ar1_ratio(phi, gamma)
        if q == 0.0:
            return cls((1.0,))

        def tail_bound(j):  # sum_{m>J} (m+2)*q**m  <=  (J+3)*q**(J+1)/(1-q)**2
            return (j + 3) * q ** (j + 1) / (1.0 - q) ** 2

        horizon = max(1, int(np.ceil(np.log(TRUNCATION_TOL) / np.log(q))))
        while horizon < _MAX_AR1_HORIZON and tail_bound(horizon) > TRUNCATION_TOL / 8.0:
            horizon = int(horizon * 1.3) + 1
        horizon = min(horizon, _MAX_AR1_HORIZON)
        if tail_bound(horizon) > TRUNCATION_TOL / 8.0:
            raise DomainError(f"the AR(1) sequence at phi={phi!r}, gamma={gamma!r} needs more "
                              f"than {_MAX_AR1_HORIZON + 1} terms to meet TRUNCATION_TOL")
        return cls(np.power(phi, np.arange(horizon + 1, dtype=np.float64)))


def _split_weights(seq: CoefficientSequence, gamma: float):
    """``(psi_j, |psi_j|**(1/gamma))`` as arrays indexed by j, after checking gamma."""
    _check_gamma(gamma)
    vals = np.array(seq.values)
    return vals, np.abs(vals) ** (1.0 / gamma)


def tail_ratio_linear(seq: CoefficientSequence, gamma: float, p: float) -> float:
    """Limit of (series tail) / (innovation tail) for a linear filter.

    Equals ``(1/p) * sum_j [ p*psi_j**(1/gamma)*1{psi_j>0}
    + (1-p)*|psi_j|**(1/gamma)*1{psi_j<0} ]`` over the truncated sequence.
    """
    vals, w = _split_weights(seq, gamma)
    _check_p(p)
    total = p * w[vals > 0].sum() + (1.0 - p) * w[vals < 0].sum()
    return float(total / p)


def tail_ratio_ar1(phi: float, gamma: float, p: float = 0.5) -> float:
    """Closed form of `tail_ratio_linear` for ``psi_j = phi**j``."""
    q = _ar1_ratio(phi, gamma)
    _check_p(p)
    if phi >= 0:
        return float(1.0 / (1.0 - q))
    return float((1.0 + q * (1.0 - p) / p) / (1.0 - q * q))


def hill_avar_linear(seq: CoefficientSequence, gamma: float) -> float:
    """Asymptotic variance of the Hill estimator applied to a linear series.

    ``gamma**2 * (1 + 2 * S / D)`` with
    ``S = sum_{j>=1} sum_{i>=0} min(|psi_j|**(1/g), |psi_{i+j}|**(1/g))`` and
    ``D = sum_{i>=0} |psi_i|**(1/g)``, over the truncated sequence.

    ``S`` sums the minimum of every pair ``1 <= j <= k`` of the weights
    ``w_j = |psi_j|**(1/g)``, so with ``v_1 >= v_2 >= ...`` the weights
    ``w_1, w_2, ...`` in descending order it is ``sum_b b * v_b``: ``v_b`` is
    the minimum of the ``b`` pairs it forms with ``v_1..v_b``. numpy's
    pairwise sum adds those terms in the same order on every platform.
    """
    _, w = _split_weights(seq, gamma)
    denom = w.sum()
    if not np.isfinite(denom) or denom <= 0:
        raise DomainError("normalizing coefficient sum is degenerate")
    descending = np.sort(w[1:])[::-1]
    num = (np.arange(1.0, descending.size + 1.0) * descending).sum()
    value = gamma * gamma * (1.0 + 2.0 * num / denom)
    if not math.isfinite(value):
        raise DomainError(f"the Hill asymptotic variance overflows at gamma={gamma!r}")
    return float(value)


def hill_avar_ar1(phi: float, gamma: float) -> float:
    """Closed form of `hill_avar_linear` for ``psi_j = phi**j``:
    ``gamma**2 * (1+|phi|**(1/gamma)) / (1-|phi|**(1/gamma))``."""
    q = _ar1_ratio(phi, gamma)
    value = gamma * gamma * (1.0 + q) / (1.0 - q)
    if not math.isfinite(value):
        raise DomainError(f"the Hill asymptotic variance overflows at gamma={gamma!r}")
    return float(value)


def rmse_ratio_ar1(phi: float, gamma: float) -> float:
    """Ratio of minimal asymptotic RMSEs, residual-based over direct Hill.

    Evaluates the formula exactly as printed:

        [ (1-|phi|**(1/g+1))**2
          / ((1-|phi|**(1/g))**2 * (1+|phi|**(1/g))**(2g)) ] ** (1/(2g+1))

    No correction is applied; see `RMSE_RATIO_REPORTED` for the reference
    value quoted for (0.8, 0.3), which this formula does not reproduce.
    """
    q = _ar1_ratio(phi, gamma)
    a = abs(phi)
    num = (1.0 - a ** (1.0 / gamma + 1.0)) ** 2
    try:
        den = (1.0 - q) ** 2 * (1.0 + q) ** (2.0 * gamma)
    except OverflowError:
        raise DomainError(f"(1+|phi|**(1/gamma))**(2*gamma) overflows at gamma={gamma!r}") from None
    return float((num / den) ** (1.0 / (2.0 * gamma + 1.0)))


# Reference value quoted for (phi, gamma) = (0.8, 0.3). The printed formula
# evaluates to ~1.0643 there; both numbers are surfaced, never reconciled
# silently.
RMSE_RATIO_REPORTED = {(0.8, 0.3): 1.03}


@dataclass(frozen=True)
class SecondOrderTail:
    """Constants of the expansion F̄_Z(x) = x**(-1/g)*(c + d/x + o(1/x))
    and its left-tail analog with (c_tilde, d_tilde)."""

    c: float
    d: float
    c_tilde: float = 0.0
    d_tilde: float = 0.0

    def __post_init__(self):
        if not (self.c > 0):
            raise DomainError("c must be > 0")
        if self.c_tilde < 0:
            raise DomainError("c_tilde must be >= 0")


def shifted_pareto_tail(gamma: float, p: float = 0.5) -> SecondOrderTail:
    """Second-order constants of the shifted two-sided Pareto law:
    ``p*(x+1)**(-1/g) = x**(-1/g) * (p - (p/g)/x + o(1/x))``."""
    _check_gamma(gamma)
    _check_p(p)
    return SecondOrderTail(c=p, d=-p / gamma, c_tilde=1.0 - p, d_tilde=-(1.0 - p) / gamma)


def second_order_constants(seq: CoefficientSequence, gamma: float,
                           tail: SecondOrderTail) -> tuple[float, float]:
    """Second-order tail constants (d_psi, D_psi) of the filtered series.

    d_psi weights ``|psi_j|**(1/g)`` by c (positive coefficients) or c_tilde
    (negative ones); D_psi weights ``|psi_j|**(1/g+1)`` by c*d or
    c_tilde*d_tilde.
    """
    vals, w1 = _split_weights(seq, gamma)
    w2 = np.abs(vals) ** (1.0 / gamma + 1.0)
    pos, neg = vals > 0, vals < 0
    d_psi = tail.c * w1[pos].sum() + tail.c_tilde * w1[neg].sum()
    big_d_psi = tail.c * tail.d * w2[pos].sum() + tail.c_tilde * tail.d_tilde * w2[neg].sum()
    return float(d_psi), float(big_d_psi)
