"""Reference computations made apart from the program, in plain Python.

Nothing here imports tailseries or numpy. The generator is rebuilt from the
constants documented in ``src/tailseries/rng.py``, the innovation laws and
recursions from the model definitions in the README, and the estimators by
sorting lists. The benchmark compares the program's outputs against these.
"""

from __future__ import annotations

import math

MASK64 = (1 << 64) - 1
WEYL = 0x9E3779B97F4A7C15
STREAM_SALT = 0xD2B74407B1CE6E93
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB
CLAMP_FLOOR = 1e-6  # tail-ratio factor used when the fitted |phi| >= 1
NAN = float("nan")


def mix64(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


def stream_base(seed: int, path: tuple) -> int:
    """Base of the stream reached from ``seed`` through substream indices ``path``."""
    base = mix64(seed)
    for i in path:
        base = mix64(base + (i + 1) * STREAM_SALT)
    return base


def uniforms(base: int, n: int) -> list[float]:
    """Draws 1..n of the stream with this base, in (0, 1)."""
    scale = 2.0 ** -53
    return [((mix64(base + c * WEYL) >> 11) + 0.5) * scale for c in range(1, n + 1)]


def pareto_quantile(shifted: bool, gamma: float, p: float, u: float) -> float:
    """Inverse CDF of the two-sided Pareto law (shifted or not) at ``u``."""
    if u <= 1.0 - p:
        left = ((1.0 - p) / u) ** gamma
        return 1.0 - left if shifted else -left
    right = (p / (1.0 - u)) ** gamma
    return right - 1.0 if shifted else right


def linear_ar1(z: list[float], phi: float) -> list[float]:
    x, state = [], 0.0
    for zt in z:
        state = phi * state + zt
        x.append(state)
    return x


def nonlinear_ar1(z: list[float], phi: float, delta: float) -> list[float]:
    x, state = [], 0.0
    for zt in z:
        sign = 1.0 if state > 0 else (-1.0 if state < 0 else 0.0)
        state = phi * state + delta * sign * math.log(max(abs(state), 1.0)) + zt
        x.append(state)
    return x


def hill_curve(values: list[float], ks) -> list[float]:
    """Hill estimate at each k over the (k+1)-th largest value; NaN if that is <= 0."""
    desc = sorted(values, reverse=True)
    out = []
    for k in ks:
        threshold = desc[k]
        if threshold <= 0:
            out.append(NAN)
            continue
        out.append(math.fsum(math.log(v) for v in desc[:k]) / k - math.log(threshold))
    return out


def direct_curve(x: list[float], ks, t: float) -> list[float]:
    """Direct Weissman estimate ``X_{n-k:n} * (k/(n t))**gamma_hat`` at each k."""
    desc = sorted(x, reverse=True)
    n = len(x)
    out = []
    for k, gamma in zip(ks, hill_curve(x, ks)):
        anchor = desc[k]
        ok = anchor > 0 and not math.isnan(gamma)
        out.append(anchor * (k / (n * t)) ** gamma if ok else NAN)
    return out


def fit_ar1(x: list[float]) -> float:
    mean = math.fsum(x) / len(x)
    d = [v - mean for v in x]
    return math.fsum(a * b for a, b in zip(d, d[1:])) / math.fsum(v * v for v in d)


def model_curve(x: list[float], ks, t: float) -> list[float]:
    """Model-based estimate from AR(1) residuals at each k (raw residuals)."""
    phi = fit_ar1(x)
    resid = [b - phi * a for a, b in zip(x, x[1:])]
    desc = sorted(resid, reverse=True)
    n = len(x)
    out = []
    for k, gamma in zip(ks, hill_curve(resid, ks)):
        anchor = desc[k - 1]
        if anchor <= 0 or math.isnan(gamma):
            out.append(NAN)
            continue
        if abs(phi) >= 1.0:
            factor = CLAMP_FLOOR
        elif gamma > 0:
            factor = 1.0 - abs(phi) ** (1.0 / gamma)
        else:
            factor = 1.0
        out.append(anchor * (n * factor * t / k) ** (-gamma))
    return out


def walk(u: list[float], a_up: float, a_down: float, p_up: float, kappa: float) -> list[float]:
    """Geometric walk ``W_j = prod_{i<=j} A_i**kappa`` of a two-point multiplier."""
    out, w = [], 1.0
    for ui in u:
        w *= (a_up if ui < p_up else a_down) ** kappa
        out.append(w)
    return out


def two_point_hill_avar(a_up_log2: int, p_up: float, tol: float = 1e-15) -> float:
    """Exact ``1 + 2 * sum_j E min(W_j, 1)`` for A in {2**a, 2**-1}, kappa = 1.

    With ``a_up = 2**a_up_log2`` and ``a_down = 1/2``, ``W_j = 2**(a*U - (j-U))``
    for ``U ~ Bin(j, p_up)``; each term is a finite binomial sum. The series is
    cut where the remaining terms, bounded geometrically, fall below ``tol``.
    """
    lp, lq, ln2 = math.log(p_up), math.log(1.0 - p_up), math.log(2.0)
    total, j, prev = 0.0, 0, 1.0
    while True:
        j += 1
        term = 0.0
        for u in range(j + 1):
            log_pmf = (math.lgamma(j + 1) - math.lgamma(u + 1) - math.lgamma(j - u + 1)
                       + u * lp + (j - u) * lq)
            term += math.exp(log_pmf + min(a_up_log2 * u - (j - u), 0) * ln2)
        total += term
        ratio = term / prev
        prev = term
        if j > 10 and ratio < 1.0 and term * ratio / (1.0 - ratio) < tol:
            return 1.0 + 2.0 * total
