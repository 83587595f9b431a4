"""Generators for the three time-series models and the multiplicative walks.

Models:

* linear AR(1):     X_t = phi1 * X_{t-1} + Z_t
* nonlinear AR(1):  X_t = phi1 * X_{t-1}
                          + delta * sgn(X_{t-1}) * log(max(|X_{t-1}|, 1)) + Z_t
* SRE:              X_t = A_t * X_{t-1} + B_t  with i.i.d. positive (A_t, B_t)

plus the geometric random walk ``W_j = prod_{i<=j} A_i**kappa`` that drives
all extremal-dependence quantities of the SRE, and the solver for the moment
exponent ``kappa`` with ``E A**kappa = 1``.

The two AR(1) recursions step blocks of innovations through ``_KERNEL``: the
C kernel ``_recursion.c``, which `_load_kernel` compiles on first import, or,
without a compiler, ``_PYTHON_KERNEL``, with the same bytes, only slower.
``RECURSION_PATH`` (``"c"`` or ``"python"``) says which one this process
runs. The SRE recursion runs in Python on either path.

Draw protocol (frozen): AR variants start at 0 and consume one innovation per
step, ``burnin + n`` steps in total. The SRE consumes one block of uniforms
for the multiplier sequence and, if the additive part is random, one block
for it; the start value is the first additive draw. Walk path ``p`` consumes
draws 1..J of substream ``p`` of the supplied stream.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import math
import os
import platform
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from scipy.special import ndtri

from . import distributions as dists
from .distributions import InnovationSpec, json_fields, json_number, json_object
from .errors import ConfigurationError, NoRootError, SimulationError
from .rng import RngState, uniforms_for_bases

LINEAR_AR1 = "linear-ar1"
NONLINEAR_AR1 = "nonlinear-ar1"
SRE = "sre"

_KAPPA_BRACKET = (1e-6, 64.0)
_PATH_BLOCK = 8192
_DRAW_BLOCK = 65_536  # innovations per draw in the AR(1) recursions

_KERNEL_SOURCE = Path(__file__).with_name("_recursion.c")
# Never -ffast-math or -march; -ffp-contract=off keeps `a*b + c` two roundings.
_KERNEL_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
# ctypes checks dtype, layout and (for the state buffer) writability per call
_STATES = np.ctypeslib.ndpointer(np.float64, flags=("C_CONTIGUOUS", "WRITEABLE"))
_KERNEL_SIGNATURES = {
    "linear_ar1": (_STATES, ctypes.c_size_t, ctypes.c_double, ctypes.c_double),
    "nonlinear_ar1": (_STATES, ctypes.c_size_t, ctypes.c_double, ctypes.c_double,
                      ctypes.c_double),
}


def _kernel_dirs():
    """Where the compiled kernel is cached, in order of preference. The user
    cache is looked up only when the package's ``__pycache__/`` is passed
    over, and is left out when no home directory can be determined."""
    yield Path(__file__).parent / "__pycache__"
    user_cache = os.environ.get("XDG_CACHE_HOME")
    if not user_cache:
        try:
            user_cache = Path.home() / ".cache"
        except RuntimeError:
            return
    yield Path(user_cache) / "tailseries"


def _load_kernel(dirs) -> ctypes.CDLL | None:
    """The recursion kernel, compiled into the first writable directory of
    ``dirs`` unless a library for this source, these flags and this platform
    is already there; None when no compiler runs or the build fails.

    The library is built under a temporary name and renamed into place, so a
    process never loads a half-written file from a concurrent first import.
    A new build removes the libraries of older sources from its directory.
    """
    try:
        source = _KERNEL_SOURCE.read_bytes()
    except OSError:
        return None  # a copy installed without its C source
    key = hashlib.sha256(repr((source, _KERNEL_FLAGS, sys.platform,
                               platform.machine())).encode()).hexdigest()[:16]
    for directory in dirs:
        library = directory / f"_recursion-{key}.so"
        if not library.exists():
            try:
                directory.mkdir(parents=True, exist_ok=True)
                fd, partial = tempfile.mkstemp(suffix=".so.tmp", dir=directory)
            except OSError:
                continue  # not writable: try the next directory
            os.close(fd)
            try:
                subprocess.run(["cc", *_KERNEL_FLAGS, "-o", partial, str(_KERNEL_SOURCE), "-lm"],
                               check=True, capture_output=True, timeout=120)
                os.replace(partial, library)
            except (OSError, subprocess.SubprocessError):
                return None  # no compiler, or it failed
            finally:
                if os.path.exists(partial):
                    os.unlink(partial)
            for stale in directory.glob("_recursion-*.so"):
                if stale != library:
                    with contextlib.suppress(OSError):  # removed concurrently
                        stale.unlink()
        try:
            kernel = ctypes.CDLL(str(library))
        except OSError:
            return None
        for name, argtypes in _KERNEL_SIGNATURES.items():
            function = getattr(kernel, name)
            function.argtypes, function.restype = argtypes, ctypes.c_double
        return kernel
    return None


def _linear_ar1(z: np.ndarray, n: int, phi: float, state: float) -> float:
    """``linear_ar1`` of `_recursion.c`, in Python."""
    # The same bits as the C kernel: lfilter([1], [1, -phi], z) steps
    # y = 1.0*z + (0.0*z_prev + phi*y_prev), and the carried state enters as
    # the initial condition phi*state. The products by 1.0 and 0.0 are exact,
    # a signed zero added to a nonzero sum leaves it as it is, and when every
    # term is zero both give +0.0, because no innovation is -0.0. A non-finite
    # draw makes both paths non-finite from its step on.
    from scipy.signal import lfilter
    z[:n] = lfilter([1.0], [1.0, -phi], z[:n], zi=[phi * state])[0]
    return float(z[n - 1])


def _nonlinear_ar1(z: np.ndarray, n: int, phi: float, delta: float, state: float) -> float:
    """``nonlinear_ar1`` of `_recursion.c`, in Python."""
    # The three branches equal the documented formula bit for bit:
    # (delta * +-1.0) * L is exactly +-(delta * L), and a + (-b) is exactly
    # a - b. For |state| <= 1 the formula adds delta * sgn * log(1.0) =
    # +-0.0, which can change only the sign of a zero sum; adding zt then
    # removes that sign, because no innovation is -0.0: a nonzero zt
    # gives zt, and any zero plus +0.0 is +0.0 (the shifted law draws
    # +0.0 at uniforms next to 1 - p). A nan takes the last branch and
    # stays nan, as in the formula; delta is finite (`SeriesModel`
    # checks), so the skipped term is never nan. The C kernel runs the
    # same branches with the same roundings (see `_recursion.c`).
    log = math.log
    states = z[:n].tolist()
    for i, zt in enumerate(states):
        if state > 1.0:
            state = phi * state + delta * log(state) + zt
        elif state < -1.0:
            state = phi * state - delta * log(-state) + zt
        else:
            state = phi * state + zt
        states[i] = state
    z[:n] = states
    return state


_PYTHON_KERNEL = SimpleNamespace(linear_ar1=_linear_ar1, nonlinear_ar1=_nonlinear_ar1)
_KERNEL = _load_kernel(_kernel_dirs()) or _PYTHON_KERNEL
RECURSION_PATH = "python" if _KERNEL is _PYTHON_KERNEL else "c"
if _KERNEL is _PYTHON_KERNEL:
    import scipy.signal  # noqa: F401  the fallback's lfilter, inherited by forked pool workers


@dataclass(frozen=True)
class TwoPointLaw:
    """P{A = a_up} = p_up, P{A = a_down} = 1 - p_up."""

    a_up: float
    a_down: float
    p_up: float

    def __post_init__(self):
        if not (self.a_up > 0 and self.a_down > 0):
            raise ConfigurationError("two-point support must be positive")
        if not (0 < self.p_up < 1):
            raise ConfigurationError("p_up must lie in (0, 1)")

    def mean_log(self) -> float:
        return self.p_up * np.log(self.a_up) + (1 - self.p_up) * np.log(self.a_down)

    def moment(self, s: float) -> float:
        return self.p_up * self.a_up**s + (1 - self.p_up) * self.a_down**s

    def prob_above_one(self) -> float:
        return (self.p_up if self.a_up > 1 else 0.0) + ((1 - self.p_up) if self.a_down > 1 else 0.0)

    def sample_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        return np.where(u < self.p_up, self.a_up, self.a_down)

    def to_json(self) -> dict:
        return {"kind": "two-point", "a_up": self.a_up, "a_down": self.a_down, "p_up": self.p_up}


@dataclass(frozen=True)
class LognormalLaw:
    """log A ~ Normal(mu, sigma**2)."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0):
            raise ConfigurationError("sigma must be > 0")

    def mean_log(self) -> float:
        return self.mu

    def moment(self, s: float) -> float:
        return float(np.exp(s * self.mu + 0.5 * (s * self.sigma) ** 2))

    def prob_above_one(self) -> float:
        return 1.0  # unbounded support

    def sample_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        return np.exp(self.mu + self.sigma * ndtri(u))

    def to_json(self) -> dict:
        return {"kind": "lognormal", "mu": self.mu, "sigma": self.sigma}


def _law_from_json(obj: dict):
    kind = json_object(obj, "multiplier law").get("kind")
    if kind == "two-point":
        keys = ("a_up", "a_down", "p_up")
        json_fields(obj, "two-point", ("kind",) + keys)
        return TwoPointLaw(*(json_number(obj, key, "two-point") for key in keys))
    if kind == "lognormal":
        keys = ("mu", "sigma")
        json_fields(obj, "lognormal", ("kind",) + keys)
        return LognormalLaw(*(json_number(obj, key, "lognormal") for key in keys))
    raise ConfigurationError(f"unknown multiplier law {kind!r}")


@dataclass(frozen=True)
class SREDriver:
    """Law of the i.i.d. pairs (A_t, B_t) of the stochastic recurrence equation.

    ``b_constant`` and ``b_spec`` are mutually exclusive; a random additive
    part must have positive support (an `InnovationSpec` with p = 1).
    """

    law: TwoPointLaw | LognormalLaw
    b_constant: float | None = 1.0
    b_spec: InnovationSpec | None = None

    def __post_init__(self):
        if (self.b_constant is None) == (self.b_spec is None):
            raise ConfigurationError("exactly one of b_constant / b_spec is required")
        if self.b_constant is not None and not (self.b_constant > 0):
            raise ConfigurationError("constant additive part must be > 0")
        if self.b_spec is not None and self.b_spec.p != 1.0:
            raise ConfigurationError("random additive part must have positive support (p = 1)")

    def check_drift(self):
        if not (self.law.mean_log() < 0):
            raise ConfigurationError(
                f"multiplier law must have E[log A] < 0, got {self.law.mean_log():.6g}")

    def sample_b(self, rng: RngState, n: int) -> np.ndarray:
        if self.b_constant is not None:
            return np.full(n, self.b_constant)
        return dists.sample(self.b_spec, rng, n)

    def to_json(self) -> dict:
        b = ({"kind": "constant", "value": self.b_constant}
             if self.b_constant is not None else self.b_spec.to_json())
        return {"law": self.law.to_json(), "b": b}

    @classmethod
    def from_json(cls, obj: dict) -> "SREDriver":
        json_fields(obj, "driver", ("law",), ("b",))
        law = _law_from_json(obj["law"])
        b = json_object(obj.get("b", {"kind": "constant", "value": 1.0}), "driver b")
        if b.get("kind") == "constant":
            json_fields(b, "driver b", ("kind", "value"))
            return cls(law, b_constant=json_number(b, "value", "driver b"))
        return cls(law, b_constant=None, b_spec=InnovationSpec.from_json(b))


@dataclass(frozen=True)
class SeriesModel:
    """One of the three time-series models, with its burn-in."""

    variant: str
    phi1: float = 0.0
    delta: float = 0.0
    innovations: InnovationSpec | None = None
    driver: SREDriver | None = None
    burnin: int = 10_000

    def __post_init__(self):
        if self.burnin < 0:
            raise ConfigurationError("burnin must be >= 0")
        if self.variant == LINEAR_AR1:
            if not (abs(self.phi1) < 1):
                raise ConfigurationError("linear AR(1) requires |phi1| < 1")
            if self.innovations is None:
                raise ConfigurationError("innovations required")
        elif self.variant == NONLINEAR_AR1:
            if not (math.isfinite(self.phi1) and math.isfinite(self.delta)):
                raise ConfigurationError("nonlinear AR(1) requires finite phi1 and delta")
            if self.innovations is None:
                raise ConfigurationError("innovations required")
        elif self.variant == SRE:
            if self.driver is None:
                raise ConfigurationError("driver required")
            self.driver.check_drift()
        else:
            raise ConfigurationError(f"unknown model variant {self.variant!r}")

    def to_json(self) -> dict:
        if self.variant == SRE:
            return {"variant": self.variant, "driver": self.driver.to_json(),
                    "burnin": self.burnin}
        out = {"variant": self.variant, "phi1": self.phi1,
               "innovations": self.innovations.to_json(), "burnin": self.burnin}
        if self.variant == NONLINEAR_AR1:
            out["delta"] = self.delta
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "SeriesModel":
        variant = json_object(obj, "model").get("variant")
        burnin = json_number(obj, "burnin", "model", 10_000, int)
        if variant == SRE:
            json_fields(obj, "model", ("variant", "driver"), ("burnin",))
            return cls(SRE, driver=SREDriver.from_json(obj["driver"]), burnin=burnin)
        if variant in (LINEAR_AR1, NONLINEAR_AR1):
            if variant == LINEAR_AR1 and "delta" in obj:
                raise ConfigurationError("delta is only valid for the nonlinear model")
            json_fields(obj, "model", ("variant", "innovations"), ("phi1", "delta", "burnin"))
            return cls(variant, phi1=json_number(obj, "phi1", "model", 0.0),
                       delta=json_number(obj, "delta", "model", 0.0),
                       innovations=InnovationSpec.from_json(obj["innovations"]),
                       burnin=burnin)
        raise ConfigurationError(f"unknown model variant {variant!r}")


def linear_ar1(phi1: float, innovations: InnovationSpec, burnin: int = 10_000) -> SeriesModel:
    return SeriesModel(LINEAR_AR1, phi1=phi1, innovations=innovations, burnin=burnin)


def nonlinear_ar1(phi1: float, delta: float, innovations: InnovationSpec,
                  burnin: int = 10_000) -> SeriesModel:
    return SeriesModel(NONLINEAR_AR1, phi1=phi1, delta=delta,
                       innovations=innovations, burnin=burnin)


def sre_model(driver: SREDriver, burnin: int = 10_000) -> SeriesModel:
    return SeriesModel(SRE, driver=driver, burnin=burnin)


def _check_finite(x: np.ndarray, what: str):
    bad = ~np.isfinite(x)
    if bad.any():
        raise SimulationError(f"non-finite value in {what}", step=int(np.argmax(bad)))


def simulate_series(model: SeriesModel, n: int, rng: RngState) -> np.ndarray:
    """Simulate ``n`` observations after discarding the model's burn-in."""
    if n < 1:
        raise ConfigurationError("series length must be >= 1")
    total = model.burnin + n
    if model.variant in (LINEAR_AR1, NONLINEAR_AR1):
        # Innovations are drawn a block at a time: the draws are counter-based
        # and elementwise, so the values equal one draw of `total`, while the
        # buffer the recursion reads stays a block, not a whole long series.
        # Each block's states overwrite its innovations and are copied out once.
        linear = model.variant == LINEAR_AR1
        x = np.empty(total)
        state = 0.0
        for start in range(0, total, _DRAW_BLOCK):
            z = dists.sample(model.innovations, rng, min(_DRAW_BLOCK, total - start))
            if linear:
                state = _KERNEL.linear_ar1(z, z.size, model.phi1, state)
            else:
                state = _KERNEL.nonlinear_ar1(z, z.size, model.phi1, model.delta, state)
            x[start:start + z.size] = z
        _check_finite(x, "linear AR(1) recursion" if linear else "nonlinear AR(1) recursion")
        return x[model.burnin:]
    # SRE
    a = model.driver.law.sample_from_uniforms(rng.uniforms(total)).tolist()
    b = model.driver.sample_b(rng, total + 1).tolist()
    x = np.empty(total)
    state = b[0]
    for t in range(total):
        state = a[t] * state + b[t + 1]
        x[t] = state
    _check_finite(x, "stochastic recurrence")
    return x[model.burnin:]


@dataclass
class WalkEnsemble:
    """Monte Carlo paths of the geometric walk ``W_j``, ``j = 1..horizon``.

    ``paths[p, j-1]`` holds ``W_j`` of path ``p``. ``driver`` is kept so
    downstream consumers can bound truncated tails exactly; hand-built test
    ensembles may leave it as None.
    """

    kappa: float
    horizon: int
    n_paths: int
    paths: np.ndarray
    driver: SREDriver | None = None


def simulate_walks(driver: SREDriver, kappa: float, horizon: int, n_paths: int,
                   rng: RngState) -> WalkEnsemble:
    """Generate ``n_paths`` independent walk paths, one substream per path."""
    if not (kappa > 0):
        raise ConfigurationError("kappa must be > 0")
    if horizon < 1 or n_paths < 1:
        raise ConfigurationError("horizon and n_paths must be >= 1")
    driver.check_drift()
    paths = np.empty((n_paths, horizon))
    for start in range(0, n_paths, _PATH_BLOCK):
        count = min(_PATH_BLOCK, n_paths - start)
        u = uniforms_for_bases(rng.child_bases(count, start=start), horizon)
        a = driver.law.sample_from_uniforms(u)
        np.cumprod(a**kappa, axis=1, out=paths[start:start + count])
    _check_finite(paths.ravel(), "walk ensemble")
    return WalkEnsemble(kappa=kappa, horizon=horizon, n_paths=n_paths,
                        paths=paths, driver=driver)


def solve_kappa(driver: SREDriver) -> float:
    """Positive root of ``E A**kappa = 1``, accurate to |E A**kappa - 1| <= 1e-10.

    The map ``kappa -> E A**kappa`` is strictly convex with value 1 and
    negative slope at 0, so under ``E log A < 0`` and ``P(A > 1) > 0`` there
    is exactly one positive root. Lognormal multipliers use the closed form
    ``-2*mu/sigma**2``.
    """
    law = driver.law
    if not (law.mean_log() < 0):
        raise NoRootError(f"no positive root: E[log A] = {law.mean_log():.6g} is not < 0")
    if law.prob_above_one() == 0.0:
        raise NoRootError("P(A > 1) = 0: moment function never returns to 1")
    if isinstance(law, LognormalLaw):
        return -2.0 * law.mu / law.sigma**2

    def g(s: float) -> float:
        return law.moment(s) - 1.0

    lo, cap = _KAPPA_BRACKET
    if g(lo) >= 0:
        raise NoRootError(f"no sign change: E A**{lo:g} >= 1")
    hi = lo
    while g(hi) <= 0:
        hi *= 2.0
        if hi > cap:
            raise NoRootError(f"no root found in (0, {cap:g}]")
    # imported here: scipy.optimize costs ~0.6 s of import time, for this call alone
    from scipy.optimize import brentq

    kappa = brentq(g, hi / 2.0, hi, xtol=1e-14, rtol=8.9e-16)
    if abs(g(kappa)) > 1e-10:
        raise NoRootError("root refinement failed to reach tolerance 1e-10")
    return float(kappa)
