"""Generators for the three time-series models and the multiplicative walks.

Models:

* linear AR(1):     X_t = phi1 * X_{t-1} + Z_t
* nonlinear AR(1):  X_t = phi1 * X_{t-1}
                          + delta * sgn(X_{t-1}) * log(max(|X_{t-1}|, 1)) + Z_t
* SRE:              X_t = A_t * X_{t-1} + B_t  with i.i.d. positive (A_t, B_t)

plus the geometric random walk ``W_j = prod_{i<=j} A_i**kappa`` that drives
all extremal-dependence quantities of the SRE, and the solver for the moment
exponent ``kappa`` with ``E A**kappa = 1``.

All three recursions step a group of series together (`series_blocks`):
each block of draws of every series in the group is drawn into one reused
buffer of ``_DRAW_BLOCK`` values in total, one row per series (and, for the
SRE, its multipliers into a second such buffer), and one call of the
kernel's ``series`` entry steps the rows there in place, up to four in
lockstep, each row with the bits it has when stepped alone. Two-point walks
are drawn and multiplied a block of paths at a time and summarized per path,
through the kernel of `_kernel.py`: the compiled ``_recursion.c``, or,
without a compiler, its Python twins, with the same bytes, only slower.
``RECURSION_PATH`` (``"c"`` or ``"python"``) says which one this process
runs. Lognormal multipliers, of walks and of SRE series, are mapped from the
kernel's uniforms in numpy, on either path. Each pass over the walk
runs its blocks on every CPU the process may use, one contiguous range of
paths per thread, the calling thread taking the last; no value depends on
the number of threads.

Draw protocol (frozen), for a series of ``total = burnin + n`` steps from a
stream whose counter is ``c0`` on entry (its next draw is ``c0 + 1``): AR
variants start at 0 and draw the innovation of step ``t`` (from 0) at
counter ``c0 + t + 1``, leaving the stream at ``c0 + total``. The SRE draws
the multiplier ``A_t`` at counter ``c0 + t + 1``. A constant additive part
draws nothing: it is the start value and every ``B_t``, and the stream ends
at ``c0 + total``. A random one draws the start value at ``c0 + total + 1``
and ``B_t`` at ``c0 + total + t + 2``, and the stream ends at
``c0 + 2*total + 1``. Walk path ``p`` consumes draws 1..J of substream ``p``
of the supplied stream.
"""

from __future__ import annotations

import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _kernel
from . import distributions as dists
from ._kernel import RECURSION_PATH  # noqa: F401  re-exported: which kernel path runs
from .distributions import InnovationSpec, json_fields, json_number, json_object
from .errors import ConfigurationError, NoRootError, SimulationError
from .rng import RngState, uniforms_for_bases

LINEAR_AR1 = "linear-ar1"
NONLINEAR_AR1 = "nonlinear-ar1"
SRE = "sre"

_KAPPA_BRACKET = (1e-6, 64.0)
# walk paths per block of the whole horizon: 1.6 MB at 200 steps, within a
# 2 MiB L2 cache. A block of fewer steps holds as many values in more paths,
# and the threads of one pass share those values.
_PATH_BLOCK = 1024
_DRAW_BLOCK = 65_536  # draws per block of each kind in the series recursions


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
        try:
            return self.p_up * self.a_up**s + (1 - self.p_up) * self.a_down**s
        except OverflowError:  # a power beyond the largest double
            return math.inf

    def prob_above_one(self) -> float:
        return (self.p_up if self.a_up > 1 else 0.0) + ((1 - self.p_up) if self.a_down > 1 else 0.0)

    def sample_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        return np.where(u < self.p_up, self.a_up, self.a_down)


@dataclass(frozen=True)
class LognormalLaw:
    """log A ~ Normal(mu, sigma**2)."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma) and self.sigma > 0):
            raise ConfigurationError("lognormal law requires a finite mu and a finite sigma > 0")

    def mean_log(self) -> float:
        return self.mu

    def moment(self, s: float) -> float:
        try:
            exponent = s * self.mu + 0.5 * (s * self.sigma) ** 2
        except OverflowError:  # a square beyond the largest double
            return math.inf
        with np.errstate(over="ignore"):
            return float(np.exp(exponent))

    def prob_above_one(self) -> float:
        return 1.0  # unbounded support

    def sample_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        from scipy.special import ndtri  # here, so that two-point runs never import scipy

        return np.exp(self.mu + self.sigma * ndtri(u))


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

    The additive part ``b`` is a positive constant or a random law with
    positive support (an `InnovationSpec` with p = 1).
    """

    law: TwoPointLaw | LognormalLaw
    b: float | InnovationSpec = 1.0

    def __post_init__(self):
        if isinstance(self.b, InnovationSpec):
            if self.b.p != 1.0:
                raise ConfigurationError("random additive part must have positive support (p = 1)")
        elif not (self.b > 0):
            raise ConfigurationError("constant additive part must be > 0")

    def check_drift(self):
        if not (self.law.mean_log() < 0):
            raise ConfigurationError(
                f"multiplier law must have E[log A] < 0, got {self.law.mean_log():.6g}")

    @classmethod
    def from_json(cls, obj: dict) -> "SREDriver":
        json_fields(obj, "driver", ("law",), ("b",))
        law = _law_from_json(obj["law"])
        b = json_object(obj.get("b", {"kind": "constant", "value": 1.0}), "driver b")
        if b.get("kind") == "constant":
            json_fields(b, "driver b", ("kind", "value"))
            return cls(law, json_number(b, "value", "driver b"))
        return cls(law, InnovationSpec.from_json(b))


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


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _caller_joins(pool, task, items, split: int, **map_options) -> list:
    """``[task(item) for item in items]``: ``pool.map(task, ..., **map_options)``
    runs the leading ``split`` items while the calling thread runs the rest,
    so a ``split`` of 0 touches no pool.

    The first item in index order that raises raises: an error of the
    caller's share waits until the pool's share is collected.
    """
    leading = pool.map(task, items[:split], **map_options) if split else ()
    try:
        own = [task(item) for item in items[split:]]
    except Exception:
        list(leading)  # an error of a leading item comes first in index order
        raise
    return [*leading, *own]


def series_blocks(model: SeriesModel, n: int, rngs: list):
    """The ``n`` observations of `simulate_series` from each stream of
    ``rngs``, in order, as an iterator of blocks: row i of each block
    continues the series of ``rngs[i]``.

    Every variant steps all the series together in one buffer of
    ``_DRAW_BLOCK`` values in total and yields blocks of at most
    ``_DRAW_BLOCK // len(rngs)`` columns, each a view of that buffer that
    the next block overwrites: a caller that reduces each block before it
    asks for the next holds one block, not the series. A non-finite value
    raises `SimulationError` at its step, counted from the first burn-in
    step of its series, and only from the series of the lowest index that
    has one: the error a run of the series one at a time, in index order,
    raises first.
    """
    if n < 1:
        raise ConfigurationError("series length must be >= 1")
    return _blocks(model, model.burnin + n, rngs)


# variant: (the kernel's `kind` code, the recursion's name in errors)
_RECURSIONS = {LINEAR_AR1: (_kernel.LINEAR, "linear AR(1) recursion"),
               NONLINEAR_AR1: (_kernel.NONLINEAR, "nonlinear AR(1) recursion"),
               SRE: (_kernel.SRE, "stochastic recurrence")}


def _blocks(model: SeriesModel, total: int, rngs: list):
    """Yield the states after the burn-in of ``total`` steps of the series
    of each stream of ``rngs``, one row per series.

    Each stream hands the draws of its series to cursors of its own
    (`RngState.take`) and skips past them at once: the innovations, or the
    SRE's multipliers, of the ``total`` steps, and then, for an SRE with a
    random additive part, its start and its ``total`` additive parts. Each
    block's draws are drawn row by row into the buffer, one call per cursor:
    the draws are counter-based and elementwise, so a row's values equal one
    draw of ``total``. One kernel call steps the block's rows together, in
    place, from the states the previous block left. A row's non-finite value
    is an error only if no row of lower index has one by the end of the
    series, so the rows below the first such row keep stepping; the error
    raises at once when it is row 0's, and otherwise after the last block.
    """
    kind, recursion = _RECURSIONS[model.variant]
    rows = len(rngs)
    width = min(total, _DRAW_BLOCK // rows)
    buffer = np.empty(rows * width)
    states = np.zeros(rows)
    # the law and the cursors of the rows of the buffer: the innovations, or
    # the SRE's additive parts (none when its additive part is constant)
    spec, streams = model.innovations, [rng.take(total) for rng in rngs]
    if model.variant == SRE:
        driver, multiplier_streams = model.driver, streams
        multipliers = np.empty(rows * width)
        spec = driver.b if isinstance(driver.b, InnovationSpec) else None
        if spec is None:
            states[:] = driver.b
        else:
            streams = [rng.take(total + 1) for rng in rngs]
            for p, stream in enumerate(streams):
                dists.sample(spec, stream, 1, out=states[p:p + 1])
    clean = rows  # rows below the first one with a non-finite value
    error = None
    for start in range(0, total, width):
        cols = min(width, total - start)
        z = buffer[:rows * cols].reshape(rows, cols)
        if spec is None:
            z[...] = driver.b
        else:
            for row, stream in zip(z, streams):
                dists.sample(spec, stream, cols, out=row)
        a = z  # the AR(1) kinds read no multipliers
        if model.variant == SRE:
            a = multipliers[:rows * cols].reshape(rows, cols)
            for row, stream in zip(a, multiplier_streams):
                row[:] = driver.law.sample_from_uniforms(stream.uniforms(cols))
        _kernel._KERNEL.series(kind, a, z, rows, cols, model.phi1, model.delta, states)
        finite = np.isfinite(z[:clean])
        if not finite.all():
            clean, step = divmod(int(np.argmin(finite)), cols)
            error = SimulationError(f"non-finite value in {recursion}", step=start + step)
            if clean == 0:
                raise error
        if start + cols > model.burnin:
            yield z[:, max(model.burnin - start, 0):]
    if error is not None:
        raise error


def series_rows(model: SeriesModel, n: int, rngs: list) -> np.ndarray:
    """The blocks of `series_blocks` in one ``(len(rngs), n)`` array: row i
    holds the series of ``rngs[i]``."""
    blocks = series_blocks(model, n, rngs)  # checks n before the array is sized
    x = np.empty((len(rngs), n))
    filled = 0
    for block in blocks:
        x[:, filled:filled + block.shape[1]] = block
        filled += block.shape[1]
    return x


def simulate_series(model: SeriesModel, n: int, rng: RngState) -> np.ndarray:
    """Simulate ``n`` observations after discarding the model's burn-in: the
    one row of `series_rows` for the one stream ``rng``."""
    return series_rows(model, n, [rng])[0]


@dataclass(eq=False)
class WalkEnsemble:
    """Monte Carlo paths of the geometric walk ``W_j``, ``j = 1..horizon``,
    of the multipliers of ``driver`` raised to ``kappa``.

    The ensemble holds no walk matrix. It keeps the base of the stream whose
    substream ``p`` drives path ``p``, and two per-path summaries:
    ``maxima[p] = max_j W_j`` and ``capped_sums[p] = sum_j min(W_j, 1)``.
    `_map_blocks` regenerates the paths a block at a time on every usable
    CPU, and ``paths[p]`` regenerates one row; both equal the rows of the
    whole matrix bit for bit, because each path is counter-based on its own
    substream. The driver's law bounds the walk's tail beyond the horizon.
    """

    kappa: float
    driver: SREDriver
    n_paths: int
    horizon: int
    base: int  # base of the stream whose substream p drives path p
    maxima: np.ndarray
    capped_sums: np.ndarray

    def _fill(self, start: int, out: np.ndarray):
        """``W_1..W_n`` of paths ``start..start+count-1`` into the C-contiguous
        ``(count, n)`` array ``out``."""
        count, n = out.shape
        bases = RngState(0, _base=self.base).child_bases(count, start=start)
        law = self.driver.law
        # a power or product beyond the largest double (and inf * 0.0 after
        # it) is left to `simulate_walks`, which raises at the first
        # non-finite value
        if isinstance(law, TwoPointLaw):
            # `**` as on a whole block of multipliers, so the two powers are
            # the same bits as each element of `sample_from_uniforms(u)**kappa`
            with np.errstate(over="ignore"):
                up, down = np.array([law.a_up, law.a_down]) ** self.kappa
            _kernel._KERNEL.two_point_walk(bases, count, n, law.p_up, up, down, out)
        else:
            u = uniforms_for_bases(bases, n)
            with np.errstate(over="ignore", invalid="ignore"):
                np.cumprod(law.sample_from_uniforms(u) ** self.kappa, axis=1, out=out)

    def _map_blocks(self, n: int, reduce):
        """Call ``reduce(first, rows)`` on every block of paths of
        ``W_1..W_n``, ``rows[i]`` holding path ``first + i``, spread over the
        usable CPUs.

        A block holds about ``_PATH_BLOCK * horizon`` values. The paths are
        split into contiguous ranges, one per usable CPU but never more than
        there are such blocks, and the ranges share that one block's worth
        of values, so memory does not grow with the CPU count: each fills
        its own blocks of ``1/ranges`` of the paths in order, into one
        reused buffer of its own. The calling thread walks the last range
        and a thread pool the others, one thread each (the kernel's ctypes
        calls and numpy's loops release the GIL), so a pass of one range
        starts no thread. ``reduce`` may write only the rows
        ``first..first+len(rows)-1`` of per-path arrays, so no result
        depends on the number of ranges. A range stops at the first block
        for which ``reduce`` raises, and the error of the first such range
        in path order is raised (`_caller_joins`), so it is the error of
        the first such block at any number of ranges.
        """
        if not (1 <= n <= self.horizon):
            raise ConfigurationError(f"steps must lie in 1..{self.horizon}, got {n}")
        size = _PATH_BLOCK * self.horizon // n
        ranges = min(_usable_cpus(), -(-self.n_paths // size))
        size = max(1, size // ranges)
        edges = [self.n_paths * i // ranges for i in range(ranges + 1)]

        def walk(i):
            start, stop = edges[i], edges[i + 1]
            buffer = np.empty(min(size, stop - start) * n)
            for first in range(start, stop, size):
                count = min(size, stop - first)
                rows = buffer[:count * n].reshape(count, n)
                self._fill(first, rows)
                reduce(first, rows)

        # the pool is handed ranges - 1 ranges, so it starts at most that many
        # threads and none for one range: a pool thread's malloc arena keeps
        # the freed block buffers resident, and sending every range through
        # the pool raised the peak RSS of a 1e5 x 200 walk with all four
        # functionals from 52.8 to 60.5 MiB
        with ThreadPoolExecutor(ranges) as pool:
            _caller_joins(pool, walk, range(ranges), ranges - 1)

    @property
    def paths(self) -> "_PathRows":
        """``paths[p]``: ``W_1..W_horizon`` of path ``p``, regenerated on each access."""
        return _PathRows(self)


class _PathRows:
    def __init__(self, ensemble: WalkEnsemble):
        self._ensemble = ensemble

    def __getitem__(self, p: int) -> np.ndarray:
        ens = self._ensemble
        p = operator.index(p)
        if p < 0:
            p += ens.n_paths
        if not (0 <= p < ens.n_paths):
            raise IndexError(f"path {p} out of range for {ens.n_paths} paths")
        row = np.empty((1, ens.horizon))
        ens._fill(p, row)
        return row[0]


def simulate_walks(driver: SREDriver, kappa: float, horizon: int, n_paths: int,
                   rng: RngState) -> WalkEnsemble:
    """Generate ``n_paths`` independent walk paths, one substream per path.

    One pass over the blocks of paths, on every usable CPU, checks that every
    value is finite and takes the per-path summaries (the kernel's
    ``walk_summary``); no block outlives its pass. A non-finite value raises
    `SimulationError` at the first one in path order: each block raises at
    its own first one, and `WalkEnsemble._map_blocks` raises the error of
    the first such block.
    """
    if not (kappa > 0):
        raise ConfigurationError("kappa must be > 0")
    if horizon < 1 or n_paths < 1:
        raise ConfigurationError("horizon and n_paths must be >= 1")
    driver.check_drift()
    ens = WalkEnsemble(kappa=kappa, driver=driver, n_paths=n_paths, horizon=horizon,
                       base=rng.state[0], maxima=np.empty(n_paths),
                       capped_sums=np.empty(n_paths))

    def summarize(start, rows):
        count = rows.shape[0]
        done = slice(start, start + count)
        bad = _kernel._KERNEL.walk_summary(rows, count, horizon, ens.maxima[done],
                                           ens.capped_sums[done])
        if bad < count * horizon:
            raise SimulationError("non-finite value in walk ensemble", step=start * horizon + bad)

    ens._map_blocks(horizon, summarize)
    return ens


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float) -> float:
    """Root of ``f`` in ``[xa, xb]``, where ``f`` changes sign, by Brent's method.

    A port of scipy's ``Zeros/brentq.c`` (what ``scipy.optimize.brentq``
    runs) to Python floats: the same interpolate, extrapolate and bisect
    steps, the same tolerance ``2*delta`` with
    ``delta = (xtol + rtol*|x|)/2``, evaluated in the same order, so it
    returns the same bits. Python floats never fuse a multiply-add, as a C
    build with contraction would. Raises `NoRootError` on no sign change or
    after scipy's default of 100 steps without convergence.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise NoRootError(f"no sign change in [{xa:g}, {xb:g}]")
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise NoRootError("root refinement did not converge in 100 steps")


def solve_kappa(driver: SREDriver) -> float:
    """Positive root of ``E A**kappa = 1``, accurate to |E A**kappa - 1| <= 1e-10.

    The map ``kappa -> E A**kappa`` is strictly convex with value 1 and
    negative slope at 0, so under ``E log A < 0`` and ``P(A > 1) > 0`` there
    is exactly one positive root. Lognormal multipliers use the closed form
    ``-2*mu/sigma**2``. A driver with ``E log A >= 0`` fails
    `SREDriver.check_drift` (`ConfigurationError`); a moment function with no
    root, or a closed form that is not a finite positive double, raises
    `NoRootError`.
    """
    driver.check_drift()
    law = driver.law
    if law.prob_above_one() == 0.0:
        raise NoRootError("P(A > 1) = 0: moment function never returns to 1")
    if isinstance(law, LognormalLaw):
        try:
            kappa = -2.0 * law.mu / law.sigma**2
        except (OverflowError, ZeroDivisionError):  # sigma**2 beyond the doubles
            kappa = -2.0 * (law.mu / law.sigma) / law.sigma
        if not (0 < kappa < math.inf):
            raise NoRootError(f"-2*mu/sigma**2 = {kappa!r} is not a finite positive number")
        return kappa

    def g(s: float) -> float:
        return law.moment(s) - 1.0  # inf where a power overflows: taken as above 1

    lo, cap = _KAPPA_BRACKET
    if g(lo) >= 0:
        raise NoRootError(f"no sign change: E A**{lo:g} >= 1")
    hi = lo
    while g(hi) <= 0:
        hi *= 2.0
        if hi > cap:
            raise NoRootError(f"no root found in (0, {cap:g}]")
    lo = hi / 2.0
    # An overflowing moment bounds the root but cannot enter the solver:
    # bisect until the upper end is finite, which fails only where the moment
    # overflows before it climbs back to 1. Other brackets stay as they are.
    while math.isinf(g(hi)):
        mid = (lo + hi) / 2.0
        if mid in (lo, hi):
            raise NoRootError(f"E A**s overflows at every s above {lo!r}, "
                              f"where it is still below 1")
        if g(mid) <= 0:
            lo = mid
        else:
            hi = mid
    kappa = _brentq(g, lo, hi, xtol=1e-14, rtol=8.9e-16)
    if abs(g(kappa)) > 1e-10:
        raise NoRootError("root refinement failed to reach tolerance 1e-10")
    return float(kappa)
