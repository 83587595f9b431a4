"""Balanced two-sided Pareto innovation laws.

Two parametric families are supported, both with extreme value index
``gamma > 0`` and right-tail balance ``p`` in (0, 1]:

* ``two-sided-pareto`` (unshifted): survival ``p * x**(-1/gamma)`` for
  ``x >= 1`` and left tail ``F(-x) = (1-p) * x**(-1/gamma)`` for ``x >= 1``;
  no mass on (-1, 1).
* ``shifted-two-sided-pareto``: survival ``p * (x+1)**(-1/gamma)`` for
  ``x >= 0`` and ``F(-x) = (1-p) * (x+1)**(-1/gamma)`` for ``x >= 0``.

With ``p = 1/2`` these are the two symmetric laws used throughout the
simulation study. Sampling is inverse-CDF on a seeded `RngState`, so a given
seed reproduces the same draws everywhere.

The inverse CDF runs in the kernel of `_kernel.py` (the compiled
``_recursion.c``, or its numpy twins), all but its power: one pass writes
the base ``(1-p)/u`` or ``p/(1-u)``, numpy raises it to ``gamma`` in place
with ``**=``, and a second pass subtracts the shift. The power stays numpy's
own, so the draws keep the bytes of the whole-numpy expression, whichever
loop (SVML or not) numpy dispatches ``**`` to on the host.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernel
from .errors import ConfigurationError, DomainError
from .rng import RngState

TWO_SIDED_PARETO = "two-sided-pareto"
SHIFTED_TWO_SIDED_PARETO = "shifted-two-sided-pareto"

_KINDS = (TWO_SIDED_PARETO, SHIFTED_TWO_SIDED_PARETO)


@dataclass(frozen=True)
class InnovationSpec:
    """Parametric description of an innovation law."""

    kind: str
    gamma: float
    p: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown innovation kind {self.kind!r}")
        if not (self.gamma > 0):
            raise ConfigurationError("gamma must be > 0")
        if not (0 < self.p <= 1):
            raise ConfigurationError("p must lie in (0, 1]")

    @classmethod
    def from_json(cls, obj: dict) -> "InnovationSpec":
        json_fields(obj, "innovation", ("kind", "gamma", "p"))
        return cls(kind=obj["kind"], gamma=json_number(obj, "gamma", "innovation"),
                   p=json_number(obj, "p", "innovation"))


def json_object(obj, what: str) -> dict:
    """``obj`` if it is a JSON object, else a `ConfigurationError` naming ``what``."""
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{what} must be a JSON object, got {obj!r}")
    return obj


def json_fields(obj, what: str, required: tuple, optional: tuple = ()) -> dict:
    """``obj`` checked as the JSON object ``what`` of a model or driver file:
    every key of ``required`` present, none outside ``required + optional``."""
    unknown = set(json_object(obj, what)) - set(required) - set(optional)
    if unknown:
        raise ConfigurationError(f"unknown {what} keys {sorted(unknown)}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ConfigurationError(f"{what} lacks required key {missing[0]!r}")
    return obj


def json_number(obj: dict, key: str, what: str, default=None, cast=float):
    """``cast(obj.get(key, default))`` for ``cast`` float or int, or a
    `ConfigurationError` naming the key. As for --config values, a bool or a
    string is no number and an int takes no fraction (``10000.0`` is 10000)."""
    value = obj.get(key, default)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = cast(value)
        except (ValueError, OverflowError):  # int(nan), int(inf), float(10**400)
            number = None
        if number is not None and (cast is float or number == value):
            return number
    noun = "an integer" if cast is int else "a number"
    raise ConfigurationError(f"{what} key {key!r} must be {noun}, got {value!r}")


def two_sided_pareto(gamma: float, p: float = 0.5) -> InnovationSpec:
    return InnovationSpec(TWO_SIDED_PARETO, gamma=gamma, p=p)


def shifted_two_sided_pareto(gamma: float, p: float = 0.5) -> InnovationSpec:
    return InnovationSpec(SHIFTED_TWO_SIDED_PARETO, gamma=gamma, p=p)


def quantile_fn(spec: InnovationSpec, u):
    """Generalized inverse CDF, ``inf{x : F(x) >= u}``, elementwise.

    At the unshifted law's flat CDF segment (u exactly ``1 - p``) the
    infimum convention puts the quantile at the lower support edge ``-1``.
    A scalar ``u`` takes the same path as an array, so
    ``quantile_fn(spec, u) == quantile_fn(spec, [u])[0]``.
    """
    u_arr = np.asarray(u, dtype=np.float64)
    flat = np.ascontiguousarray(u_arr).reshape(-1)
    out = _inverse_cdf(spec, flat, np.empty(flat.size)).reshape(u_arr.shape)
    return float(out) if np.isscalar(u) else out


def _inverse_cdf(spec: InnovationSpec, u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The quantiles of the 1-d float64 array ``u``, written into ``out``."""
    if out.shape != u.shape:
        raise ValueError(f"out has shape {out.shape}, not {u.shape}")
    if _kernel._KERNEL.pareto_base(u, u.size, spec.p, out):
        raise DomainError("quantile argument must lie strictly inside (0, 1)")
    # `**=`, not np.power(out, gamma, out=out): numpy computes `** 0.5` as a
    # square root, as the whole-numpy expression did
    out **= spec.gamma
    shift = 1.0 if spec.kind == SHIFTED_TWO_SIDED_PARETO else 0.0
    _kernel._KERNEL.pareto_finish(u, out, u.size, spec.p, shift)
    return out


def _tails(spec: InnovationSpec, x: np.ndarray):
    """``(upper, lower, edge)`` at the float64 array ``x``: the survival
    ``P(Z > x)`` where ``x >= edge``, the CDF ``P(Z <= x)`` where
    ``x <= -edge``, and the support edge, 1 for the unshifted law (which puts
    no mass on (-1, 1)) and 0 for the shifted one."""
    if spec.kind == TWO_SIDED_PARETO:
        edge, up, down = 1.0, np.maximum(x, 1.0), np.maximum(-x, 1.0)
    else:
        edge, up, down = 0.0, np.maximum(x, 0.0) + 1.0, np.maximum(-x, 0.0) + 1.0
    power = -1.0 / spec.gamma
    return spec.p * up ** power, (1.0 - spec.p) * down ** power, edge


def survival_fn(spec: InnovationSpec, x):
    """Exact survival function ``P(Z > x)``, elementwise."""
    x_arr = np.asarray(x, dtype=np.float64)
    upper, lower, edge = _tails(spec, x_arr)
    out = np.where(x_arr >= edge, upper, np.where(x_arr >= -edge, spec.p, 1.0 - lower))
    return float(out) if np.isscalar(x) else out


def cdf_fn(spec: InnovationSpec, x):
    """Exact CDF ``P(Z <= x)``, evaluated branchwise (no cancellation in the tails)."""
    x_arr = np.asarray(x, dtype=np.float64)
    upper, lower, edge = _tails(spec, x_arr)
    out = np.where(x_arr >= edge, 1.0 - upper, np.where(x_arr >= -edge, 1.0 - spec.p, lower))
    return float(out) if np.isscalar(x) else out


def sample(spec: InnovationSpec, rng: RngState, n: int, out: np.ndarray | None = None
           ) -> np.ndarray:
    """``n`` independent draws by inverse CDF; advances ``rng`` deterministically.

    The draws are written into ``out`` (a new array when None), a
    C-contiguous float64 array of shape ``(n,)``, which is returned.
    """
    if n < 1:
        raise ConfigurationError("sample size must be >= 1")
    # a power beyond the largest double is an infinite draw, silently, as
    # the kernel's divisions overflow; the series that takes it raises at its
    # step
    with np.errstate(over="ignore"):
        return _inverse_cdf(spec, rng.uniforms(n), np.empty(n) if out is None else out)
