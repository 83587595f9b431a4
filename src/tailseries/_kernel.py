"""The compiled kernel ``_recursion.c`` and its Python twins.

``_KERNEL`` is the object every caller goes through: the ctypes library,
which `_load_kernel` compiles on first import, or, without a compiler,
``_PYTHON_KERNEL``, with the same bytes, only slower. Both offer

* ``uniforms(bases, count, first, n, out)``: draws ``first .. first+n-1`` of
  each of the ``count`` streams ``bases`` (`rng.py`), one row per stream
  (vectorized, below);
* ``pareto_base(u, n, p, out)`` and ``pareto_finish(u, z, n, p, shift)``:
  the Pareto inverse CDF of `distributions.py` around its power, which stays
  in numpy: the base ``(1-p)/u`` or ``p/(1-u)``, returning how many ``u``
  lie outside (0, 1), and then, in place on the power ``z``, ``shift - z``
  or ``z - shift`` (both vectorized, below);
* ``two_point_walk(bases, count, n, p_up, up, down, out)``: the running
  product of ``up`` (draw below ``p_up``) or ``down`` over draws ``1..n`` of
  each stream, one row per path (eight paths side by side, below);
* ``walk_summary(rows, count, n, maxima, capped_sums)``: the flat index of
  the first non-finite value of ``rows`` (``count * n`` when there is none)
  and, when every value is finite, each row's maximum and sum of
  ``min(W_j, 1)``, the per-path summaries of `simulate.simulate_walks`;
* ``series(kind, a, z, count, n, phi, delta, states)``: the series
  recursion of `simulate.py` of ``kind`` (``LINEAR``, ``NONLINEAR`` or
  ``SRE``) on each of the ``count`` rows of ``n`` innovations (for the SRE,
  additive parts ``B_t``, with the multipliers ``A_t`` in the rows of ``a``;
  the AR(1) kinds never read ``a``) in ``z``, row p from ``states[p]``,
  overwriting each row with its states and ``states[p]`` with its last. The
  compiled kernel steps up to four rows together in lockstep, and each row
  takes the operations of a row stepped alone;
* ``capped_top(rows, count, n, k, capped)``: row p of ``capped`` gets 1.0
  and then the ``k`` largest of ``min(rows[p], 1)``, in descending order, the
  per-path order statistics of `extremal.cluster_size_probs` (eight values
  tested at once for k <= 32, below);
* ``cluster_moments(capped, count, width, theta_mean, theta_sd, pi_mean,
  pi_sd)``: the means and standard deviations (ddof 1) over the rows of
  ``capped`` of its per-path theta terms ``capped[:, c] - capped[:, c+1]``
  and of the differences of those, the pi terms.

The capped sums of ``walk_summary`` and the one column of pi terms at
``width`` 3 are added in numpy's pairwise order, which one routine of the
compiled kernel holds.

Each works on C-contiguous buffers that the caller allocates at their full
size, and ``uniforms``, ``pareto_base``, ``pareto_finish``,
``two_point_walk`` and ``capped_top`` also on buffers that do not overlap:
the compiled kernel vectorizes these five for x86-64-v4 CPUs, chosen at run
time when the library loads, with the same bytes (``X86_64_V4`` in
``_recursion.c``); ``capped_top`` keeps the top values of k <= 32 in vector
registers, and a larger k runs the scalar loop on every CPU. The entries are
listed once, in ``_KERNEL_SIGNATURES``; the Python twin of entry ``name`` is
the function ``_name``. Both paths check each array argument (`_Array`)
before any work: one of another dtype, not C-contiguous or, where the entry
writes it, read only, raises ``ctypes.ArgumentError`` and leaves every
buffer as it was.
``RECURSION_PATH`` (``"c"`` or ``"python"``) says which one this process
runs. The Python twins are also the tests' bit-for-bit reference.
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
from pathlib import Path
from types import SimpleNamespace

import numpy as np

_U = np.uint64
_WEYL = 0x9E3779B97F4A7C15
_INV_2_53 = 2.0 ** -53

_KERNEL_SOURCE = Path(__file__).with_name("_recursion.c")
# Never -ffast-math or -march: five entries carry their own x86-64-v4 code,
# which the loader picks by CPU at run time, with the same bytes as the
# baseline loop. -ffp-contract=off keeps `a*b + c` two roundings.
_KERNEL_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
# `from_buffer` puts one at a writable array's data; ctypes passes its address
_NO_BYTES = ctypes.c_char * 0


class _Array:
    """An array argument of a kernel entry: a C-contiguous ndarray of
    ``dtype``, writable when the entry writes it.

    `check` raises `TypeError` for anything else. ctypes calls `from_param`
    on each such argument of a compiled entry, which checks it and passes
    its address, at about a third of the cost of ``np.ctypeslib.ndpointer``,
    which builds ``ndarray.ctypes`` for every argument.
    """

    def __init__(self, dtype, written: bool):
        self.dtype, self.written = np.dtype(dtype), written

    def check(self, a):
        if not (isinstance(a, np.ndarray) and a.dtype == self.dtype):
            raise TypeError(f"expected a {self.dtype} array, got "
                            f"{getattr(a, 'dtype', type(a).__name__)}")
        if not a.flags.c_contiguous:
            raise TypeError("expected a C-contiguous array")
        if self.written and not a.flags.writeable:
            raise TypeError("expected a writable array, got a read-only one")

    def from_param(self, a):
        self.check(a)
        if a.flags.writeable:
            return _NO_BYTES.from_buffer(a)
        return ctypes.c_void_p(a.ctypes.data)  # a read-only input: rare, so the slow way


_BASES = _Array(np.uint64, written=False)
_READ_DOUBLES = _Array(np.float64, written=False)
_DOUBLES = _Array(np.float64, written=True)
_SIZE, _DOUBLE = ctypes.c_size_t, ctypes.c_double
# name: (restype, argtypes)
_KERNEL_SIGNATURES = {
    "uniforms": (None, (_BASES, _SIZE, ctypes.c_uint64, _SIZE, _DOUBLES)),
    "pareto_base": (_SIZE, (_READ_DOUBLES, _SIZE, _DOUBLE, _DOUBLES)),
    "pareto_finish": (None, (_READ_DOUBLES, _DOUBLES, _SIZE, _DOUBLE, _DOUBLE)),
    "two_point_walk": (None, (_BASES, _SIZE, _SIZE, _DOUBLE, _DOUBLE, _DOUBLE, _DOUBLES)),
    "walk_summary": (_SIZE, (_READ_DOUBLES, _SIZE, _SIZE, _DOUBLES, _DOUBLES)),
    "series": (None, (ctypes.c_int, _READ_DOUBLES, _DOUBLES, _SIZE, _SIZE, _DOUBLE, _DOUBLE,
                      _DOUBLES)),
    "capped_top": (None, (_READ_DOUBLES, _SIZE, _SIZE, _SIZE, _DOUBLES)),
    "cluster_moments": (None, (_READ_DOUBLES, _SIZE, _SIZE, *(_DOUBLES,) * 4)),
}
# walk values the numpy twin draws at once, in whole rows: each temporary is about 512 KB
_TWIN_CHUNK = 65_536
# rows that the compiled `series` steps together in lockstep
LOCKSTEP_ROWS = 4
# the `kind` codes of `series`, as `enum step_kind` in _recursion.c numbers them
LINEAR, NONLINEAR, SRE = 0, 1, 2


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
    """The kernel library, compiled into the first writable directory of
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
        for name, (restype, argtypes) in _KERNEL_SIGNATURES.items():
            function = getattr(kernel, name)
            function.argtypes, function.restype = argtypes, restype
        return kernel
    return None


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer ``rng.mix64`` on a uint64 array (a copy)."""
    z = z.astype(np.uint64, copy=True)
    z ^= z >> _U(30)
    z *= _U(0xBF58476D1CE4E5B9)
    z ^= z >> _U(27)
    z *= _U(0x94D049BB133111EB)
    z ^= z >> _U(31)
    return z


def _uniforms(bases: np.ndarray, count: int, first: int, n: int, out: np.ndarray) -> None:
    """``uniforms`` of `_recursion.c`, in numpy."""
    # The same bits as the C kernel: uint64 arithmetic wraps modulo 2**64 in
    # both, the shifted value is below 2**53 so its float64 conversion is
    # exact, `+ 0.5` is one rounding in both, and 2**-53 scales exactly.
    counters = np.arange(first, first + n, dtype=np.uint64)
    bits = _mix64_array(bases[:count, None] + counters[None, :] * _U(_WEYL))
    out.reshape(count, n)[...] = ((bits >> _U(11)).astype(np.float64) + 0.5) * _INV_2_53


def _two_point_walk(bases: np.ndarray, count: int, n: int, p_up: float, up: float,
                    down: float, out: np.ndarray) -> None:
    """``two_point_walk`` of `_recursion.c`, in numpy."""
    # cumprod multiplies left to right, one rounding per step, as the C loop
    # does; its first value is the first multiplier, which the C loop gets as
    # 1.0 * up or 1.0 * down, exactly the same. An overflow gives inf, and
    # inf * 0.0 gives nan, silently, as in C; the caller raises at its step.
    # Each row is its own product, so drawing a chunk of rows at a time
    # changes no bits.
    out = out.reshape(count, n)
    chunk = max(1, _TWIN_CHUNK // n)
    for start in range(0, count, chunk):
        rows = out[start:start + chunk]
        u = np.empty(rows.shape)
        _uniforms(bases[start:], rows.shape[0], 1, n, u)
        with np.errstate(over="ignore", invalid="ignore"):
            np.cumprod(np.where(u < p_up, up, down), axis=1, out=rows)


def _walk_summary(rows: np.ndarray, count: int, n: int, maxima: np.ndarray,
                  capped_sums: np.ndarray) -> int:
    """``walk_summary`` of `_recursion.c`, in numpy."""
    rows = rows.reshape(count, n)
    bad = ~np.isfinite(rows.ravel())
    if bad.any():
        return int(np.argmax(bad))
    rows.max(axis=1, out=maxima[:count])
    np.minimum(rows, 1.0).sum(axis=1, out=capped_sums[:count])
    return count * n


def _pareto_base(u: np.ndarray, n: int, p: float, out: np.ndarray) -> int:
    """``pareto_base`` of `_recursion.c`, in numpy."""
    # The divisions of the inverse CDF's two branches, as `quantile_fn`
    # wrote them before its power moved between the two kernel passes; the
    # C kernel divides the same selected operands once. The domain is
    # checked first, so u = 0 or 1 divides nothing and warns of nothing; a
    # subnormal u overflows (1-p)/u to inf silently, as in C.
    u = u[:n]
    outside = int(np.count_nonzero((u <= 0.0) | (u >= 1.0)))
    if outside:
        return outside
    with np.errstate(over="ignore"):
        out[:n] = np.where(u <= (1.0 - p), (1.0 - p) / u, p / (1.0 - u))
    return 0


def _pareto_finish(u: np.ndarray, z: np.ndarray, n: int, p: float, shift: float) -> None:
    """``pareto_finish`` of `_recursion.c`, in numpy."""
    # The branches as `quantile_fn` wrote them, on the power z: the C kernel's
    # 0.0 - z equals -z because z >= 1 on the left branch (its base is at
    # least 1, and u there is no nan), and z - 0.0 is z for every z.
    left = u[:n] <= (1.0 - p)
    power = z[:n]
    if shift:
        z[:n] = np.where(left, 1.0 - power, power - 1.0)
    else:
        z[:n] = np.where(left, -power, power)


def _series(kind: int, a: np.ndarray, z: np.ndarray, count: int, n: int, phi: float,
            delta: float, states: np.ndarray) -> None:
    """``series`` of `_recursion.c`, in Python: one row at a time."""
    # Each step takes the C kernel's operations on Python floats: with
    # -ffp-contract=off every `*` and `+` in C is one rounding, as here, and
    # `log` is the same C library function. Each row is its own recursion,
    # in C as here, so stepping rows together changes no bits.
    log, multipliers = math.log, a.reshape(count, n)
    for p, row in enumerate(z.reshape(count, n)):
        state, values = float(states[p]), row.tolist()
        if kind == SRE:
            for i, at in enumerate(multipliers[p].tolist()):
                values[i] = state = at * state + values[i]
        elif kind == NONLINEAR:
            # The three branches equal the documented formula bit for bit:
            # (delta * +-1.0) * L is exactly +-(delta * L), and a + (-b) is
            # exactly a - b. For |state| <= 1 the formula adds
            # delta * sgn * log(1.0) = +-0.0, which can change only the sign
            # of a zero sum; adding zt then removes that sign, because no
            # innovation is -0.0: a nonzero zt gives zt, and any zero plus
            # +0.0 is +0.0 (the shifted law draws +0.0 at uniforms next to
            # 1 - p). A nan takes the last branch and stays nan, as in the
            # formula; delta is finite (`SeriesModel` checks), so the skipped
            # term is never nan.
            for i, zt in enumerate(values):
                if state > 1.0:
                    state = phi * state + delta * log(state) + zt
                elif state < -1.0:
                    state = phi * state - delta * log(-state) + zt
                else:
                    state = phi * state + zt
                values[i] = state
        else:
            for i, zt in enumerate(values):
                values[i] = state = phi * state + zt
        row[:] = values
        states[p] = state


def _capped_top(rows: np.ndarray, count: int, n: int, k: int, capped: np.ndarray) -> None:
    """``capped_top`` of `_recursion.c`, in numpy."""
    part = np.partition(rows.reshape(count, n), n - k, axis=1)[:, -k:]
    capped = capped.reshape(count, k + 1)
    capped[:, 0] = 1.0  # min(U_0, 1) convention
    np.minimum(-np.sort(-part, axis=1), 1.0, out=capped[:, 1:])


def _cluster_moments(capped: np.ndarray, count: int, width: int, theta_mean: np.ndarray,
                     theta_sd: np.ndarray, pi_mean: np.ndarray, pi_sd: np.ndarray) -> None:
    """``cluster_moments`` of `_recursion.c`, in numpy."""
    capped = capped.reshape(count, width)
    diffs = capped[:, :-1] - capped[:, 1:]         # per-path theta_k terms, k=1..kmax+1
    theta_mean[:] = diffs.mean(axis=0)
    theta_sd[:] = diffs.std(axis=0, ddof=1)
    pi_terms = diffs[:, :-1] - diffs[:, 1:]        # per-path (theta_k - theta_{k+1})
    pi_mean[:] = pi_terms.mean(axis=0)
    pi_sd[:] = pi_terms.std(axis=0, ddof=1)


def _checked_twin(name: str):
    """The Python twin of entry ``name``, with its array arguments checked
    as the compiled entry's are, and the same error."""
    twin = globals()["_" + name]  # a missing twin fails here, at import
    arrays = [(i, kind) for i, kind in enumerate(_KERNEL_SIGNATURES[name][1])
              if isinstance(kind, _Array)]

    def entry(*args):
        for i, kind in arrays:
            try:
                kind.check(args[i])
            except TypeError as err:
                raise ctypes.ArgumentError(f"argument {i + 1}: TypeError: {err}") from None
        return twin(*args)

    return entry


_PYTHON_KERNEL = SimpleNamespace(**{name: _checked_twin(name) for name in _KERNEL_SIGNATURES})
_KERNEL = _load_kernel(_kernel_dirs()) or _PYTHON_KERNEL
RECURSION_PATH = "python" if _KERNEL is _PYTHON_KERNEL else "c"
