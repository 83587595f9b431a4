"""Seeded, portable pseudo-random streams.

The generator is a counter-based SplitMix64 (Steele, Lea & Flood's 64-bit
xorshift-multiply mixer over a Weyl sequence), frozen bit-exactly:

    state_n  = (base + n * 0x9E3779B97F4A7C15) mod 2**64        (n = 1, 2, ...)
    output_n = mix64(state_n)

with the finalizer

    mix64(z): z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9  (mod 2**64)
              z ^= z >> 27;  z *= 0x94D049BB133111EB  (mod 2**64)
              z ^= z >> 31

Uniform doubles use the top 53 bits, centered so that 0 and 1 are never hit:

    u_n = ((output_n >> 11) + 0.5) * 2**-53      in (0, 1)

Substream derivation is a pure mixing function of the parent stream:

    root base            = mix64(master_seed)       (0 <= master_seed < 2**64)
    child i of base b    = mix64((b + (i + 1) * 0xD2B74407B1CE6E93) mod 2**64)

Because ``mix64`` is a bijection on 64-bit words, distinct child indices give
distinct bases. Counter windows of different streams sit at pseudo-random
offsets of the same 2**64-cycle; for any realistic total draw count
(< 2**40) the probability of two windows overlapping is below 2**-20, which
is the usual guarantee class for splittable generators. Changing any constant
above is a breaking change; test vectors are frozen in tests/test_rng.py.

Because the algorithm is counter-based, each draw is a function of its base
and counter alone, so any block of draws of any number of streams is computed
on its own. `RngState.uniforms` and `uniforms_for_bases` run in the compiled
kernel, or in its numpy twin without a compiler (`_kernel.py`), with the same
bits; identical seeds give bit-identical streams on every platform.
"""

from __future__ import annotations

import numpy as np

from . import _kernel
from ._kernel import _U, _mix64_array
from .errors import ConfigurationError

_MASK64 = (1 << 64) - 1
_STREAM_SALT = 0xD2B74407B1CE6E93

ALGORITHM = "splitmix64-counter"


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a Python int (exact 64-bit semantics)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class RngState:
    """One logical random stream plus its substream derivation.

    A stream is identified by its 64-bit ``base``, mixed from a master seed
    in [0, 2**64) (any other seed raises `ConfigurationError`, since it
    would alias one in range); draws only advance the draw counter.
    ``substream(i)`` derives an independent child stream without touching
    this stream's counter, so replicate/path substreams can be handed out
    deterministically and used concurrently.
    """

    def __init__(self, master_seed: int, _base: int | None = None):
        if _base is None:
            if not 0 <= master_seed <= _MASK64:  # no two seeds may name one stream
                raise ConfigurationError(f"seed must lie in [0, 2**64), got {master_seed}")
            _base = mix64(int(master_seed))
        self._base = _base & _MASK64
        self._count = 0

    @property
    def state(self) -> tuple[int, int]:
        """(base, draws consumed so far)."""
        return (self._base, self._count)

    def substream(self, i: int) -> "RngState":
        """Child stream ``i`` (i >= 0), derived purely from this stream's base."""
        if i < 0:
            raise ValueError("substream index must be >= 0")
        return RngState(0, _base=mix64((self._base + (i + 1) * _STREAM_SALT) & _MASK64))

    def child_bases(self, n: int, start: int = 0) -> np.ndarray:
        """Bases of children ``start .. start+n-1`` as a uint64 array.

        Equals ``[self.substream(start + i).state[0] for i in range(n)]``.
        """
        idx = np.arange(start + 1, start + n + 1, dtype=np.uint64)
        states = _U(self._base) + idx * _U(_STREAM_SALT)
        return _mix64_array(states)

    def uniforms(self, n: int) -> np.ndarray:
        """Next ``n`` uniforms in the open interval (0, 1); advances the stream."""
        out = np.empty(n)
        _kernel._KERNEL.uniforms(np.array([self._base], dtype=np.uint64), 1, self._count + 1,
                                 n, out)
        self._count += n
        return out

    def take(self, n: int) -> "RngState":
        """The next ``n`` draws as a stream of their own: a copy of this
        stream at its counter, while this stream skips past them."""
        window = RngState(0, _base=self._base)
        window._count, self._count = self._count, self._count + n
        return window

    def derive_seed(self, i: int) -> int:
        """A 64-bit master seed for an independent component, mixed from child ``i``."""
        return self.substream(i).state[0]


def uniforms_for_bases(bases: np.ndarray, n_draws: int) -> np.ndarray:
    """Uniform block, row ``p`` holding draws 1..n_draws of the stream ``bases[p]``.

    Bitwise identical to calling ``uniforms(n_draws)`` on each stream; used to
    vectorize generation across many substreams (e.g. random-walk paths).
    ``bases`` is a sequence of ints in [0, 2**64) or an integer array, whose
    values are taken modulo 2**64, as ``astype(np.uint64)`` takes them.
    """
    bases = np.ascontiguousarray(bases, dtype=np.uint64).ravel()
    out = np.empty((bases.size, n_draws))
    _kernel._KERNEL.uniforms(bases, bases.size, 1, n_draws, out)
    return out
