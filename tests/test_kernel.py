"""The kernel entries of `_kernel.py` on every kernel path: the draw entries
equal their Python twins bit for bit wherever a value falls in a vector loop
or its tail, the walk entries of the loaded kernel equal its scalar build,
and every entry rejects a bad array before it touches memory."""

import ctypes

import numpy as np
import pytest

from tailseries import RngState, _kernel

from conftest import KERNELS, assert_same_bits

# lengths up to two vectors of eight doubles and one past, then a block's
# worth of draws with a remainder of three
LENGTHS = [*range(1, 18), 65_536 + 3]


def kernel_id(kernel):
    return "python" if kernel is _kernel._PYTHON_KERNEL else "c"


@pytest.mark.parametrize("count, first", [(1, 1), (3, 12_345), (2, 2**40 + 7)])
def test_uniforms_equal_twin_in_vector_tails(count, first):
    # rows of n values, so a row after the first starts at any offset mod 8
    bases = np.array([0x0123456789ABCDEF, 2**64 - 1, 7][:count], dtype=np.uint64)
    for n in LENGTHS:
        rows = []
        for kernel in KERNELS:
            out = np.empty(count * n)
            kernel.uniforms(bases, count, first, n, out)
            rows.append(out)
        for out in rows[1:]:
            assert_same_bits(out, rows[0])


def draw_entries(kernel, u, p, gamma, shift):
    """The kernel's two passes of the inverse CDF around numpy's power: the
    count of u outside (0, 1) and, when it is 0, the bases and the draws."""
    out = np.empty(u.size)
    outside = kernel.pareto_base(u, u.size, p, out)
    if outside:
        return [outside]
    bases = out.copy()
    out **= gamma
    kernel.pareto_finish(u, out, u.size, p, shift)
    return [outside, bases, out]


def special_uniforms(p):
    """The u where the branch turns, at 1 - p and one ulp either side, and
    the u next to 0 and 1: the smallest draw, the smallest double, and the
    largest double below 1."""
    q = 1.0 - p
    return [q, np.nextafter(q, 0.0), np.nextafter(q, 1.0), 2.0**-54, 5e-324,
            np.nextafter(1.0, 0.0)]


@pytest.mark.parametrize("shift", [0.0, 1.0], ids=["unshifted", "shifted"])
@pytest.mark.parametrize("p", [0.3, 0.5, 1.0])
def test_inverse_cdf_passes_equal_twin_in_vector_tails(p, shift):
    filler = np.random.default_rng(4).uniform(0.01, 0.99, max(LENGTHS))
    for special in special_uniforms(p):
        for n in LENGTHS:
            for offset in range(min(n, 8)):
                u = filler[:n].copy()
                u[offset::8] = special
                results = [draw_entries(kernel, u, p, 0.3, shift) for kernel in KERNELS]
                for result in results[1:]:
                    assert result[0] == results[0][0] and len(result) == len(results[0])
                    for got, expected in zip(result[1:], results[0][1:]):
                        assert_same_bits(got, expected)
                # at p = 1 the branch turns at u = 0, which lies outside
                assert (results[0][0] == 0) == (0.0 < special < 1.0)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, np.inf, np.nan])
def test_pareto_base_counts_outside_in_vector_tails(bad):
    # a nan is not counted; every other u outside (0, 1) is, in any lane
    for n in LENGTHS:
        for offset in range(min(n, 8)):
            u = np.full(n, 0.25)
            u[offset::8] = bad
            counts = {kernel.pareto_base(u, n, 0.5, np.empty(n)) for kernel in KERNELS}
            assert counts == {0 if np.isnan(bad) else u[offset::8].size}


def valid_arguments():
    """For each entry, a call on small, valid buffers."""
    u = np.linspace(0.05, 0.95, 8)
    rows = np.linspace(0.1, 2.0, 16)
    capped = np.array([[1.0, 0.9, 0.5, 0.2], [1.0, 0.8, 0.7, 0.1], [1.0, 1.0, 0.3, 0.3]])
    bases = np.array([3, 5], dtype=np.uint64)
    return {
        "uniforms": (bases, 2, 1, 8, np.empty(16)),
        "pareto_base": (u, 8, 0.5, np.empty(8)),
        "pareto_finish": (u, np.full(8, 2.0), 8, 0.5, 1.0),
        "two_point_walk": (bases, 2, 8, 0.5, 2.0, 0.5, np.empty(16)),
        "walk_summary": (rows, 2, 8, np.empty(2), np.empty(2)),
        "series": (_kernel.LINEAR, rows.copy(), rows.copy(), 2, 8, 0.8, 0.6, np.zeros(2)),
        "capped_top": (rows, 2, 8, 3, np.empty(8)),
        "cluster_moments": (capped.ravel(), 3, 4, *(np.empty(3), np.empty(3)),
                            *(np.empty(2), np.empty(2))),
    }


# for each dtype of the kernel's arrays, one of the same size and one smaller
OTHER_DTYPES = {np.dtype(np.uint64): (np.int64, np.uint32),
                np.dtype(np.float64): (np.int64, np.float32)}


def bad_arrays(array, written):
    """(name, the bad array, the buffer that holds it) for ``array``: each
    other dtype, a strided view and, when the entry writes it, a read-only
    copy. Each sits at the start of a larger buffer, so that a write past its
    end would show."""
    for dtype in OTHER_DTYPES[array.dtype]:
        held = np.zeros(2 * array.size, dtype=dtype)
        yield np.dtype(dtype).name, held[:array.size], held
    held = np.zeros(2 * array.size, dtype=array.dtype)
    held[::2] = array
    yield "strided", held[::2], held
    if written:
        held = np.zeros(2 * array.size, dtype=array.dtype)
        held[:array.size] = array
        held.flags.writeable = False
        yield "read-only", held[:array.size], held


def bad_calls():
    for name, args in valid_arguments().items():
        for i, kind in enumerate(_kernel._KERNEL_SIGNATURES[name][1]):
            if isinstance(kind, _kernel._Array):
                for what, _, _ in bad_arrays(args[i], kind.written):
                    yield name, i, what


@pytest.mark.parametrize("kernel", KERNELS, ids=kernel_id)
def test_valid_arguments_run(kernel):
    for name, args in valid_arguments().items():
        getattr(kernel, name)(*args)


@pytest.mark.parametrize("kernel", KERNELS, ids=kernel_id)
@pytest.mark.parametrize("name, index, what", list(bad_calls()))
def test_bad_array_raises_before_any_write(kernel, name, index, what):
    args = list(valid_arguments()[name])
    kind = _kernel._KERNEL_SIGNATURES[name][1][index]
    _, bad, held = next(b for b in bad_arrays(args[index], kind.written) if b[0] == what)
    args[index] = bad
    buffers = [a for a in args if isinstance(a, np.ndarray)] + [held]
    before = [a.tobytes() for a in buffers]
    with pytest.raises(ctypes.ArgumentError, match=f"argument {index + 1}: TypeError"):
        getattr(kernel, name)(*args)
    assert [a.tobytes() for a in buffers] == before


@pytest.mark.parametrize("kernel", KERNELS, ids=kernel_id)
def test_read_only_input_is_read(kernel):
    u = np.linspace(0.05, 0.95, 8)
    expected = np.empty(8)
    kernel.pareto_base(u, 8, 0.5, expected)
    u.flags.writeable = False
    out = np.empty(8)
    assert kernel.pareto_base(u, 8, 0.5, out) == 0
    assert_same_bits(out, expected)


def walk_entries(kernel, bases, n):
    """The walk entries of ``kernel`` on the two-point walks of ``bases`` at
    horizon n: the walks, their summaries, and for each k <= n of 1..41 the
    top values and, for kmax = k - 1 of 1, 2, 20 and 40, their moments."""
    count = bases.size
    rows = np.empty(count * n)
    kernel.two_point_walk(bases, count, n, 1 / 3, 2.0, 0.5, rows)
    maxima, capped_sums = np.empty(count), np.empty(count)
    assert kernel.walk_summary(rows, count, n, maxima, capped_sums) == count * n
    results = [rows, maxima, capped_sums]
    for k in range(1, min(n, 41) + 1):
        capped = np.empty(count * (k + 1))
        kernel.capped_top(rows, count, n, k, capped)
        results.append(capped)
        if k - 1 in (1, 2, 20, 40):
            moments = [np.empty(k), np.empty(k), np.empty(k - 1), np.empty(k - 1)]
            kernel.cluster_moments(capped, count, k + 1, *moments)
            results.extend(moments)
    return results


@pytest.mark.parametrize("n", [1, 7, 8, 9, 200])
def test_walk_entries_equal_scalar_build(scalar_kernel, n):
    # 1037 paths: 129 groups of eight lanes and five left over, and more
    # rows than one pairwise block of 128
    bases = RngState(5).child_bases(1037)
    for got, expected in zip(walk_entries(_kernel._KERNEL, bases, n),
                             walk_entries(scalar_kernel, bases, n), strict=True):
        assert_same_bits(got, expected)
