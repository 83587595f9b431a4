"""Frozen behavior of the random stream: test vectors, substreams, uniformity."""

from fractions import Fraction

import numpy as np
import pytest

from tailseries import ConfigurationError
from tailseries._kernel import _mix64_array
from tailseries.rng import RngState, mix64, uniforms_for_bases
from tailseries.simulate import _DRAW_BLOCK
from conftest import assert_same_bits, same_on_every_kernel

_GOLD = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1

# Published SplitMix64 reference outputs for raw state x = seed, advancing
# x += golden before each mix. Pins the mixing kernel bit-exactly.
KERNEL_SEQ_1234567 = [6457827717110365317, 3203168211198807973, 9817491932198370423]

# Frozen outputs of the full documented stream derivation (base = mix64(seed)).
STREAM_SEQ_1234567 = [10085929780576961382, 5713238502719547730, 16148439655819174557]
STREAM_SEQ_0 = [16294208416658607535, 7960286522194355700, 487617019471545679]


def stream_outputs(seed, n):
    """Outputs 1..n of the stream of ``seed``: mix64 of its counter states."""
    base = RngState(seed).state[0]
    return [mix64((base + c * _GOLD) & _MASK) for c in range(1, n + 1)]


def test_mix64_kernel_published_vector():
    got = [mix64((1234567 + n * _GOLD) & _MASK) for n in (1, 2, 3)]
    assert got == KERNEL_SEQ_1234567


def test_stream_output_vectors():
    assert RngState(1234567).state[0] == mix64(1234567)
    assert stream_outputs(1234567, 3) == STREAM_SEQ_1234567
    assert stream_outputs(0, 3) == STREAM_SEQ_0


def test_vectorized_path_matches_scalar_mixing():
    # the numpy kernel and the pure-int helper implement the same function
    base = RngState(99).state[0]
    states = np.uint64(base) + np.arange(1, 5, dtype=np.uint64) * np.uint64(_GOLD)
    assert list(_mix64_array(states)) == stream_outputs(99, 4)


def test_same_seed_same_stream():
    a = RngState(42).uniforms(1000)
    b = RngState(42).uniforms(1000)
    assert np.array_equal(a, b)


def test_streaming_equals_block():
    whole = RngState(7).uniforms(100)
    r = RngState(7)
    parts = np.concatenate([r.uniforms(13), r.uniforms(37), r.uniforms(50)])
    assert np.array_equal(whole, parts)


def test_uniforms_open_interval_53bit():
    u = RngState(5).uniforms(200_000)
    assert u.min() > 0.0 and u.max() < 1.0
    # centred 53-bit grid: draw k of the top 53 bits is (2k + 1) / 2**54,
    # rounded to the nearest double, exactly as the float64 arithmetic rounds
    grid = [float(Fraction(2 * (z >> 11) + 1, 2**54)) for z in stream_outputs(5, u.size)]
    assert_same_bits(u, np.array(grid))


def test_substreams_differ_and_are_pure():
    root = RngState(3)
    a0 = root.substream(0).uniforms(50)
    a1 = root.substream(1).uniforms(50)
    assert not np.array_equal(a0, a1)
    # deriving substreams does not advance the parent
    assert root.state[1] == 0
    # re-derivation reproduces the stream
    assert np.array_equal(root.substream(0).uniforms(50), a0)


def test_substream_is_function_of_master_seed_and_index():
    a = RngState(123).substream(17).uniforms(10)
    b = RngState(123).substream(17).uniforms(10)
    assert np.array_equal(a, b)


def test_child_bases_match_substream_scalar_path():
    root = RngState(11)
    bases = root.child_bases(20, start=5)
    expected = [root.substream(5 + i).state[0] for i in range(20)]
    assert [int(b) for b in bases] == expected


def test_uniforms_for_bases_matches_per_stream_draws():
    root = RngState(13)
    bases = root.child_bases(8)
    block = uniforms_for_bases(bases, 25)
    for i in range(8):
        assert np.array_equal(block[i], root.substream(i).uniforms(25))


def test_uniformity_ks():
    u = np.sort(RngState(2024).uniforms(100_000))
    n = u.size
    grid = np.arange(1, n + 1) / n
    ks = max(np.max(grid - u), np.max(u - (grid - 1.0 / n)))
    assert ks < 0.006  # ~1.36/sqrt(n) is the 5% point: 0.0043


def test_substream_index_validation():
    with pytest.raises(ValueError):
        RngState(1).substream(-1)


def test_master_seed_range():
    # a seed outside [0, 2**64) would alias the seed it equals modulo 2**64
    assert RngState(2**64 - 1).state == (mix64(2**64 - 1), 0)
    for seed in (-1, 2**64, -(2**64)):
        with pytest.raises(ConfigurationError, match="seed"):
            RngState(seed)


def test_master_seed_is_an_integer():
    # a float seed would name the stream of the integer it truncates to
    for seed in (np.uint64(7), np.int64(7), np.int8(7)):
        assert RngState(seed).state == RngState(7).state
    for seed in (1.5, 7.0, np.float64(7.9), "7", None):
        with pytest.raises(ConfigurationError, match="seed must be an integer"):
            RngState(seed)


def scalar_uniforms(base, first, n):
    """Draws first .. first+n-1 of the stream ``base`` by the documented
    formula, in Python ints and floats."""
    return np.array([(float(mix64((base + c * _GOLD) & _MASK) >> 11) + 0.5) * 2.0**-53
                     for c in range(first, first + n)])


def unmix64(z):
    """The inverse of `mix64`: undo each xorshift and multiply by the inverse
    of each odd multiplier modulo 2**64, in reverse order."""
    def unxorshift(y, s):  # each pass recovers s more of the top bits of x
        x = y
        for _ in range(64 // s):
            x = y ^ (x >> s)
        return x

    z = unxorshift(z, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & _MASK
    z = unxorshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & _MASK
    return unxorshift(z, 30)


@pytest.mark.parametrize("sizes", [(0, 1, 13, 1, 0, 50),
                                   (_DRAW_BLOCK, _DRAW_BLOCK, 123)],
                         ids=["small", "series-draw-blocks"])
def test_uniforms_in_blocks_match_formula(sizes):
    # each call starts at the counter the previous one left, on every kernel
    def draw():
        stream = RngState(7)
        blocks = [stream.uniforms(n) for n in sizes]
        assert [b.shape for b in blocks] == [(n,) for n in sizes]
        assert stream.state[1] == sum(sizes)
        return np.concatenate(blocks)

    base = RngState(7).state[0]
    assert_same_bits(same_on_every_kernel(draw), scalar_uniforms(base, 1, sum(sizes)))


def test_uniforms_for_bases_any_integer_input():
    bases = RngState(13).child_bases(40, start=3)
    assert (bases.view(np.int64) < 0).any()  # some bases are >= 2**63
    expected = np.array([scalar_uniforms(int(b), 1, 9) for b in bases])
    for given in (bases, bases.view(np.int64), [int(b) for b in bases]):
        got = same_on_every_kernel(lambda: uniforms_for_bases(given, 9))
        assert_same_bits(got, expected)
    got = same_on_every_kernel(lambda: uniforms_for_bases(bases[::3], 9))
    assert_same_bits(got, expected[::3])
    assert same_on_every_kernel(lambda: uniforms_for_bases(bases, 0)).shape == (40, 0)


@pytest.mark.parametrize("top53, draw", [(2**53 - 1, 1.0), (2**52, 0.5)])
def test_endpoint_rounding_is_pinned(top53, draw):
    # Above 2**52, `(bits >> 11) + 0.5` is not a double and rounds to even:
    # 2**53 - 1 draws exactly 1.0, outside the documented open interval, and
    # 2**52 draws 0.5, as 2**52 - 1 does. Both kernels keep this until a
    # new draw protocol changes them together.
    target = (top53 << 11) | 0x3FF
    base = (unmix64(target) - _GOLD) & _MASK  # draw 1 mixes base + _GOLD
    assert mix64((base + _GOLD) & _MASK) == target
    got = same_on_every_kernel(lambda: RngState(0, _base=base).uniforms(1))
    assert got.tolist() == [draw]
    assert_same_bits(same_on_every_kernel(lambda: uniforms_for_bases([base], 1)), got[None, :])
