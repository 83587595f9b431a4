"""Shared helpers for the test suite."""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import tailseries
from tailseries import SimulationError, _kernel

# The directory that holds the ``tailseries`` package this test process
# imported: ``src`` in an uninstalled checkout, site-packages when installed.
PACKAGE_ROOT = str(Path(tailseries.__file__).resolve().parent.parent)


def run_python(args, cwd=None, text=False):
    """Run ``python ARGS`` and return the completed process.

    The subprocess imports the same ``tailseries`` copy as the test process,
    whatever its working directory: ``PYTHONPATH`` starts with the absolute
    package root, so a relative entry such as ``src`` or a stale installed
    copy cannot take its place.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args],
                          capture_output=True, cwd=cwd, env=env, text=text)


def run_cli(args, cwd=None, text=False):
    """Run ``python -m tailseries.cli ARGS`` through `run_python`."""
    return run_python(["-m", "tailseries.cli", *args], cwd=cwd, text=text)


# The kernel paths this process can run: the Python twins, and the compiled
# kernel when it loaded (`test_kernel_loads_where_a_compiler_exists` fails
# when a compiler exists but the kernel did not load).
KERNELS = ((_kernel._PYTHON_KERNEL,) if _kernel._KERNEL is _kernel._PYTHON_KERNEL
           else (_kernel._PYTHON_KERNEL, _kernel._KERNEL))


def assert_same_bits(a, b):
    """Equal values with equal signs of zero: the same bytes."""
    assert np.array_equal(a, b) and a.tobytes() == b.tobytes()


def same_on_every_kernel(run):
    """``run()`` on every kernel path, which must agree: the same array bytes,
    or a `SimulationError` at the same step, which is re-raised."""
    outcomes = []
    for kernel in KERNELS:
        with mock.patch.object(_kernel, "_KERNEL", kernel):
            try:
                outcomes.append(run())
            except SimulationError as err:
                outcomes.append(err)
    first = outcomes[0]
    for other in outcomes[1:]:
        assert type(other) is type(first)
        if isinstance(first, SimulationError):
            assert other.step == first.step
        else:
            assert_same_bits(other, first)
    if isinstance(first, SimulationError):
        raise first
    return first


def walk_matrix(ensemble, n=None):
    """The ``n_paths x n`` matrix of ``W_1..W_n`` (default: the whole horizon)
    of ``ensemble``, assembled from the blocks of one `_map_blocks` pass: row
    p is path p."""
    n = ensemble.horizon if n is None else n
    out = np.empty((ensemble.n_paths, n))

    def copy(start, rows):
        out[start:start + rows.shape[0]] = rows

    ensemble._map_blocks(n, copy)
    return out


@pytest.fixture(scope="session")
def scalar_kernel(tmp_path_factory):
    """The kernel built from a copy of ``_recursion.c`` without its line
    ``#define X86_64_V4``: the scalar loops alone, as every compiler and
    target but GCC on x86-64 glibc builds them, with the package's flags and
    signatures. Skips where no compiler runs."""
    if _kernel._KERNEL is _kernel._PYTHON_KERNEL:
        pytest.skip("no compiled kernel")
    lines = _kernel._KERNEL_SOURCE.read_text().splitlines(keepends=True)
    kept = [line for line in lines if line.strip() != "#define X86_64_V4"]
    assert len(kept) == len(lines) - 1
    directory = tmp_path_factory.mktemp("scalar-kernel")
    source = directory / "_recursion.c"
    source.write_text("".join(kept))
    with mock.patch.object(_kernel, "_KERNEL_SOURCE", source):
        kernel = _kernel._load_kernel([directory])
    assert kernel is not None
    return kernel
