"""The SHA-256 of the stdout of a fixed battery of CLI runs, against the
digests in golden.json, on every kernel path: the Python twins, the loaded
kernel and its build without x86-64-v4 code.

``drivers`` holds the driver files that the runs name by key. ``portable``
maps each run (its arguments, space-separated) to the digest of its stdout,
for runs whose bytes do not depend on numpy's SIMD dispatch level, such as
those on two-point drivers. A change that moves a digest changes the
package's output bytes, and says so in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path
from unittest import mock

import pytest

from tailseries import _kernel
from tailseries.cli import parse_and_dispatch

GOLDEN = json.loads(Path(__file__).with_name("golden.json").read_text())


@pytest.mark.parametrize("path", ["python", "c", "scalar"])
def test_outputs_match_golden_digests(path, request, tmp_path, capsys):
    if path == "python":
        kernel = _kernel._PYTHON_KERNEL
    elif path == "c":
        if _kernel._KERNEL is _kernel._PYTHON_KERNEL:
            pytest.skip("no compiled kernel")
        kernel = _kernel._KERNEL
    else:
        kernel = request.getfixturevalue("scalar_kernel")
    for name, driver in GOLDEN["drivers"].items():
        (tmp_path / name).write_text(json.dumps(driver))
    digests = {}
    with mock.patch.object(_kernel, "_KERNEL", kernel):
        for run in GOLDEN["portable"]:
            argv = run.split()
            argv[argv.index("--driver") + 1] = str(tmp_path / argv[argv.index("--driver") + 1])
            assert parse_and_dispatch(argv) == 0, run
            digests[run] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == GOLDEN["portable"]
