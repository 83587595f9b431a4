"""Shared helpers for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import tailseries

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
