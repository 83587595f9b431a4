"""Every script in demos/ runs to completion against the package under test."""

from pathlib import Path

import pytest

from conftest import run_python

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = run_python([str(demo)], cwd=tmp_path, text=True)
    assert proc.returncode == 0, proc.stderr
