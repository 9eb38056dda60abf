import functools
import os
import subprocess
import sys
import tempfile

import pytest

from conftest import REPO_ROOT

DEMOS = sorted(p.name for p in (REPO_ROOT / "demos").glob("*.py"))


@functools.lru_cache(maxsize=None)
def run_demo(name):
    """Run one demo script in a scratch directory, once per test run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    with tempfile.TemporaryDirectory() as cwd:
        return subprocess.run(
            [sys.executable, str(REPO_ROOT / "demos" / name)],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
        )


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_zero(name):
    proc = run_demo(name)
    assert proc.returncode == 0, proc.stderr


def test_interference_statistics_demo_runs():
    proc = run_demo("03_interference_statistics.py")
    assert proc.returncode == 0, proc.stderr
    assert "M_P(   -1e+06)" in proc.stdout
