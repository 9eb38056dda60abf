import os
import subprocess
import sys

from conftest import REPO_ROOT


def test_interference_statistics_demo_runs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "demos" / "03_interference_statistics.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "M_P(   -1e+06)" in proc.stdout
