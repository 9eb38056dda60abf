"""The benchmark's own tests run with the package's, so that renaming a
function the benchmark wraps fails here and not only in the benchmark."""

import subprocess
import sys

from conftest import REPO_ROOT


def test_perfbench_unit_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench/tests"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
