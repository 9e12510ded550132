"""The benchmark's own tests (``perfbench/tests``), run as part of this
suite.  They go in a subprocess because both suites import a top-level
``conftest`` module, so one pytest session cannot collect the two."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_tests_pass():
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "perfbench/tests"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
