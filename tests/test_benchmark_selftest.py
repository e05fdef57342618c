"""The benchmark's quick self-test runs with the tests, so that a library
change that renames or drops a function the benchmark traces or calls fails
here, not only in a benchmark run."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selftest passed"
