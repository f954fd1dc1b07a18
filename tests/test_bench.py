"""The benchmark harness still runs against the package's public API."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.slow
def test_bench_smoke_passes():
    # The harness writes its records only under the git-ignored bench/out/.
    proc = subprocess.run([sys.executable, os.path.join("bench", "smoke.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke test passed" in proc.stdout
