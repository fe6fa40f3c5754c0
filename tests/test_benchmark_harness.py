"""The benchmark's checker still accepts real outputs and rejects
corrupted ones, so it cannot rot between benchmark runs."""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "benchmarks" / "selftest.py"


def test_benchmark_selftest(child_env):
    proc = subprocess.run(
        [sys.executable, str(SELFTEST)],
        env=child_env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
