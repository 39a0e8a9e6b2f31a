"""The benchmark's smoke run (``python3 perfbench/smoke.py``) as a test: every
workload at a tiny size, checks on, traced and untraced.  No timing gate."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_smoke_runs_clean():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "smoke.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
