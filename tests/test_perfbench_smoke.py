"""Tier-1 smoke of the benchmark harness: every workload small, all checks on.

The traced half wraps named functions of the package, so a rename that the
harness does not follow fails here rather than at the next benchmark run.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_smoke_run_is_correct():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    results = [
        json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")
    ]
    assert len(results) == 6
    assert all(r["correct"] is True for r in results), results
