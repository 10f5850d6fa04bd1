"""The benchmark's smoke run passes: every workload, traced and untraced.

perfbench/smoke.py runs perfbench/run.py --smoke on tiny grids and checks
each run's exit code, result keys and metric names; a library change that
breaks a workload (make_study for eps-ladder, the solver for rhs-128, ...)
fails here rather than only in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
