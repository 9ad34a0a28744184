"""The micro-benchmarks still run against the package as it is.

microbench/ sits outside the tier-1 test paths, so a change to an API it
calls would leave it broken unseen. This runs it once, every benchmark
body called a single time and nothing timed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("pytest_benchmark")

ROOT = Path(__file__).resolve().parents[1]


def test_microbench_runs_once():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "microbench", "-q",
         "--benchmark-disable", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
