"""Smoke test of the benchmark's traced path.

`bench/run.py --trace 1` wraps the package's module boundaries and reads
attributes that no other test touches (the inner MPHF's level profile, the
type counts, every section's bytes, the scan and census span attributes), so
a change to the engine can break it while every other test passes. Both
workloads run: the one-string long-k31 input and the many-string unitigs-k31
input take different paths through the engine.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["long-k31", "unitigs-k31"])
def test_traced_benchmark_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "11", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
