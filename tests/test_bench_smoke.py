"""Smoke test of the benchmark's traced path.

`bench/run.py --trace 1` wraps the package's module boundaries and reads
attributes that no other test touches (the inner MPHF's level profile, the
type counts, every section's bytes, the scan and census span attributes), so
a change to the engine can break it while every other test passes.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_benchmark_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "unitigs-k31",
         "--seed", "11", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
