"""`scripts/bench_pairs.py` stopped by SIGTERM in the middle of a benchmark
run exits 143 and leaves neither its temporary trees nor a running process
behind."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def live_session_processes(sid):
    """Processes of session `sid` that have not exited (zombies excluded)."""
    out = []
    for name in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path("/proc", name, "stat").read_text()
        except OSError:   # exited meanwhile
            continue
        state, _, _, session = stat.rsplit(")", 1)[1].split()[:4]
        if int(session) == sid and state != "Z":
            out.append(int(name))
    return out


def wait_for(cond, seconds):
    deadline = time.monotonic() + seconds
    while not cond() and time.monotonic() < deadline:
        time.sleep(0.05)
    return cond()


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_sigterm_removes_trees_and_stops_the_benchmark(tmp_path):
    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                      capture_output=True).returncode:
        pytest.skip("the checkout is not a git repository")
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    proc = subprocess.Popen(
        [sys.executable, "scripts/bench_pairs.py", "--parent", "HEAD",
         "--pairs", "1", "--out", str(tmp_path / "out.json")],
        cwd=ROOT, env={**os.environ, "TMPDIR": str(tmp)},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    try:
        # The change tree exists and a workload of bench/run.py has started
        # (it makes .bench_work in the tree it runs in).
        assert wait_for(lambda: any(tmp.glob("*/change")) and
                        any(tmp.glob("*/*/.bench_work")), 120)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 128 + signal.SIGTERM
        assert list(tmp.iterdir()) == []
        assert live_session_processes(proc.pid) == []
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
