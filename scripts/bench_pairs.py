#!/usr/bin/env python3
"""Paired benchmark runs of a parent commit and this checkout.

Extracts the parent commit (`git archive`) into a temporary directory, then
runs `bench/run.py --workload all` on the parent and on this checkout
(working tree included) once per seed, alternating which side runs first. Writes one
JSON file holding, per workload and end-to-end metric of BENCHMARK.json,
each side's runs, median and quartiles, the number of pairs the change won
(ties count for neither side), and the `correct`/`failed` totals. The file is
rewritten after every pair, so an interrupted run keeps the pairs it finished.

Run from the repository root, for example:

    python3 scripts/bench_pairs.py --parent HEAD --pairs 10 --seed-start 1 \\
        --out BENCH_8.json
"""

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args, text=True):
    out = subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                         capture_output=True, text=text).stdout
    return out.strip() if text else out


def run_side(root, seed):
    """One `bench/run.py --workload all` run at the benchmark's default
    length: {workload: (result, meta)}."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--seed",
         str(seed)],
        cwd=root, capture_output=True, text=True, check=False)
    out, current = {}, None
    for line in proc.stdout.splitlines():
        if line.startswith("== "):
            current = line[3:].strip()
            out[current] = [None, None]
        elif line.startswith("meta ") and current:
            out[current][1] = json.loads(line[5:])
        elif line.startswith("{") and current:
            out[current][0] = json.loads(line)
    if not out or any(res is None for res, _ in out.values()):
        raise RuntimeError(f"bench/run.py failed in {root}:\n{proc.stderr}")
    return out


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def report(parent_sha, head_sha, dirty, spec, runs):
    """The BENCH record of the pairs run so far."""
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = {}
    for wl in (w["name"] for w in spec["workloads"]):
        rows = {}
        for name, m in metrics.items():
            side = {s: [r[s][wl][0]["metrics"][name]["value"] for r in runs]
                    for s in ("parent", "change")}
            sign = 1 if m["better"] == "lower" else -1
            wins = sum(sign * (c - p) < 0
                       for p, c in zip(side["parent"], side["change"]))
            rows[name] = {"unit": m["unit"], "better": m["better"],
                          "bound": m["bound"],
                          "parent": summary(side["parent"]),
                          "change": summary(side["change"]),
                          "change_wins": wins, "pairs": len(runs)}
        totals = {s: {"correct": all(r[s][wl][0]["correct"] for r in runs),
                      "attempted": sum(r[s][wl][0]["attempted"] for r in runs),
                      "failed": sum(r[s][wl][0]["failed"] for r in runs)}
                  for s in ("parent", "change")}
        workloads[wl] = {"metrics": rows, "totals": totals}
    first = runs[0]["change"][spec["workloads"][0]["name"]][1] or {}
    return {
        "parent": parent_sha,
        "change": head_sha + (" plus uncommitted changes" if dirty else ""),
        "command": "python3 bench/run.py --workload all --seed SEED",
        "pairs": len(runs),
        "seeds": [r["seed"] for r in runs],
        "first_side": [r["first"] for r in runs],
        "machine": first.get("machine"),
        "python": first.get("python"),
        "numpy": first.get("numpy"),
        "workloads": workloads,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True,
                    help="commit to compare this checkout against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed-start", type=int, default=1,
                    help="pair i runs seed seed-start + i on both sides")
    ap.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_sha = git("rev-parse", args.parent)
    head_sha = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "parent"
        archive = io.BytesIO(git("archive", parent_sha, text=False))
        with tarfile.open(fileobj=archive) as tar:
            tar.extractall(tree, filter="data")
        runs = []
        for i in range(args.pairs):
            seed = args.seed_start + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_side(tree if side == "parent" else ROOT, seed)
            runs.append(pair)
            rec = report(parent_sha, head_sha, dirty, spec, runs)
            Path(args.out).write_text(json.dumps(rec, indent=1) + "\n")
            print(f"pair {i + 1}/{args.pairs} (seed {seed}) done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
