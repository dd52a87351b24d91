#!/usr/bin/env python3
"""Same bytes, same values: digests of a parent commit against this checkout.

Extracts the parent commit and copies this checkout's tracked files, as they
are in the working tree, into two temporary directories, as
`scripts/bench_pairs.py` does. In each, one child process imports lpmphf
from that tree's `src/` and builds both layouts on the two benchmark
workloads (`bench/run.py`'s WORKLOADS and `cut_strings`, seed 7), on the
unitig shape cut into longer strings (about 250 k-mers on average), whose
strings lie on both sides of the run count up to which slots decode run by
run and of the window count up to which the scan takes one direct argmin,
on two k = 63 shapes: m = 12 cut into short strings, and m = 21 in one
string of more than 2^15 windows, whose scan spans several blocks, and on
two k = 33 shapes cut into short strings, whose m-mers cross the boundary
of the two 64-bit words: m = 1 (one m-mer wholly in the high word) and
m = 8. Per shape and
layout it prints the SHA-256 of `to_bytes()`, of unchecked and checked
stream values (every string, then a copy of it with about one base in 40
substituted), of unchecked and checked values of a random batch (10^4
members and 10^4 random k-mers, shuffled) and of 200 scalar lookups of that
batch's first keys, unchecked then checked (-1 for a definite miss). Per
shape it also prints the SHA-256 of the FASTA file `write_fasta` writes of
the SPSS, and of the `joined_codes` and string lengths `load_spss` reads
back from it. Prints every row, marked `same` or `DIFFERS`, and exits 1
when any row differs.

Run from the repository root:

    python3 scripts/same_values.py --parent HEAD
    python3 scripts/same_values.py --tree .     # one tree's rows only
"""

import argparse
import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import copy_tracked, extract, git  # noqa: E402

SEED = 7
BATCH = 10_000
SCALAR = 200


def sha(data):
    return hashlib.sha256(data if isinstance(data, bytes) else
                          data.astype("<i8").tobytes()).hexdigest()


def tree_rows(tree):
    """(row, SHA-256) pairs of the lpmphf in `tree`/src."""
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    import lpmphf as lp
    import run   # bench/run.py of the same tree
    if not Path(lp.__file__).resolve().is_relative_to(tree / "src"):
        raise ImportError(f"lpmphf imported from {lp.__file__}, not {tree}/src")

    def checked_lookup(f, x):
        try:
            return f.lookup(x, checked=True)
        except lp.DefiniteMiss:
            return -1

    unitigs_long = run.Workload("unitigs-k31-long", k=31, m=8, n=20_000,
                                mean_string_kmers=250)
    k63 = run.Workload("k63-m12", k=63, m=12, n=20_000, mean_string_kmers=70)
    k63_long = run.Workload("k63-m21-long", k=63, m=21, n=40_000,
                            mean_string_kmers=0)   # more than 2^15 windows
    # k = 33, short strings: m = 1 puts the first m-mer wholly in the high
    # word (shift 64) and the last at shift 0; from m = 2 the first straddles
    k33 = [run.Workload(f"k33-m{m}", k=33, m=m, n=20_000, mean_string_kmers=70)
           for m in (1, 8)]
    for wl in (*run.WORKLOADS.values(), unitigs_long, k63, k63_long, *k33):
        base = lp.generate_spss(wl.n + wl.k - 1, wl.k, seed=SEED)
        spss = lp.SpssInput(k=wl.k, codes=run.cut_strings(base.codes, wl, SEED))
        with tempfile.TemporaryDirectory() as tmp:
            fasta = Path(tmp) / "spss.fa"
            lp.write_fasta(spss, fasta)
            loaded = lp.load_spss(fasta, wl.k)
            yield f"{wl.name} spss fasta", sha(fasta.read_bytes())
            lengths = np.array([len(c) for c in loaded.codes], dtype="<i8")
            yield f"{wl.name} spss loaded", sha(
                loaded.joined_codes.tobytes() + lengths.tobytes())
        scheme = lp.MinimizerScheme(k=wl.k, m=wl.m, seed=SEED)
        rng = np.random.default_rng(SEED)
        mutated = []
        for c in spss.codes:
            at = np.flatnonzero(rng.random(c.size) < 1 / 40)
            mutated.append(c.copy())
            mutated[-1][at] = (c[at] + rng.integers(1, 4, at.size)) % 4
        hi, lo = spss.kmer_word_arrays()
        idx = rng.permutation(spss.n)[:BATCH]
        qhi = np.concatenate([hi[idx], rng.integers(
            0, 4 ** max(wl.k - 32, 0), BATCH, dtype=np.uint64)])
        qlo = np.concatenate([lo[idx], rng.integers(
            0, 4 ** min(wl.k, 32), BATCH, dtype=np.uint64)])
        order = rng.permutation(qhi.size)
        qhi, qlo = qhi[order], qlo[order]
        keys = [(int(h) << 64) | int(x) for h, x in zip(qhi[:SCALAR], qlo)]
        for variant in ("basic", "partitioned"):
            f = getattr(lp, f"build_{variant}")(spss, scheme)
            rows = {"bytes": f.to_bytes()}
            for tag, checked in (("", False), ("-checked", True)):
                rows["stream" + tag] = np.concatenate(
                    [f.stream_lookup(c, checked=checked)
                     for c in [*spss.codes, *mutated]])
                rows["random" + tag] = f.lookup_words(qhi, qlo, checked=checked)
            rows["scalar"] = np.array([f.lookup(x) for x in keys] +
                                      [checked_lookup(f, x) for x in keys])
            for item, data in rows.items():
                yield f"{wl.name} {variant} {item}", sha(data)


def digests(tree):
    """{row: SHA-256} from one child process run on `tree`."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--tree", str(tree)], capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"digests of {tree} failed:\n{proc.stderr}")
    return dict(line.rsplit(" ", 1) for line in proc.stdout.splitlines())


def compare(before, after):
    """Print every row, marked `same` or `DIFFERS`; 1 if any row differs."""
    differ = False
    for row in dict.fromkeys([*before, *after]):
        same = before.get(row) == after.get(row)
        differ |= not same
        print(f"{'same   ' if same else 'DIFFERS'} {row}  {after.get(row)}")
    return int(differ)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    side = ap.add_mutually_exclusive_group(required=True)
    side.add_argument("--parent", help="commit to compare this checkout against")
    side.add_argument("--tree", type=Path,
                      help="print the rows of the lpmphf in TREE/src only")
    args = ap.parse_args(argv)
    if args.tree:
        for row, digest in tree_rows(args.tree.resolve()):
            print(row, digest)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        parent, change = Path(tmp) / "parent", Path(tmp) / "change"
        extract(git("rev-parse", args.parent), parent)
        copy_tracked(change)
        return compare(digests(parent), digests(change))


if __name__ == "__main__":
    sys.exit(main())
