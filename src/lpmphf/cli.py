"""Command-line front end.

Subcommands: build, query, stats, theory, gen-spss, verify.
Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

import argparse
import math
import sys
import time

import numpy as np

from .basic import LpMphfBasic, epsilon_of_values
from .errors import KMismatch, LpmphfError, QueryShorterThanK
from .kmers import MAX_K, MAX_M
from .minimizers import MinimizerScheme, default_minimizer_length, scan_spss
from .partitioned import LpMphfPartitioned
from .spss import SpssInput, generate_spss, load_spss, read_records, write_fasta
from .storage import load_structure, save_structure
from .theory import (LOG2_E, TheoryParams, density, space_bound_basic,
                     space_bound_partitioned, stats, type_probabilities)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _number(cast, lo, hi=float("inf")):
    """argparse type: the argument as `cast`, finite and in [lo, hi]."""
    def parse(s):
        v = cast(s)
        if not lo <= v <= hi or v == math.inf:
            raise argparse.ArgumentTypeError(f"{v} is not a finite number in [{lo}, {hi}]")
        return v
    parse.__name__ = cast.__name__   # names the type in argparse's errors
    return parse


_SEED = _number(int, 0, 2 ** 64 - 1)


def _build_parser():
    p = _Parser(prog="lpmphf",
                description="locality-preserving minimal perfect hashing of k-mers")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a structure from a FASTA SPSS")
    b.add_argument("-i", "--input", required=True, help="SPSS file")
    b.add_argument("-o", "--output", required=True, help="structure file to write")
    b.add_argument("-k", type=_number(int, 1, MAX_K), required=True,
                   help="k-mer length (1..63)")
    b.add_argument("-m", type=_number(int, 1, MAX_M), default=None,
                   help="minimizer length, at most k (default: from input size)")
    b.add_argument("--seed", type=_SEED, default=0)
    b.add_argument("--variant", choices=("basic", "partitioned"),
                   default="partitioned")
    b.add_argument("--input-format", choices=("fasta", "lines"), default="fasta")

    q = sub.add_parser("query", help="query all k-mers of a FASTA file")
    q.add_argument("-i", "--input", required=True, help="structure file")
    q.add_argument("-q", "--queries", required=True, help="FASTA query file")
    q.add_argument("-o", "--output", default=None, help="write values here instead of stdout")
    q.add_argument("-k", type=_number(int, 1, MAX_K), default=None,
                   help="expected k (checked against the structure)")
    q.add_argument("--random", action="store_true",
                   help="shuffle the k-mers and look each up independently")
    q.add_argument("--checked", action="store_true",
                   help="report definite misses as '-'")
    q.add_argument("--seed", type=_SEED, default=0, help="shuffle seed for --random")

    s = sub.add_parser("stats", help="measured vs computed statistics")
    s.add_argument("-i", "--input", required=True, help="structure file")
    s.add_argument("-s", "--spss", required=True, help="the build input")
    s.add_argument("--format", choices=("tsv", "json"), default="tsv")
    s.add_argument("--input-format", choices=("fasta", "lines"), default="fasta")

    t = sub.add_parser("theory", help="closed-form calculators")
    t.add_argument("-k", type=_number(int, 1, MAX_K), required=True)
    t.add_argument("-m", type=_number(int, 1, MAX_M), required=True,
                   help="minimizer length, at most k")
    t.add_argument("-b", type=_number(float, math.nextafter(LOG2_E, math.inf)),
                   default=2.5, help="inner MPHF bits/key, above log2(e)")
    t.add_argument("--little-oh", type=_number(float, 0), default=0.5)
    t.add_argument("--xi", type=_number(float, 0, 1), default=0.0,
                   help="fraction of k-mers with ambiguous minimizers, in [0, 1]")
    t.add_argument("-n", type=_number(int, 1), default=1,
                   help="k-mer count to scale to (>= 1)")

    g = sub.add_parser("gen-spss", help="generate a random SPSS FASTA file")
    g.add_argument("-o", "--output", required=True)
    g.add_argument("--length", type=int, required=True,
                   help="bases drawn, at least k")
    g.add_argument("-k", type=_number(int, 1, MAX_K), required=True)
    g.add_argument("--seed", type=_SEED, default=0)

    v = sub.add_parser("verify", help="self-check a structure against its input")
    v.add_argument("-i", "--input", required=True, help="structure file")
    v.add_argument("-s", "--spss", required=True, help="the build input")
    v.add_argument("--input-format", choices=("fasta", "lines"), default="fasta")
    return p


def _cmd_build(args):
    t0 = time.perf_counter()
    spss = load_spss(args.input, args.k, fmt=args.input_format)
    m = args.m if args.m is not None else default_minimizer_length(
        args.k, spss.total_length)
    scheme = MinimizerScheme(k=args.k, m=m, seed=args.seed)
    cls = LpMphfBasic if args.variant == "basic" else LpMphfPartitioned
    scan = scan_spss(spss, scheme)
    f = cls.build(spss, scheme, scan=scan)
    save_structure(f, args.output)
    elapsed = time.perf_counter() - t0
    sys.stdout.write(stats(spss, f, scan=scan).to_tsv()
                     + f"build_seconds\t{elapsed:.6g}\n")
    return 0


def _cmd_query(args):
    f = load_structure(args.input)
    if args.k is not None and args.k != f.scheme.k:
        raise KMismatch(f"structure k={f.scheme.k}, requested k={args.k}")
    records = read_records(args.queries)   # a file of no record: zero queries
    for c in records:
        if c.size < f.scheme.k:
            raise QueryShorterThanK(
                f"query record of length {c.size} < k={f.scheme.k}")
    out = open(args.output, "w") if args.output else sys.stdout
    total = 0
    try:
        t0 = time.perf_counter()
        if args.random:
            hi, lo = (SpssInput(f.scheme.k, records).kmer_word_arrays() if records
                      else (np.empty(0, np.uint64),) * 2)
            rng = np.random.default_rng(args.seed)
            perm = rng.permutation(hi.size)
            results = [f.lookup_words(hi[perm], lo[perm], checked=args.checked)]
        else:
            results = [f.stream_lookup(c, checked=args.checked) for c in records]
        elapsed = time.perf_counter() - t0
        for vals in results:
            total += vals.size
            out.write("\n".join("-" if v < 0 else str(v) for v in vals.tolist()))
            if vals.size:
                out.write("\n")
    finally:
        if args.output:
            out.close()
    mode = "random" if args.random else "streaming"
    ns = 1e9 * elapsed / total if total else 0.0
    print(f"timing: mode={mode} kmers={total} ns_per_kmer={ns:.1f}",
          file=sys.stderr)
    return 0


def _cmd_stats(args):
    f = load_structure(args.input)
    spss = load_spss(args.spss, f.scheme.k, fmt=args.input_format)
    rep = stats(spss, f)
    sys.stdout.write(rep.to_json() + "\n" if args.format == "json"
                     else rep.to_tsv())
    return 0


def _cmd_theory(args):
    params = TheoryParams(k=args.k, m=args.m, b=args.b, little_oh=args.little_oh)
    w = params.w
    plr, pl, pr, pn = type_probabilities(w)
    print(f"w                      {w}")
    print(f"density 2/(w+1)        {density(w):.6f}")
    print(f"P_lr P_l P_r P_n       {plr:.3f} {pl:.3f} {pr:.3f} {pn:.3f}")
    basic = space_bound_basic(args.n, params, xi=args.xi)
    part = space_bound_partitioned(args.n, params, xi=args.xi)
    print(f"bits basic             {basic:.4f}  ({basic / args.n:.4f}/k-mer)")
    print(f"bits partitioned       {part:.4f}  ({part / args.n:.4f}/k-mer)")
    return 0


def _cmd_gen_spss(args):
    spss = generate_spss(args.length, args.k, seed=args.seed)
    write_fasta(spss, args.output)
    print(f"records={spss.num_strings} n={spss.n} total_length={spss.total_length}")
    return 0


def _cmd_verify(args):
    f = load_structure(args.input)
    spss = load_spss(args.spss, f.scheme.k, fmt=args.input_format)
    ok = True
    if spss.n != f.n:
        print(f"FAIL k-mer count: structure {f.n}, input {spss.n}")
        ok = False
    vals = np.concatenate([f.stream_lookup(c) for c in spss.codes])
    if not np.array_equal(np.sort(vals), np.arange(f.n)):
        print("FAIL bijectivity: lookup values are not a permutation of 0..n-1")
        ok = False
    else:
        print("PASS bijectivity")
    table = f.assigned_values(spss)
    if not np.array_equal(vals, table):
        print("FAIL lookup vs build-side table")
        ok = False
    else:
        print("PASS lookup matches build-side table")
    eps = epsilon_of_values(table, spss)
    lower = spss.fragmentation + 1.0 / spss.n
    if eps + 1e-12 < lower:
        print(f"FAIL epsilon {eps:.6f} below alpha + 1/n = {lower:.6f}")
        ok = False
    else:
        print(f"PASS epsilon {eps:.6f} >= alpha + 1/n")
    return 0 if ok else 2


_COMMANDS = {
    "build": _cmd_build,
    "query": _cmd_query,
    "stats": _cmd_stats,
    "theory": _cmd_theory,
    "gen-spss": _cmd_gen_spss,
    "verify": _cmd_verify,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "m", None) is not None and args.m > args.k:   # across two flags
        parser.error(f"argument -m: {args.m} exceeds k = {args.k}")
    if getattr(args, "length", None) is not None and args.length < args.k:
        parser.error(f"argument --length: {args.length} is below k = {args.k}")
    try:
        return _COMMANDS[args.command](args)
    except (LpmphfError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # pragma: no cover
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
