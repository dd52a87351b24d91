"""The batch lookup pipeline, shared by both layouts: a batch is a plan of
runs of k-mers sharing a minimizer occurrence (a query string's from its
minimizer scan, a random batch's of one k-mer each), `finish_lookup`
resolves one slot per run and `StreamPlan.expand` derives values per run."""

from dataclasses import dataclass
from functools import partial

import numpy as np

from ._build import expand_ranges
from .errors import InvalidBase, KMismatch, QueryShorterThanK
from .kmers import (Kmer, bounded_ints, encode_bases, int_in, kmer_words_at,
                    mix64_inplace, seed_key)
from .minimizers import SuperKmerScan, scan_string

_U64 = np.uint64
_BLOCK_ROWS = 1 << 10
_SCALAR_RUNS = 13   # runs up to which one-at-a-time slot decode beats one vector pass


def kmer_minimizers(hi, lo, scheme):
    """Minimizer value and 1-based position for each packed k-mer.

    Works in blocks of _BLOCK_ROWS k-mers, small enough to stay in cache:
    the w m-mers of a block form one (rows x w) matrix, hashed in place, and
    each row's argmin is its first minimum, the leftmost on ties, matching
    the build-time scan.
    """
    k, m, w = scheme.k, scheme.m, scheme.w
    shifts = (2 * (k - m - np.arange(w))).astype(_U64)  # of m-mer j, from bit 0
    n_hi = max(0, k - m - 31)  # leading columns that lie wholly in hi
    hi_shifts, lo_shifts = shifts[:n_hi] - _U64(64), shifts[n_hi:]
    mask, key = _U64((1 << (2 * m)) - 1), _U64(seed_key(scheme.seed))
    vals, pos = np.empty(hi.size, dtype=_U64), np.empty(hi.size, dtype=np.int64)
    for a in range(0, hi.size, _BLOCK_ROWS):
        rows = slice(a, a + _BLOCK_ROWS)
        v = np.empty((lo[rows].size, w), dtype=_U64)
        v[:, n_hi:] = lo[rows, None] >> lo_shifts
        if k > 32:
            v[:, :n_hi] = hi[rows, None] >> hi_shifts
            # (hi << 1) << (63 - s) is hi << (64 - s) for s > 0, and 0 for s = 0
            v[:, n_hi:] |= (hi[rows, None] << _U64(1)) << (_U64(63) - lo_shifts)
        v &= mask
        arg = mix64_inplace(v ^ key).argmin(axis=1)
        vals[rows] = np.take_along_axis(v, arg[:, None], 1)[:, 0]
        pos[rows] = arg + 1
    return vals, pos


def resolve_kmer_input(x, k):
    """A Kmer, DNA str or bytes, or packed integer as one packed int."""
    if isinstance(x, (str, bytes)):
        x = Kmer.from_string(x)
    if isinstance(x, Kmer):
        if x.k != k:
            raise KMismatch(f"k-mer length {x.k} != structure k={k}")
        return x.value
    return int_in("packed value", x, 0, 4 ** k - 1, error=KMismatch)   # Kmer's rule


def run_misses(p1s, sizes, p1, length=1):
    """The miss rule: does a run of `length` k-mers from minimizer position p1
    leave its slot's super-k-mer (a rank p1s - p1 + 1 + i outside [1, size])?"""
    return (p1 > p1s) | (sizes - p1s + p1 < length)


@dataclass
class StreamPlan:
    """Runs of a batch, and `words(idx)`: the packed (hi, lo) words of the
    batch's k-mers at `idx`."""

    scan: SuperKmerScan
    words: object

    def expand(self, base, p1s, sizes, struct, checked):
        """Values from per-run slot data: k-mer t of run j gets
        base_j + p1s_j - p1_j - kmer_base_j + t, or n_unambiguous + fallback(x)
        when its slot has size 0 (an ambiguous minimizer's). Misses are found
        per run; in checked mode, only runs that miss get a per-k-mer mask."""
        runs = self.scan
        fb = sizes == 0
        rl, first = runs.sizes, runs.kmer_base
        out = np.repeat(base + p1s - runs.p1 - first, rl)
        out += np.arange(runs.n)
        if np.any(fb):
            idx = expand_ranges(first[fb], rl[fb])
            hi, lo = self.words(idx)
            out[idx] = struct.n_unambiguous + struct.fallback.evaluate_many(lo, hi)
        bad = ~fb & run_misses(p1s, sizes, runs.p1, rl)
        if not np.any(bad):
            return out
        if not checked:
            return np.clip(out, 0, struct.n - 1, out=out)
        j = np.repeat(np.flatnonzero(bad), rl[bad])   # run of each k-mer
        idx = expand_ranges(first[bad], rl[bad])
        out[idx[run_misses(p1s[j], sizes[j], runs.p1[j] + first[j] - idx)]] = -1
        return out


def stream_plan(q, scheme):
    """A query's plan: its bases as str or bytes, or integer codes in [0, 3]."""
    codes = (encode_bases(q) if isinstance(q, (str, bytes))
             else bounded_ints(q, 3, np.uint8))
    if codes is None:
        raise InvalidBase("query codes must be a 1-D integer array in [0, 3]")
    if codes.size < scheme.k:
        raise QueryShorterThanK(f"query length {codes.size} < k={scheme.k}")
    return StreamPlan(scan=scan_string(codes, scheme),
                      words=partial(kmer_words_at, codes, scheme.k))


def kmer_plan(hi, lo, mvals, p):
    """Packed k-mers with minimizers `mvals` at positions `p`: one-k-mer runs."""
    runs = SuperKmerScan(kmer_base=np.arange(p.size), sizes=np.ones_like(p),
                         p1=p, minvals=mvals, n=p.size)
    return StreamPlan(scan=runs, words=lambda idx: (hi[idx], lo[idx]))


def finish_lookup(plan, struct, checked):
    """Values of a plan's k-mers. Up to _SCALAR_RUNS runs resolve their slots
    one at a time on Python ints (as `lookup` does), more in one vector pass;
    fallback k-mers are always evaluated in one vector pass."""
    mvals = plan.scan.minvals
    if mvals.size <= _SCALAR_RUNS:
        rows = [struct._slot_param(struct.fm.evaluate(v)) for v in mvals.tolist()]
        base, p1s, sizes = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    else:
        base, p1s, sizes = struct._slot_params(struct.fm.evaluate_many(mvals))
    return plan.expand(base, p1s, sizes, struct, checked)
