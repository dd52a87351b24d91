"""Query-side minimizers and streaming run expansion, shared by both layouts."""

from dataclasses import dataclass

import numpy as np

# finish_lookup is unused here; bench/tracing.py wraps it here too.
from ._build import expand_ranges, finish_lookup, run_misses  # noqa: F401
from .errors import KMismatch, QueryShorterThanK
from .kmers import Kmer, encode_bases, kmer_words_at, mix64_inplace, seed_key
from .minimizers import scan_string

_U64 = np.uint64
_BLOCK_ROWS = 1 << 10


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
    """Normalize a Kmer, DNA string, or packed int into one packed int."""
    if isinstance(x, str):
        x = Kmer.from_string(x)
    if isinstance(x, Kmer):
        if x.k != k:
            raise KMismatch(f"k-mer length {x.k} != structure k={k}")
        return x.value
    value = int(x)
    if not 0 <= value < (1 << (2 * k)):
        raise KMismatch(f"packed value out of range for k={k}")
    return value


@dataclass
class StreamPlan:
    """Run decomposition of a query string: one slot resolution per run of
    k-mers sharing a minimizer occurrence, values derived per run."""

    codes: np.ndarray
    k: int
    scan: object

    def expand(self, base, p1s, sizes, fb, struct, checked):
        """Values from per-run slot data: k-mer t of run j gets
        base_j + p1s_j - p1_j - kmer_base_j + t. Misses are found per run;
        in checked mode, only runs that miss get a per-k-mer mask."""
        runs = self.scan
        rl, first = runs.sizes, runs.kmer_base
        out = np.repeat(base + p1s - runs.p1 - first, rl)
        out += np.arange(runs.n)
        if np.any(fb):
            idx = expand_ranges(first[fb], rl[fb])
            hi, lo = kmer_words_at(self.codes, self.k, idx)
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
    codes = encode_bases(q) if isinstance(q, str) else q
    if codes.size < scheme.k:
        raise QueryShorterThanK(
            f"query length {codes.size} < k={scheme.k}")
    return StreamPlan(codes=codes, k=scheme.k, scan=scan_string(codes, scheme))
