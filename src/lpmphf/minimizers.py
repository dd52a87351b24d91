"""Random minimizers, super-k-mer decomposition, and the ambiguity census.

A k-mer's minimizer is its m-mer with the smallest seeded hash, leftmost on
ties. Super-k-mers are maximal runs of consecutive k-mers sharing the same
minimizer *occurrence* (same m-mer at the same absolute offset), which is
what makes the in-run position arithmetic sound even when one m-mer value
appears twice inside a window.

The production scan is vectorized: per-window leftmost argmin over the
m-mer hash array. The per-k-mer recomputation used by the test suite lives
in the tests as an independent oracle.
"""

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import LengthOutOfRange, StringShorterThanK
from .kmers import (MAX_K, MAX_M, Kmer, encode_bases, hash_mmer_array, mix64,
                    seed_key, window_values)

__all__ = [
    "MinimizerScheme", "MinimizerHit", "SuperKmerRecord", "MinimizerCensus",
    "minimizer", "split_superkmers", "census", "default_minimizer_length",
    "MinimizerDensityWarning",
]


class MinimizerDensityWarning(UserWarning):
    """m is too small for the 2/(w+1) density regime."""


@dataclass(frozen=True)
class MinimizerScheme:
    """The (k, m, seed) triple; w = k - m + 1 m-mers per k-mer."""

    k: int
    m: int
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.k <= MAX_K:
            raise LengthOutOfRange(f"k={self.k} outside [1, {MAX_K}]")
        if not 1 <= self.m <= min(self.k, MAX_M):
            raise LengthOutOfRange(
                f"m={self.m} outside [1, min(k, {MAX_M})] for k={self.k}")

    @property
    def w(self):
        return self.k - self.m + 1

    def density_condition_ok(self):
        """m > 3*log4(w+1), the regime where density ~ 2/(w+1)."""
        return self.m > 3 * math.log(self.w + 1, 4)


def default_minimizer_length(k, total_length):
    """Default m: max of ceil(log4(N)) and the density-condition threshold."""
    m_n = max(1, math.ceil(math.log(max(total_length, 4), 4)))
    m_d = 1
    for m in range(1, k + 1):
        if m > 3 * math.log(k - m + 2, 4):
            m_d = m
            break
    return min(max(m_n, m_d), k, MAX_M)


@dataclass(frozen=True)
class MinimizerHit:
    """Minimizer value and its 1-based start position within the k-mer."""

    mmer: int
    pos: int


@dataclass(frozen=True)
class SuperKmerRecord:
    """One super-k-mer: minimizer value, k-mer count, and provenance.

    `p1` is the minimizer's 1-based start position in the record's first
    k-mer; `start_offset` the index of that first k-mer within its string.
    Property: size <= p1 <= w.
    """

    minimizer: int
    size: int
    p1: int
    string_id: int = 0
    start_offset: int = 0


def minimizer(x, scheme):
    """Minimizer of a single k-mer: smallest hash, leftmost on ties."""
    if isinstance(x, str):
        x = Kmer.from_string(x)
    if x.k != scheme.k:
        raise LengthOutOfRange(f"k-mer length {x.k} != scheme k={scheme.k}")
    key = seed_key(scheme.seed)
    mask = (1 << (2 * scheme.m)) - 1
    value, shift = x.value, 2 * (scheme.k - scheme.m)
    best = None
    for p in range(1, scheme.w + 1):
        mm = (value >> shift) & mask
        h = mix64(mm ^ key)
        if best is None or h < best[0]:
            best = (h, mm, p)
        shift -= 2
    return MinimizerHit(mmer=best[1], pos=best[2])


# --- vectorized scan ------------------------------------------------------------

@dataclass
class StringScan:
    """Super-k-mer arrays for one string (k-mer indices are 0-based)."""

    starts: np.ndarray      # first k-mer index per super-k-mer
    sizes: np.ndarray       # k-mer count per super-k-mer
    p1: np.ndarray          # 1-based minimizer position in first k-mer
    minvals: np.ndarray     # packed minimizer values (uint64)
    n_kmers: int


def scan_string(codes, scheme):
    """Decompose one encoded string into super-k-mer arrays."""
    k, m, w = scheme.k, scheme.m, scheme.w
    if codes.size < k:
        raise StringShorterThanK(f"string length {codes.size} < k={k}")
    n_kmers = codes.size - k + 1
    mvals = window_values(codes, m)
    hashes = hash_mmer_array(mvals, scheme.seed)
    if w == 1:
        occ = np.arange(n_kmers, dtype=np.int64)
    else:
        occ = sliding_window_view(hashes, w).argmin(axis=1).astype(np.int64)
        occ += np.arange(n_kmers, dtype=np.int64)
    change = np.empty(n_kmers, dtype=bool)
    change[0] = True
    np.not_equal(occ[1:], occ[:-1], out=change[1:])
    starts = np.flatnonzero(change).astype(np.int64)
    sizes = np.diff(np.append(starts, n_kmers)).astype(np.int64)
    p1 = occ[starts] - starts + 1
    return StringScan(starts=starts, sizes=sizes, p1=p1,
                      minvals=mvals[occ[starts]], n_kmers=n_kmers)


@dataclass
class SpssScan:
    """Concatenated per-string scans over a whole SPSS.

    `kmer_base` holds, per super-k-mer, the global index of its first k-mer
    (strings concatenated in input order); `string_id` its source string.
    """

    starts: np.ndarray
    sizes: np.ndarray
    p1: np.ndarray
    minvals: np.ndarray
    string_id: np.ndarray
    kmer_base: np.ndarray
    string_kmers: np.ndarray   # k-mer count per string
    n: int

    @property
    def num_superkmers(self):
        return self.sizes.size


def scan_spss(spss, scheme, threads=1):
    """Scan every string of the SPSS; deterministic merge in string order."""
    if scheme.k != spss.k:
        raise LengthOutOfRange(f"scheme k={scheme.k} != SPSS k={spss.k}")
    if threads > 1 and len(spss.codes) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            scans = list(pool.map(lambda c: scan_string(c, scheme), spss.codes))
    else:
        scans = [scan_string(c, scheme) for c in spss.codes]
    string_kmers = np.array([s.n_kmers for s in scans], dtype=np.int64)
    bases = np.concatenate([[0], np.cumsum(string_kmers)[:-1]])
    string_id = np.concatenate(
        [np.full(s.starts.size, i, dtype=np.int64) for i, s in enumerate(scans)])
    kmer_base = np.concatenate(
        [s.starts + bases[i] for i, s in enumerate(scans)])
    return SpssScan(
        starts=np.concatenate([s.starts for s in scans]),
        sizes=np.concatenate([s.sizes for s in scans]),
        p1=np.concatenate([s.p1 for s in scans]),
        minvals=np.concatenate([s.minvals for s in scans]),
        string_id=string_id,
        kmer_base=kmer_base,
        string_kmers=string_kmers,
        n=int(string_kmers.sum()),
    )


def split_superkmers(s, scheme, string_id=0):
    """Super-k-mer records of one DNA string, tiling its k-mers in order."""
    codes = encode_bases(s) if isinstance(s, str) else s
    scan = scan_string(codes, scheme)
    return [
        SuperKmerRecord(minimizer=int(scan.minvals[i]), size=int(scan.sizes[i]),
                        p1=int(scan.p1[i]), string_id=string_id,
                        start_offset=int(scan.starts[i]))
        for i in range(scan.sizes.size)
    ]


# --- census ---------------------------------------------------------------------

@dataclass
class MinimizerCensus:
    """Per-minimizer super-k-mer counts over the whole SPSS.

    distinct/counts are aligned sorted arrays; a minimizer is ambiguous iff
    it owns more than one super-k-mer. xi is the fraction of k-mers living
    in ambiguous super-k-mers.
    """

    distinct: np.ndarray
    counts: np.ndarray
    xi: float
    n: int

    @property
    def num_minimizers(self):
        return self.distinct.size

    @property
    def ambiguous_values(self):
        return self.distinct[self.counts > 1]

    @property
    def num_ambiguous(self):
        return int(np.count_nonzero(self.counts > 1))

    def count(self, mmer):
        i = np.searchsorted(self.distinct, np.uint64(mmer))
        if i < self.distinct.size and self.distinct[i] == np.uint64(mmer):
            return int(self.counts[i])
        return 0

    def is_ambiguous(self, mmer):
        return self.count(mmer) > 1


def census_from_scan(scan):
    distinct, inverse, counts = np.unique(
        scan.minvals, return_inverse=True, return_counts=True)
    amb_skm = counts[inverse] > 1
    xi = float(scan.sizes[amb_skm].sum()) / scan.n if scan.n else 0.0
    return MinimizerCensus(distinct=distinct, counts=counts, xi=xi, n=scan.n)


def census(spss, scheme, threads=1):
    """Count super-k-mers per minimizer value and measure xi."""
    return census_from_scan(scan_spss(spss, scheme, threads=threads))


def warn_if_density_condition_violated(scheme):
    if not scheme.density_condition_ok():
        warnings.warn(
            f"m={scheme.m} <= 3*log4(w+1) for w={scheme.w}; the 2/(w+1) "
            "density estimate (and the space bounds) may be off",
            MinimizerDensityWarning, stacklevel=3)
