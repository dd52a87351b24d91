"""Random minimizers, super-k-mer decomposition, and the ambiguity census.

A k-mer's minimizer is its m-mer with the smallest seeded hash, leftmost on
ties. Super-k-mers are maximal runs of consecutive k-mers sharing the same
minimizer *occurrence* (same m-mer at the same absolute offset), which is
what makes the in-run position arithmetic sound even when one m-mer value
appears twice inside a window.

The production scan is vectorized over the concatenated strings: pack every
m-mer, hash them, and find the runs of consecutive windows of w m-mers that
share their leftmost argmin. A k-mer starts a super-k-mer where its window
starts a run or it is its string's first k-mer (a window straddling two
strings is no k-mer). The hash and the runs are computed per block of
`_SCAN_BLOCK` windows, whose hashes (the block's m-mers plus the w - 1 that
its last windows reach into) stay in cache across the passes; a block's
first window starts a run only if it leaves the run before the block. The
per-k-mer recomputation used by the tests is an independent oracle.

The runs are event-driven. Let r = w - 1, m[i] = min h[i : i+r] and p(j)
the leftmost argmin position of window j = h[j : j+w]. Two events:
(a) h[j] <= m[j+1]: p(j) = j, leftmost on a tie;
(b) h[j+r] < m[j]: the entering value beats every other, p(j) = j + r.
They never hold at one j, since r >= 1 (h[j+r] < m[j] <= h[j] <= m[j+1] <=
h[j+r] would follow). p never decreases, and p(j) != p(j-1) exactly when
(b) holds at j or (a) held at j-1: (a) at j-1 means p(j-1) = j-1, which has
left window j; (b) at j puts p(j) = j + r, past p(j-1); otherwise p(j-1) >=
j is still in window j and nothing smaller has entered, so p(j) = p(j-1).
So runs start at j = 0 and wherever (b) holds at j or (a) at j-1, and a run
starting at j has p(j) = j + r under (b), j under (a), and otherwise j plus
the argmin of window j, computed directly. m costs ceil(log2 r)
`np.minimum` passes over contiguous slices, by doubling; the events cost
O(1) passes more and the gathered argmin about n/w rows of w values, so a
scan is O(n log w), with no per-window loop and no per-window position.

`kmer_minimizer` (scalar `lookup`) hashes all w m-mers in lanes of L = 128
bits of one int: the k-mer times sum_i 2^((L + 2) i) holds non-overlapping
copies (2k < L + 2), so shifted by 2(w - 1) lane i holds the m-mer at i + 1.
Every shift is masked to 64 bits per lane, so each 64x64-bit splitmix64
product stays below 2^L and never carries into the next lane.
"""

import math
import struct
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import LengthOutOfRange
from .kmers import (_MASK64, MAX_K, MAX_M, MIX_M1, MIX_M2, MIX_S1, MIX_S2,
                    MIX_S3, hash_mmer_array, int_in, packed_windows, seed_key)

__all__ = [
    "MinimizerScheme", "MinimizerCensus", "census", "default_minimizer_length",
    "MinimizerDensityWarning",
]


class MinimizerDensityWarning(UserWarning):
    """m is too small for the 2/(w+1) density regime."""


@dataclass(frozen=True)
class MinimizerScheme:
    """The (k, m, seed) triple, seed in [0, 2^64); w = k - m + 1 m-mers per k-mer."""

    k: int
    m: int
    seed: int = 0

    def __post_init__(self):
        k = int_in("k", self.k, 1, MAX_K)
        object.__setattr__(self, "k", k)   # frozen: stored as Python ints
        object.__setattr__(self, "m", int_in("m", self.m, 1, min(k, MAX_M)))
        object.__setattr__(self, "seed", int_in("seed", self.seed, 0, 2 ** 64 - 1))

    @property
    def w(self):
        return self.k - self.m + 1

    def density_condition_ok(self):
        """m > 3*log4(w+1), the regime where density ~ 2/(w+1)."""
        return self.m > 3 * math.log(self.w + 1, 4)

    @cached_property
    def _lanes(self):
        """The constants of `kmer_minimizer`, in lanes of L = 128 bits."""
        L, w, mask = 128, self.w, (1 << (2 * self.m)) - 1
        ones = sum(1 << (L * i) for i in range(w))
        spread = sum(1 << ((L + 2) * i) for i in range(w))
        return (spread, 2 * (w - 1), ones * mask, ones * seed_key(self.seed),
                ones * _MASK64, mask, struct.Struct("<" + "Q8x" * w))


def default_minimizer_length(k, total_length):
    """Default m: max of ceil(log4(N)) and the density-condition threshold."""
    m_n = max(1, math.ceil(math.log(max(total_length, 4), 4)))
    m_d = next((m for m in range(1, min(k, MAX_M) + 1)
                if MinimizerScheme(k, m).density_condition_ok()), 1)
    return min(max(m_n, m_d), k, MAX_M)


def kmer_minimizer(value, scheme):
    """(m-mer, 1-based position) of a packed k-mer's minimizer, in lanes."""
    spread, shift, mmers, key, low64, mask, lanes = scheme._lanes
    x = (value * spread >> shift & mmers) ^ key
    x ^= x >> MIX_S1 & low64
    x = x * MIX_M1 & low64
    x ^= x >> MIX_S2 & low64
    x = x * MIX_M2 & low64
    x ^= x >> MIX_S3   # bits from the next lane land above the low word
    hs = lanes.unpack(x.to_bytes(lanes.size, "little"))
    i = hs.index(min(hs))
    return value >> (shift - 2 * i) & mask, i + 1


# --- vectorized scan ------------------------------------------------------------

_SCAN_BLOCK = 1 << 15   # windows per block of the hash and the window argmin
_DIRECT_ARGMIN = 512    # windows up to which one strided argmin beats the events


@dataclass
class SuperKmerScan:
    """Super-k-mer arrays of scanned strings, in input order.

    `kmer_base` holds, per super-k-mer, the index of its first k-mer among
    the k-mers of all scanned strings, concatenated in input order.
    """

    kmer_base: np.ndarray   # first k-mer index per super-k-mer
    sizes: np.ndarray       # k-mer count per super-k-mer
    p1: np.ndarray          # 1-based minimizer position in first k-mer
    minvals: np.ndarray     # packed minimizer values (uint64)
    n: int                  # k-mer count

    @property
    def num_superkmers(self):
        return self.sizes.size


def _window_min(h, r):
    """min h[i : i+r] for every i in [0, len(h) - r], r >= 1, by doubling:
    spans 1, 2, 4, ... each the minimum of two halves, then one pass joining
    two overlapping spans when r is not a power of two; every pass reads
    contiguous slices and writes into one reused buffer."""
    m, span, size = h, 1, h.size
    buf = np.empty(size, h.dtype)
    while 2 * span <= r:
        size -= span
        m = np.minimum(m[:size], m[span:span + size], out=buf[:size])
        span *= 2
    if span < r:
        size -= r - span
        m = np.minimum(m[:size], m[r - span:r - span + size], out=buf[:size])
    return m


def _window_runs(h, w):
    """(bounds, occ): run i of the length-w windows of h covers windows
    bounds[i] .. bounds[i+1] - 1 (bounds ends with the window count) and has
    leftmost argmin position occ[i]. Found by the module docstring's events,
    or by one strided argmin up to `_DIRECT_ARGMIN` windows or at w = 1."""
    nwin, r = h.size - w + 1, w - 1
    rows = np.ndarray((nwin, w), h.dtype, h, strides=(h.itemsize,) * 2)
    st = np.empty(nwin + 1, dtype=bool)   # run starts, and nwin to close the last
    st[0] = st[nwin] = True
    if nwin <= _DIRECT_ARGMIN or w == 1:
        offset = rows.argmin(axis=1)   # p(j) = j + offset[j]
        np.not_equal(offset[1:] + 1, offset[:-1], out=st[1:nwin])
        bounds = np.flatnonzero(st)
        return bounds, bounds[:-1] + offset[bounds[:-1]]
    m = _window_min(h, r)
    a = h[:nwin] <= m[1:]
    b = h[r:] < m[:-1]
    np.logical_or(b[1:], a[:-1], out=st[1:nwin])
    bounds = np.flatnonzero(st)
    starts = bounds[:-1]
    bs = b[starts]
    occ = starts + r * bs
    c = ~(bs | a[starts])   # neither event: p(j) = j + the argmin of window j
    occ[c] += rows[starts[c]].argmin(axis=1)
    return bounds, occ


def _runs(codes, scheme):
    """(bounds, occ, mvals): `_window_runs` over the k-windows of `codes` per
    block, and the m-mers. A block's window 0 starts no run if it continues
    the last one (`last`, kept apart: a block can lie inside one run)."""
    mvals = packed_windows(codes, scheme.m)   # uint32 for m <= 16
    n, w, seed = codes.size - scheme.k + 1, scheme.w, scheme.seed
    if n <= _SCAN_BLOCK:
        return (*_window_runs(hash_mmer_array(mvals, seed), w), mvals)
    starts, occs, last = [], [], -1
    for s in range(0, n, _SCAN_BLOCK):   # windows s .. s + block - 1
        bounds, occ = _window_runs(
            hash_mmer_array(mvals[s:s + _SCAN_BLOCK + w - 1], seed), w)
        occ += s
        cut, last = int(occ[0] == last), occ[-1]
        starts.append(bounds[cut:-1] + s)
        occs.append(occ[cut:])
    return np.concatenate([*starts, [n]]), np.concatenate(occs), mvals


def _superkmers(bounds, occ, mvals, first=None):
    """Super-k-mers starting at k-mers bounds[:-1] (closed by the k-mer count)
    and windows `first` (default: the same), their minimizers at `occ`."""
    starts = bounds[:-1]
    first = starts if first is None else first
    return SuperKmerScan(kmer_base=starts, sizes=bounds[1:] - starts,
                         p1=occ - first + 1,
                         minvals=mvals[occ].astype(np.uint64), n=int(bounds[-1]))


def scan_string(codes, scheme):
    """Decompose one encoded string (of length >= k) into super-k-mer arrays."""
    return _superkmers(*_runs(codes, scheme))


def scan_spss(spss, scheme):
    """Decompose every string of the SPSS in one pass over its joined codes."""
    if scheme.k != spss.k:
        raise LengthOutOfRange(f"scheme k={scheme.k} != SPSS k={spss.k}")
    bounds, occ, mvals = _runs(spss.joined_codes, scheme)
    if spss.num_strings == 1:
        return _superkmers(bounds, occ, mvals)
    kmers = spss.kmer_positions()
    start = np.zeros(bounds[-1], dtype=bool)
    start[bounds[:-1]] = True
    start = start[kmers]
    start[spss.kmer_starts] = True
    first = np.flatnonzero(start)
    windows = kmers[first]   # the occurrence is that of the run holding each
    occ = occ[np.searchsorted(bounds, windows, side="right") - 1]
    return _superkmers(np.append(first, spss.n), occ, mvals, windows)


# --- census ---------------------------------------------------------------------

@dataclass
class MinimizerCensus:
    """Per-minimizer super-k-mer counts over the whole SPSS.

    distinct/counts are aligned sorted arrays; a minimizer is ambiguous iff
    it owns more than one super-k-mer. `inverse` holds, per scanned
    super-k-mer, its minimizer's index in `distinct`. xi is the fraction of
    k-mers living in ambiguous super-k-mers.
    """

    distinct: np.ndarray
    counts: np.ndarray
    inverse: np.ndarray
    xi: float

    @property
    def num_minimizers(self):
        return self.distinct.size


def census_from_scan(scan):
    distinct, inverse, counts = np.unique(
        scan.minvals, return_inverse=True, return_counts=True)
    amb_skm = counts[inverse] > 1
    xi = float(scan.sizes[amb_skm].sum()) / scan.n if scan.n else 0.0
    return MinimizerCensus(distinct=distinct, counts=counts, inverse=inverse,
                           xi=xi)


def census(spss, scheme):
    """Count super-k-mers per minimizer value and measure xi."""
    return census_from_scan(scan_spss(spss, scheme))


def warn_if_density_condition_violated(scheme):
    if not scheme.density_condition_ok():
        warnings.warn(
            f"m={scheme.m} <= 3*log4(w+1) for w={scheme.w}; the 2/(w+1) "
            "density estimate (and the space bounds) may be off",
            MinimizerDensityWarning, stacklevel=3)
