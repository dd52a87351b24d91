"""Query-side minimizer computation shared by both structure variants."""

from dataclasses import dataclass

import numpy as np

from ._build import finish_lookup
from .errors import KMismatch, QueryShorterThanK
from .kmers import Kmer, encode_bases, hash_mmer_array, kmer_words_at
from .minimizers import scan_string

_U64 = np.uint64
_FULL64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def kmer_minimizers(hi, lo, scheme):
    """Minimizer value and 1-based position for each packed k-mer.

    Scans the w m-mers of every k-mer; ties break to the leftmost, matching
    the build-time scan.
    """
    k, m, w = scheme.k, scheme.m, scheme.w
    mask = _FULL64 if 2 * m == 64 else _U64((1 << (2 * m)) - 1)
    best_h = np.full(hi.size, _FULL64, dtype=_U64)
    best_v = np.zeros(hi.size, dtype=_U64)
    best_p = np.zeros(hi.size, dtype=np.int64)
    for j in range(w):
        shift = 2 * (k - m - j)
        if shift >= 64:
            v = (hi >> _U64(shift - 64)) & mask
        elif shift == 0:
            v = lo & mask
        else:
            v = ((lo >> _U64(shift)) | (hi << _U64(64 - shift))) & mask
        h = hash_mmer_array(v, scheme.seed)
        better = h < best_h
        best_h[better] = h[better]
        best_v[better] = v[better]
        best_p[better] = j + 1
    return best_v, best_p


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
    k-mers sharing a minimizer occurrence, values re-derived by position."""

    codes: np.ndarray
    k: int
    scan: object

    def expand(self, base, p1s, sizes, fb, struct, checked):
        runs = self.scan
        rl = runs.sizes  # run lengths on the query side
        # minimizer position of each k-mer: p1 - (index - first index of run)
        p = np.repeat(runs.p1 + runs.kmer_base, rl) - np.arange(runs.n)
        base_e = np.repeat(base, rl)
        p1_e = np.repeat(p1s, rl)
        size_e = np.repeat(sizes, rl)
        fb_e = np.repeat(fb, rl)

        def fb_words():
            positions = np.flatnonzero(fb_e)
            return kmer_words_at(self.codes, self.k, positions)

        return finish_lookup(base_e, p1_e, size_e, p, fb_e, fb_words,
                             struct, checked)


def stream_plan(q, scheme):
    codes = encode_bases(q) if isinstance(q, str) else q
    if codes.size < scheme.k:
        raise QueryShorterThanK(
            f"query length {codes.size} < k={scheme.k}")
    return StreamPlan(codes=codes, k=scheme.k, scan=scan_string(codes, scheme))
