"""Shared assembly and lookup plumbing for the two hash-structure variants.

Both variants hash every distinct minimizer (ambiguous ones included) with
the same inner MPHF and lay their per-super-k-mer data out in that slot
order; ambiguous slots carry a size-0 sentinel and their k-mers live in a
fallback MPHF placed after all positionally-ranked k-mers.

A k-mer that occurs twice has the same minimizer at the same in-k-mer
position both times, so its two copies lie in two super-k-mers sharing one
minimizer value: that minimizer is ambiguous and both copies reach the
fallback MPHF, whose distinctness check makes the build reject the input.

The super-k-mers come from one scan over the concatenated strings
(`minimizers.scan_spss`) and name their k-mers by index in input order;
`SpssInput.kmer_positions` maps those indices into the joined codes, so
the fallback's k-mer words are one gather over all strings.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DuplicateKey, DuplicateKmer
from .kmers import Kmer, kmer_words_at, mix64
from .minimizers import census_from_scan
from .mphf import GeneralMphf

_FM_SALT = 0x5B1D5EEDDEADBEEF
_FB_SALT = 0xFA11BACC0FFEE123


@dataclass
class SlotAssembly:
    """Per-minimizer-slot data in inner-MPHF order."""

    fm: GeneralMphf
    slot_sizes: np.ndarray       # super-k-mer size per slot, 0 when ambiguous
    slot_p1: np.ndarray          # first-k-mer minimizer position, 0 when ambiguous
    slot_ambiguous: np.ndarray   # bool per slot
    skm_ambiguous: np.ndarray    # bool per super-k-mer
    n_unambiguous: int


def assemble_slots(scan, seed):
    census = census_from_scan(scan)
    fm = GeneralMphf.build(census.distinct, seed=mix64(seed ^ _FM_SALT))
    slot_of_distinct = fm.evaluate_many(census.distinct)
    inverse = np.searchsorted(census.distinct, scan.minvals)
    fm_of_skm = slot_of_distinct[inverse]
    amb_distinct = census.counts > 1
    skm_ambiguous = amb_distinct[inverse]
    m = census.distinct.size
    slot_sizes = np.zeros(m, dtype=np.int64)
    slot_p1 = np.zeros(m, dtype=np.int64)
    keep = ~skm_ambiguous
    slot_sizes[fm_of_skm[keep]] = scan.sizes[keep]
    slot_p1[fm_of_skm[keep]] = scan.p1[keep]
    slot_ambiguous = np.zeros(m, dtype=bool)
    slot_ambiguous[slot_of_distinct[amb_distinct]] = True
    return SlotAssembly(
        fm=fm, slot_sizes=slot_sizes, slot_p1=slot_p1,
        slot_ambiguous=slot_ambiguous, skm_ambiguous=skm_ambiguous,
        n_unambiguous=int(scan.sizes[keep].sum()))


def expand_ranges(starts, lengths):
    """Concatenate arange(s, s+l) for every (s, l) pair."""
    lengths = np.asarray(lengths, dtype=np.int64)
    shift = np.cumsum(lengths) - lengths - np.asarray(starts, dtype=np.int64)
    return np.arange(int(lengths.sum()), dtype=np.int64) - np.repeat(shift, lengths)


def ambiguous_kmer_words(spss, scan, skm_ambiguous):
    """(hi, lo) packed words of every k-mer inside an ambiguous super-k-mer,
    in SPSS order: one gather from the joined codes."""
    kmers = expand_ranges(scan.kmer_base[skm_ambiguous],
                          scan.sizes[skm_ambiguous])
    return kmer_words_at(spss.joined_codes, spss.k, spss.kmer_positions(kmers))


def build_fallback(spss, scan, skm_ambiguous, seed):
    hi, lo = ambiguous_kmer_words(spss, scan, skm_ambiguous)
    try:
        return GeneralMphf.build(lo, hi, seed=mix64(seed ^ _FB_SALT))
    except DuplicateKey as e:
        raise DuplicateKmer(f"k-mer {Kmer(spss.k, e.key)} occurs more than "
                            "once in the input") from e


def run_misses(p1s, sizes, p1, length=1):
    """The miss rule: does a run of `length` k-mers from minimizer position p1
    leave its slot's super-k-mer (a rank p1s - p1 + 1 + i outside [1, size])?"""
    return (p1 > p1s) | (sizes - p1s + p1 < length)


def finish_lookup(base, p1s, sizes, p, fb_mask, fb_words, struct, checked):
    """Combine slot parameters into final hash values.

    base/p1s/sizes are per-element slot data, p the query minimizer position,
    fb_mask the elements routed to the fallback MPHF, fb_words a callable
    returning (hi, lo) for exactly those elements.
    """
    out = base + p1s - p
    if np.any(fb_mask):
        fhi, flo = fb_words()
        out[fb_mask] = struct.n_unambiguous + struct.fallback.evaluate_many(flo, fhi)
    miss = ~fb_mask & run_misses(p1s, sizes, p)
    if checked:
        out[miss] = -1
    elif np.any(miss):
        np.clip(out, 0, struct.n - 1, out=out)
    return out
