"""Spectrum-preserving string set ingestion and test-data generation.

The input model: an ordered list of DNA strings, each of length >= k, whose
k-mers are all distinct across the whole set. Loading checks the alphabet,
the FASTA syntax and the string lengths, not distinctness: building a
structure over the set raises DuplicateKmer on a repeated k-mer.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (GenerationFailure, LengthOutOfRange, MalformedFasta,
                     StringShorterThanK)
from .kmers import (MAX_K, decode_bases, encode_bases, first_duplicate,
                    kmer_words)

__all__ = ["SpssInput", "load_spss", "spss_from_strings", "generate_spss", "write_fasta"]


@dataclass
class SpssInput:
    """Ordered SPSS strings in encoded form, plus global counts.

    n is the total k-mer count (= distinct count under the SPSS assumption)
    and total_length the cumulative base count N. Distinctness is not
    checked here; the build checks it.

    The strings form one sequence of k-mers, numbered in input order.
    `joined_codes` concatenates the strings, and k-mer g starts at position
    g + (k-1)*s of it, s being the string of k-mer g (`kmer_positions`);
    this class is the only code that knows that mapping. `kmer_starts`
    holds the index of each string's first k-mer.
    """

    k: int
    codes: list = field(repr=False)
    n: int = field(init=False)
    total_length: int = field(init=False)

    def __post_init__(self):
        if not 1 <= self.k <= MAX_K:
            raise LengthOutOfRange(f"k={self.k} outside [1, {MAX_K}]")
        if not self.codes:
            raise MalformedFasta("an SPSS needs at least one string")
        for i, c in enumerate(self.codes):
            if c.size < self.k:
                raise StringShorterThanK(
                    f"string {i} has length {c.size} < k={self.k}")
        kmers = np.array([c.size - self.k + 1 for c in self.codes],
                         dtype=np.int64)
        self.kmer_starts = np.cumsum(kmers) - kmers
        self.n = int(kmers.sum())
        self.total_length = sum(c.size for c in self.codes)

    @property
    def num_strings(self):
        return len(self.codes)

    @property
    def strings(self):
        """Decoded DNA strings (built on demand)."""
        return [decode_bases(c) for c in self.codes]

    @property
    def fragmentation(self):
        """alpha = (|S| - 1) / n."""
        return (len(self.codes) - 1) / self.n

    @cached_property
    def joined_codes(self):
        """The codes of every string, concatenated in input order."""
        return self.codes[0] if len(self.codes) == 1 else np.concatenate(self.codes)

    def kmer_positions(self, g=None):
        """Start positions in `joined_codes` of the k-mers with indices g
        (default: all, in order; an index, not an array, for one string)."""
        if len(self.codes) == 1:
            return slice(None) if g is None else g
        if g is None:
            return np.arange(self.n) + (self.k - 1) * np.repeat(
                np.arange(len(self.codes)), np.diff(self.kmer_starts, append=self.n))
        string = np.searchsorted(self.kmer_starts, g, side="right") - 1
        return g + (self.k - 1) * string

    def kmer_word_arrays(self):
        """(hi, lo) packed words of every k-mer, concatenated in input order."""
        hi, lo = kmer_words(self.joined_codes, self.k)
        pos = self.kmer_positions()
        return hi[pos], lo[pos]


def spss_from_strings(strings, k):
    """Build an SpssInput from in-memory DNA strings."""
    return SpssInput(k=k, codes=[encode_bases(s) for s in strings])


def _read_fasta(stream):
    records = []
    header_seen = False
    parts = []
    for lineno, line in enumerate(stream, 1):
        line = line.rstrip("\r\n")
        if not line:
            continue
        if line.startswith(">"):
            if header_seen:
                if not parts:
                    raise MalformedFasta(f"empty record before line {lineno}")
                records.append("".join(parts))
                parts = []
            header_seen = True
        else:
            if not header_seen:
                raise MalformedFasta(f"sequence before first '>' at line {lineno}")
            parts.append(line)
    if header_seen:
        if not parts:
            raise MalformedFasta("empty record at end of file")
        records.append("".join(parts))
    if not records:
        raise MalformedFasta("no records found")
    return records


def _read_lines(stream):
    records = [line.rstrip("\r\n") for line in stream if line.strip()]
    if not records:
        raise MalformedFasta("no sequences found")
    return records


def load_spss(path, k, fmt="fasta"):
    """Load an SPSS from a FASTA file (or one-sequence-per-line with fmt='lines')."""
    with open(path, "r", encoding="ascii") as fh:
        if fmt == "fasta":
            strings = _read_fasta(fh)
        elif fmt == "lines":
            strings = _read_lines(fh)
        else:
            raise ValueError(f"unknown input format {fmt!r}")
    return spss_from_strings(strings, k)


def write_fasta(spss, path, width=80):
    """Write the SPSS records as FASTA (deterministic headers)."""
    with open(path, "w", encoding="ascii") as fh:
        for i, c in enumerate(spss.codes):
            fh.write(f">record_{i}\n")
            s = decode_bases(c)
            for j in range(0, len(s), width):
                fh.write(s[j:j + width])
                fh.write("\n")


# --- test-data generation ------------------------------------------------------

def generate_spss(length, k, seed=0):
    """Generate a random SPSS of the given total length with all-distinct k-mers.

    A single uniform draw is kept when its k-mers are distinct; otherwise
    greedy per-position re-draw on duplicates, and when a position cannot be
    fixed the sequence is split into a new record (consuming k-1 bases for a
    fresh prefix). Deterministic for a fixed seed.
    """
    if length < k:
        raise GenerationFailure(f"length {length} < k={k}")
    if length - k + 1 > 4 ** k:
        raise GenerationFailure(
            f"cannot fit {length - k + 1} distinct {k}-mers in an alphabet of 4^{k}")
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 4, size=length, dtype=np.uint8)

    # fast path: one draw of the whole sequence is usually already duplicate-free
    if first_duplicate(*kmer_words(codes, k)) is None:
        return SpssInput(k=k, codes=[codes])

    records = []
    seen = set()

    def kmer_of(tail):
        v = 0
        for c in tail:
            v = (v << 2) | int(c)
        return v

    def start_record():
        # fresh k-1 prefix, re-drawn if it would extend the previous record
        for _ in range(64):
            prefix = rng.integers(0, 4, size=k - 1, dtype=np.uint8).tolist()
            if not records or prefix != records[-1][-(k - 1):]:
                return prefix
        raise GenerationFailure("could not draw a fresh record prefix")

    budget = length
    cur = start_record() if k > 1 else []
    budget -= len(cur)
    stuck = 0
    while budget > 0:
        placed = False
        for b in rng.permutation(4):
            cand = kmer_of(cur[-(k - 1):] + [int(b)]) if k > 1 else int(b)
            if cand not in seen:
                seen.add(cand)
                cur.append(int(b))
                budget -= 1
                placed = True
                stuck = 0
                break
        if not placed:
            stuck += 1
            if stuck > 4 * k or budget < k:
                break
            if len(cur) >= k:
                records.append(cur)
            prefix = start_record()
            cur = prefix
            budget -= len(prefix)
    if len(cur) >= k:
        records.append(cur)
    if not records:
        raise GenerationFailure("generation produced no record of length >= k")
    return SpssInput(k=k, codes=[np.array(r, dtype=np.uint8) for r in records])
