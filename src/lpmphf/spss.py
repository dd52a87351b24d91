"""Spectrum-preserving string set ingestion and test-data generation.

The input model: an ordered list of DNA strings, each of length >= k, whose
k-mers are all distinct across the whole set. Loading checks the alphabet,
the FASTA syntax and the string lengths, not distinctness: building a
structure over the set raises DuplicateKmer on a repeated k-mer.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (GenerationFailure, InvalidBase, MalformedFasta,
                     StringShorterThanK)
from .kmers import (MAX_K, bounded_ints, decode_bases, encode_bases, int_in,
                    kmer_words, repeats)

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
        self.k = int_in("k", self.k, 1, MAX_K)
        if not self.codes:
            raise MalformedFasta("an SPSS needs at least one string")
        try:   # one check over all bases, the rule a query's codes meet
            joined = bounded_ints(np.concatenate(self.codes), 3, np.uint8)
        except ValueError:   # strings of unequal dimensions
            joined = None
        if joined is None:
            raise InvalidBase("SPSS strings must be 1-D integer arrays in [0, 3]")
        self.joined_codes = joined   # every string, concatenated in input order
        kmers = np.array([len(c) for c in self.codes], dtype=np.int64) - self.k + 1
        if kmers.min() < 1:
            i = int(np.argmax(kmers < 1))
            raise StringShorterThanK(
                f"string {i} has length {kmers[i] + self.k - 1} < k={self.k}")
        self.kmer_starts = np.cumsum(kmers) - kmers
        self.n = int(kmers.sum())
        self.total_length = joined.size

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
    """Generate a random SPSS from one uniform draw of `length` bases.

    The draw is cut wherever a k-mer repeats one before it: each record
    holds the k-mers between two such repeats, so every k-mer is distinct.
    A draw with no repeat is one record of exactly `length` bases; with
    repeats (about length^2 / (2 * 4^k) of them: 0.1 at k = 21 and 10^6
    bases) the records overlap by up to k - 2 bases at each cut and hold
    more bases than were drawn. Deterministic for a fixed seed.
    """
    k = int_in("k", k, 1, MAX_K)
    seed = int_in("seed", seed, 0, 2 ** 64 - 1)
    length = int_in("length", length, k, error=GenerationFailure)
    if length - k + 1 > 4 ** k:
        raise GenerationFailure(
            f"cannot fit {length - k + 1} distinct {k}-mers in an alphabet of 4^{k}")
    codes = np.random.default_rng(seed).integers(0, 4, size=length, dtype=np.uint8)
    rep = repeats(*kmer_words(codes, k)).tolist()
    # records hold k-mers a .. b-1, from after one repeat to the next
    return SpssInput(k=k, codes=[codes[a:b + k - 1] for a, b in zip(
        [0] + [r + 1 for r in rep], rep + [length - k + 1]) if a < b])
