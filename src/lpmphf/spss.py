"""Spectrum-preserving string set ingestion and test-data generation.

The input model: an ordered list of DNA strings, each of length >= k, whose
k-mers are all distinct across the whole set. Loading checks the alphabet,
the FASTA syntax and the string lengths, not distinctness: building a
structure over the set raises DuplicateKmer on a repeated k-mer.
"""

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import (GenerationFailure, InvalidBase, MalformedFasta,
                     StringShorterThanK)
from .kmers import (MAX_K, bounded_ints, decode_bases, encode_bases, int_in,
                    kmer_words, repeats)

__all__ = ["SpssInput", "load_spss", "read_records", "spss_from_strings",
           "generate_spss", "write_fasta"]


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
    """Build an SpssInput from in-memory DNA strings (str or bytes)."""
    return SpssInput(k=k, codes=_encode_records(strings))


def _encode_records(seqs):
    """Code arrays of DNA strings: views cut from one encode_bases call over
    their join, which names the record of an invalid base."""
    seqs = [s.encode("ascii", errors="replace") if isinstance(s, str) else s
            for s in seqs]
    ends = list(accumulate(map(len, seqs)))
    codes = encode_bases(b"".join(seqs), ends)
    return [codes[a:b] for a, b in zip([0] + ends, ends)]


def read_records(path, fmt="fasta"):
    """The records of a FASTA file (fmt='lines': one per non-blank line) as
    uint8 code arrays, [] for a file of none.

    The file is read as bytes; a line ends at \\n, \\r\\n or \\r. A FASTA
    record is a line-initial '>' header, not decoded, and every following
    line up to the next header joined into its sequence; empty lines are
    skipped. Text before the first header and a header with no sequence
    are MalformedFasta.
    """
    with open(path, "rb") as fh:
        text = fh.read()
    if b"\r" in text:   # \r\n or a lone \r ends a line, as in text mode
        text = text.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if fmt == "lines":
        return _encode_records([line for line in text.split(b"\n") if line])
    if fmt != "fasta":
        raise ValueError(f"unknown input format {fmt!r}")
    before, *records = (b"\n" + text).split(b"\n>")
    if before.strip(b"\n"):
        line = len(before) - len(before.lstrip(b"\n"))
        raise MalformedFasta(f"sequence before first '>' at line {line}")
    seqs = [r.partition(b"\n")[2].replace(b"\n", b"") for r in records]
    if not all(seqs):
        i = seqs.index(b"")
        line = b"\n>".join([before, *records[:i]]).count(b"\n") + 1
        raise MalformedFasta(f"record {i} (header at line {line}) has no sequence")
    return _encode_records(seqs)


def load_spss(path, k, fmt="fasta"):
    """Load an SPSS from a FASTA file (or one sequence per line, fmt='lines')."""
    return SpssInput(k=k, codes=read_records(path, fmt))


def write_fasta(spss, path):
    """Write the SPSS records as FASTA: header `>record_{i}`, then the bases
    80 to a line."""
    text, end = decode_bases(spss.joined_codes).encode("ascii"), 0
    with open(path, "wb") as fh:
        for i, c in enumerate(spss.codes):
            start, end = end, end + len(c)
            s = text[start:end]
            fh.write(b">record_%d\n" % i)
            fh.write(b"\n".join([s[j:j + 80] for j in range(0, len(s), 80)]))
            fh.write(b"\n")


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
