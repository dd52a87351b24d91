"""Exception hierarchy.

Everything raised on purpose derives from LpmphfError so callers (and the
CLI) can distinguish data problems from genuine bugs.
"""


class LpmphfError(Exception):
    """Base class for all errors raised by this package."""


# --- alphabet / packing ---

class InvalidBase(LpmphfError):
    """A sequence contains a symbol outside {A, C, G, T}."""


class LengthOutOfRange(LpmphfError):
    """A k, m or seed value outside the supported range."""


# --- input ingestion ---

class MalformedFasta(LpmphfError):
    """Input file does not parse as FASTA."""


class StringShorterThanK(LpmphfError):
    """An input string is shorter than k."""


class DuplicateKmer(LpmphfError):
    """The build found a k-mer occurring more than once in its input."""


class QueryShorterThanK(LpmphfError):
    """A streaming query is shorter than k."""


class GenerationFailure(LpmphfError):
    """A generator length not an integer in [k, 4^k + k - 1] (distinct k-mers)."""


# --- succinct structures ---

class NotMonotone(LpmphfError):
    """Elias-Fano input sequence decreases somewhere."""


class UniverseTooSmall(LpmphfError):
    """Elias-Fano universe smaller than the largest value."""


class IndexOutOfRange(LpmphfError, IndexError):
    """Access or rank position outside [0, length]."""


# --- minimal perfect hashing ---

class DuplicateKey(LpmphfError):
    """MPHF construction received duplicate keys; `key` is one of them."""

    def __init__(self, key):
        super().__init__(f"key {key:#x} occurs more than once in MPHF input")
        self.key = key


class EmptyFunction(LpmphfError):
    """Evaluation of an MPHF built over zero keys."""


# --- lookup / persistence ---

class DefiniteMiss(LpmphfError):
    """Checked lookup proved the query k-mer is not indexed."""


class KMismatch(LpmphfError):
    """Structure was built with a different k than requested."""


class InputMismatch(LpmphfError):
    """An SPSS given as a structure's build input has a different k-mer count,
    or k-mers whose values are not a permutation of [0, n)."""


class CorruptFile(LpmphfError):
    """Bad magic, version, or truncated structure file."""
