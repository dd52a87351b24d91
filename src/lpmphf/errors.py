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
    """A k or m value outside the supported packing range."""


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
    """The test-data generator could not produce all-distinct k-mers."""


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


class CorruptFile(LpmphfError):
    """Bad magic, version, or truncated structure file."""
