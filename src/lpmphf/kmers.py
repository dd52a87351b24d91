"""2-bit DNA packing and deterministic 64-bit hashing.

Bases map to fixed 2-bit codes (A=0, C=1, G=2, T=3); a packed k-mer stores
its bases most-significant-first, so "ACGT" packs to 0b00_01_10_11 = 27.
k is capped at 63 (the packed value fits two 64-bit words) and m-mers at 32
(one word). All hashing goes through a splitmix64-style finalizer, seeded by
xor-folding a pre-mixed seed into the input; for a fixed seed the mixer is a
bijection on 64-bit values.
"""

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, InvalidBase, LengthOutOfRange

__all__ = [
    "MAX_K", "MAX_M", "BASES",
    "encode_bases", "decode_bases", "Kmer", "encode_kmer",
    "mix64", "mix64_inplace", "seed_key", "hash_mmer",
    "hash_mmer_array", "hash_words_array",
    "window_values", "kmer_words", "kmer_words_at", "first_duplicate",
]

MAX_K = 63
MAX_M = 32
BASES = "ACGT"

_U64 = np.uint64
_MASK64 = 0xFFFFFFFFFFFFFFFF
_SEED_SALT = 0x9E3779B97F4A7C15
_PACK_ROWS = 1 << 12   # k-mers per block of kmer_words_at

# uppercase and lowercase accepted, everything else is a hard error
_CODE_LUT = np.full(256, 255, dtype=np.uint8)
for _i, _b in enumerate(BASES):
    _CODE_LUT[ord(_b)] = _i
    _CODE_LUT[ord(_b.lower())] = _i

_BASE_LUT = np.frombuffer(BASES.encode(), dtype=np.uint8)


def encode_bases(s):
    """Encode a DNA string (str or bytes) into a uint8 code array."""
    if isinstance(s, str):
        s = s.encode("ascii", errors="replace")
    raw = np.frombuffer(s, dtype=np.uint8)
    codes = _CODE_LUT[raw]
    bad = np.flatnonzero(codes == 255)
    if bad.size:
        i = int(bad[0])
        raise InvalidBase(f"invalid base {chr(raw[i])!r} at position {i}")
    return codes


def decode_bases(codes):
    """Inverse of encode_bases."""
    return _BASE_LUT[np.asarray(codes, dtype=np.uint8)].tobytes().decode("ascii")


@dataclass(frozen=True)
class Kmer:
    """A fixed-length DNA string packed into 2k bits.

    `value` holds the bases most-significant-first; for k > 32 the packed
    value spans two 64-bit words, exposed as `hi` (first k-32 bases) and
    `lo` (last 32 bases).
    """

    k: int
    value: int

    def __post_init__(self):
        if not 1 <= self.k <= MAX_K:
            raise LengthOutOfRange(f"k={self.k} outside [1, {MAX_K}]")
        if not 0 <= self.value < (1 << (2 * self.k)):
            raise ValueError(f"packed value out of range for k={self.k}")

    @classmethod
    def from_string(cls, s):
        codes = encode_bases(s)
        if not 1 <= codes.size <= MAX_K:
            raise LengthOutOfRange(f"k={codes.size} outside [1, {MAX_K}]")
        value = 0
        for c in codes:
            value = (value << 2) | int(c)
        return cls(codes.size, value)

    @property
    def hi(self):
        return self.value >> 64

    @property
    def lo(self):
        return self.value & _MASK64

    def mmer_at(self, pos, m):
        """Packed m-mer starting at 1-based position pos (pos in [1, k-m+1])."""
        if not 1 <= pos <= self.k - m + 1:
            raise IndexOutOfRange(f"m-mer position {pos} out of range")
        shift = 2 * (self.k - m - (pos - 1))
        return (self.value >> shift) & ((1 << (2 * m)) - 1)

    def __str__(self):
        out = []
        for i in range(self.k - 1, -1, -1):
            out.append(BASES[(self.value >> (2 * i)) & 3])
        return "".join(out)


def encode_kmer(s):
    """Pack a DNA string of length 1..63 into a Kmer."""
    return Kmer.from_string(s)


# --- hashing -----------------------------------------------------------------

def mix64(x):
    """splitmix64 finalizer on a 64-bit value (scalar)."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def mix64_inplace(x):
    """splitmix64 finalizer over a uint64 array, in place (numpy wraps)."""
    x ^= x >> _U64(30)
    x *= _U64(0xBF58476D1CE4E5B9)
    x ^= x >> _U64(27)
    x *= _U64(0x94D049BB133111EB)
    x ^= x >> _U64(31)
    return x


def seed_key(seed):
    """Pre-mixed seed: hash_mmer(x, seed) == mix64(x ^ seed_key(seed))."""
    return mix64(seed ^ _SEED_SALT)


def hash_mmer(mmer, seed):
    """Deterministic 64-bit hash of a packed m-mer (m <= 32) under a seed."""
    return mix64(mmer ^ seed_key(seed))


def hash_mmer_array(mmers, seed):
    """Vector version of hash_mmer; equal to the scalar elementwise."""
    return mix64_inplace(np.asarray(mmers, dtype=_U64) ^ _U64(seed_key(seed)))


def hash_words_array(hi, lo, seed):
    """64-bit hash of two-word packed keys (used for k-mers, k > 32 allowed)."""
    x = mix64_inplace(np.asarray(lo, dtype=_U64) ^ _U64(seed_key(seed)))
    return mix64_inplace(np.bitwise_xor(x, hi, out=x))


def hash_words(hi, lo, seed):
    return mix64(mix64(lo ^ seed_key(seed)) ^ hi)


# --- bulk packing over code arrays -------------------------------------------

def window_values(codes, width):
    """Packed base-4 values of every `width`-window of a code array.

    Returns a uint64 array of length len(codes) - width + 1; width <= 32.
    """
    if width > MAX_M:
        raise LengthOutOfRange(f"window width {width} > {MAX_M}")
    n = codes.size - width + 1
    if n <= 0:
        return np.empty(0, dtype=_U64)
    acc, used = codes.astype(_U64), 1   # acc[i]: the window of `used` bases at i
    for digit in bin(width)[3:]:  # width's binary digits after the leading 1
        nxt = acc[:-used] << _U64(2 * used)   # double: join windows i, i + used
        nxt |= acc[used:]
        acc, used = nxt, 2 * used
        if digit == "1":                      # one more base, in place
            acc = acc[:-1]
            acc <<= _U64(2)
            acc |= codes[used:]
            used += 1
    return acc


def kmer_words(codes, k):
    """(hi, lo) packed words for every k-mer start position of a code array."""
    n = codes.size - k + 1
    if n <= 0:
        return np.empty(0, dtype=_U64), np.empty(0, dtype=_U64)
    if k <= 32:
        return np.zeros(n, dtype=_U64), window_values(codes, k)
    hi = window_values(codes, k - 32)[:n]
    lo = window_values(codes, 32)[k - 32:k - 32 + n]
    return hi, lo


def kmer_words_at(codes, k, positions):
    """(hi, lo) packed words for k-mers at the given start positions only.

    Per block of _PACK_ROWS k-mers, rows of k codes from a strided view of
    `codes` are right-aligned in 32 or 64 columns, joined four codes per
    byte and read as big-endian words."""
    positions = np.asarray(positions, dtype=np.int64)
    hi, lo = np.zeros(positions.size, dtype=_U64), np.empty(positions.size, dtype=_U64)
    codes = np.ascontiguousarray(codes, dtype=np.uint8)   # a buffer for the view
    rows = np.ndarray((max(codes.size - k + 1, 0), k), np.uint8, codes, strides=(1, 1))
    cols = 32 if k <= 32 else 64
    for a in range(0, positions.size, _PACK_ROWS):
        pos = positions[a:a + _PACK_ROWS]
        block = np.zeros((pos.size, cols), dtype=np.uint8)
        block[:, cols - k:] = rows[pos]
        # codes at u32 bits 0/8/16/24 times 2^30+2^20+2^10+1 land carry-free at 30..24
        quad = block.view("<u4") * np.uint32(0x40100401)
        quad >>= np.uint32(24)
        words = quad.astype(np.uint8).view(">u8")
        lo[a:a + pos.size] = words[:, -1]
        if k > 32:
            hi[a:a + pos.size] = words[:, 0]
    return hi, lo


def first_duplicate(hi, lo):
    """One two-word key that occurs more than once in (hi, lo), packed as
    (hi << 64) | lo, or None when all keys are distinct."""
    order = np.lexsort((lo, hi))
    hi, lo = hi[order], lo[order]
    same = np.flatnonzero((hi[1:] == hi[:-1]) & (lo[1:] == lo[:-1]))
    if not same.size:
        return None
    return (int(hi[same[0]]) << 64) | int(lo[same[0]])
