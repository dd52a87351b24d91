"""2-bit DNA packing and deterministic 64-bit hashing.

Bases map to fixed 2-bit codes (A=0, C=1, G=2, T=3); a packed k-mer stores
its bases most-significant-first, so "ACGT" packs to 0b00_01_10_11 = 27.
k is capped at 63 (the packed value fits two 64-bit words) and m-mers at 32
(one word). All hashing goes through a splitmix64-style finalizer, seeded by
xor-folding a pre-mixed seed into the input; for a fixed seed the mixer is a
bijection on 64-bit values.
"""

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import InvalidBase, KMismatch, LengthOutOfRange

__all__ = [
    "MAX_K", "MAX_M", "BASES",
    "encode_records", "encode_bases", "decode_bases", "Kmer",
    "mix64", "mix64_inplace", "seed_key", "hash_mmer_array", "hash_words_array",
    "packed_windows", "kmer_words", "kmer_words_at", "repeats",
]

MAX_K = 63
MAX_M = 32
BASES = "ACGT"

_U64 = np.uint64
_MASK64 = 0xFFFFFFFFFFFFFFFF
_SEED_SALT = 0x9E3779B97F4A7C15
# splitmix64's shifts and multipliers, for each form of it (scalar, array, lanes)
MIX_S1, MIX_S2, MIX_S3, MIX_M1, MIX_M2 = 30, 27, 31, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_PACK_ROWS = 1 << 12   # k-mers per block of kmer_words_at

# tables for bytes.translate. Byte -> code: upper and lower case accepted,
# every other byte is 255, a hard error. Code -> base: a code above 3 gives
# a byte that is not ASCII, and fails to decode.
_CODE_TABLE = bytearray(b"\xff" * 256)
for _i, _b in enumerate(BASES):
    _CODE_TABLE[ord(_b)] = _CODE_TABLE[ord(_b.lower())] = _i
_BASE_TABLE = BASES.encode().ljust(256, b"\xff")


def encode_records(seqs):
    """Code arrays of DNA strings (str or bytes): views cut from one
    translate of their join. A str's non-ASCII character joins as the
    invalid byte '?'; an invalid base is named as its record holds it, with
    the record and its offset there."""
    seqs = list(seqs)
    ends = list(accumulate(map(len, seqs)))
    raw = b"".join([s.encode("ascii", errors="replace") if isinstance(s, str)
                    else s for s in seqs])
    codes = bytearray(raw).translate(_CODE_TABLE)   # a writable copy
    i = codes.find(255)
    if i >= 0:
        r = bisect_right(ends, i)
        j = i - (ends[r - 1] if r else 0)
        c = seqs[r][j]   # a str's character, or a byte
        c = c if isinstance(c, str) else chr(c)
        raise InvalidBase(f"invalid base {ascii(c)} at position {j} of record {r}")
    codes = np.frombuffer(codes, dtype=np.uint8)
    return [codes[a:b] for a, b in zip([0] + ends, ends)]


def encode_bases(s):
    """Encode one DNA string (str or bytes) into a uint8 code array."""
    return encode_records([s])[0]


def decode_bases(codes):
    """Inverse of encode_bases."""
    raw = np.asarray(codes, dtype=np.uint8).tobytes()
    return raw.translate(_BASE_TABLE).decode("ascii")


@dataclass(frozen=True)
class Kmer:
    """A fixed-length DNA string packed into 2k bits.

    `value` holds the bases most-significant-first; for k > 32 the packed
    value spans two 64-bit words, `value >> 64` (the first k-32 bases) and
    its low 64 bits (the last 32), as `kmer_words` packs them.
    """

    k: int
    value: int

    def __post_init__(self):   # numpy integers become ints, floats are errors
        k = int_in("k", self.k, 1, MAX_K)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "value", int_in(
            "packed value", self.value, 0, 4 ** k - 1, error=KMismatch))

    @classmethod
    def from_string(cls, s):
        codes = encode_bases(s)   # the constructor checks k
        value = 0
        for c in codes:
            value = (value << 2) | int(c)
        return cls(codes.size, value)

    def __str__(self):
        out = []
        for i in range(self.k - 1, -1, -1):
            out.append(BASES[(self.value >> (2 * i)) & 3])
        return "".join(out)


# --- hashing -----------------------------------------------------------------

def mix64(x):
    """splitmix64 finalizer on a 64-bit value (scalar)."""
    x &= _MASK64
    x ^= x >> MIX_S1
    x = (x * MIX_M1) & _MASK64
    x ^= x >> MIX_S2
    x = (x * MIX_M2) & _MASK64
    x ^= x >> MIX_S3
    return x


def mix64_inplace(x):
    """splitmix64 finalizer over a uint64 array, in place (numpy wraps)."""
    x ^= x >> _U64(MIX_S1)
    x *= _U64(MIX_M1)
    x ^= x >> _U64(MIX_S2)
    x *= _U64(MIX_M2)
    x ^= x >> _U64(MIX_S3)
    return x


def seed_key(seed):
    """Pre-mixed seed: an m-mer x hashes to mix64(x ^ seed_key(seed))."""
    return mix64(seed ^ _SEED_SALT)


def hash_mmer_array(mmers, seed, out=None):
    """Hash of packed m-mers (m <= 32): mix64(x ^ seed_key(seed)) elementwise,
    into `out` (which may be `mmers`) or a new uint64 array (uint32 m-mers widen)."""
    return mix64_inplace(np.bitwise_xor(mmers, _U64(seed_key(seed)), out=out))


def hash_words(hi, lo, key):
    """64-bit hash of a two-word packed key (k-mers, k > 32 allowed) under
    the pre-mixed `key`, a `seed_key` value."""
    return mix64(mix64(lo ^ key) ^ hi)


def hash_words_array(hi, lo, key):
    """`hash_words` over key word arrays, hi None for one-word keys (the
    hash of hi = 0, with no xor); a (levels, 1) column of `key`s gives one
    row of hashes per key."""
    x = mix64_inplace(np.asarray(lo, dtype=_U64) ^ key)
    return mix64_inplace(x if hi is None else np.bitwise_xor(x, hi, out=x))


# --- bulk packing over code arrays -------------------------------------------

def packed_windows(codes, width):
    """Packed base-4 values of every `width`-window of a code array, of
    length len(codes) - width + 1 (width <= 32), in the narrowest word that
    holds them: uint32 up to width 16 (half the memory traffic per pass),
    else uint64."""
    if width > MAX_M:
        raise LengthOutOfRange(f"window width {width} > {MAX_M}")
    word = np.uint32 if width <= 16 else _U64
    if codes.size < width:
        return np.empty(0, dtype=word)
    acc, used = codes.astype(word), 1   # acc[i]: the window of `used` bases at i
    for digit in bin(width)[3:]:  # width's binary digits after the leading 1
        nxt = acc[:-used] << word(2 * used)   # double: join windows i, i + used
        nxt |= acc[used:]
        acc, used = nxt, 2 * used
        if digit == "1":                      # one more base, in place
            acc = acc[:-1]
            acc <<= word(2)
            acc |= codes[used:]
            used += 1
    return acc


def kmer_words(codes, k):
    """(hi, lo) packed words for every k-mer start position of a code array."""
    n = codes.size - k + 1
    if n <= 0:
        return np.empty(0, dtype=_U64), np.empty(0, dtype=_U64)
    if k <= 32:
        return np.zeros(n, dtype=_U64), packed_windows(codes, k).astype(_U64, copy=False)
    hi = packed_windows(codes, k - 32)[:n].astype(_U64, copy=False)
    lo = packed_windows(codes, 32)[k - 32:k - 32 + n]
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


def repeats(hi, lo):
    """Ascending indices of the two-word keys (hi, lo) that equal a key at a
    smaller index; sorts the low words, and both words of just the keys
    whose low word repeats."""
    s = np.sort(lo)
    cand = np.flatnonzero(np.isin(lo, s[1:][s[1:] == s[:-1]]))
    cand = cand[np.lexsort((lo[cand], hi[cand]))]   # stable: equal keys by index
    same = (hi[cand[1:]] == hi[cand[:-1]]) & (lo[cand[1:]] == lo[cand[:-1]])
    return np.sort(cand[1:][same])


def bounded_ints(x, top, dtype):
    """x as a 1-D `dtype` array, or None unless it is empty or holds
    integers in [0, top] (one `max` pass for unsigned input)."""
    a = np.asarray(x)
    if a.ndim == 1 and (not a.size or a.dtype.kind in "ui" and a.max() <= top
                        and (a.dtype.kind == "u" or a.min() >= 0)):
        return a.astype(dtype, copy=False)
    return None


def int_in(name, x, lo=-math.inf, hi=math.inf, error=LengthOutOfRange):
    """x as a Python int in [lo, hi], or `error`: integers only, no floats."""
    try:
        v = operator.index(x)
    except TypeError:
        v = None
    if v is None or not lo <= v <= hi:
        raise error(f"{name}={x} is not an integer in [{lo}, {hi}]")
    return v
