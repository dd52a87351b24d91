"""Succinct storage: rank-supported bitvectors, Elias-Fano sequences, and
the 4-symbol type sequence.

RankBitvector keeps one rank sample per 64-bit word, the number of set bits
before it, so rank is one sample plus one popcount. Select of rank j starts
at the word of set bit 64 * (j >> 6), from a select sample derived on the
first select, and steps at most _SELECT_STEPS words forward; only
ranks still short of their word binary-search the rank samples, in sparse
bitvectors (64 ones of an Elias-Fano high part span 2 to 3 words). Inside
the word the scalar path clears the lower set bits, the batch path runs a
32/16/8-bit popcount search and a byte table, O(1) passes over its input.
The samples cost 64 bits per word and 1 bit per set bit in memory, and none
in a file. An Elias-Fano pair (L[i], L[i+1]) costs one select: L[i+1] is
the next set bit after L[i]'s, found in the same word, in the next one, or
by a second select.

Construction uses no `ufunc.at`: a bitvector packs a bool array with
`np.packbits`, and an IntVector ORs each word's fields with one `reduceat`.

Serialization is little-endian: parameters and payload words only. Loading
derives each bitvector's set-bit count and rank samples from its words in
one `cumsum`, so the samples always agree with the words; the counts a
structure's header implies are checked against the derived ones.
"""

from functools import cached_property

import numpy as np

from ._binio import Reader, Writer
from .errors import (CorruptFile, IndexOutOfRange, NotMonotone,
                     UniverseTooSmall)

__all__ = ["RankBitvector", "IntVector", "EliasFanoSeq", "TypeSequence"]

_U64 = np.uint64
_FULL64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_U63 = np.uint64(63)

popcount = np.bitwise_count

_SELECT_STEPS = 3   # words a select steps forward from its sampled word

# position of the (r+1)-th set bit of byte b at index 8 * b + r, 255 when absent
_SELECT_IN_BYTE = np.array([([i for i in range(8) if b >> i & 1] + [255] * 8)[:8]
                            for b in range(256)], dtype=np.int64).ravel()


def _low_width(length, universe):
    """Elias-Fano low-part width: floor(log2(universe / length)), 0 if < 1."""
    return max(int(universe // length).bit_length() - 1, 0) if length else 0


def _width_mask(width):
    return _FULL64 if width >= 64 else _U64((1 << width) - 1)


class _Serialized:
    """`from_bytes` and `size_in_bits` from a class's `read_from`/`to_bytes`."""

    @classmethod
    def from_bytes(cls, buf):
        r = Reader(buf)
        out = cls.read_from(r)
        r.done()
        return out

    def size_in_bits(self):
        return 8 * len(self.to_bytes())


class RankBitvector(_Serialized):
    """Static bitvector with O(1) rank1 and sampled select1."""

    def __init__(self, nbits, words):
        """Over the first `nbits` bits of `words`; derives the rank samples."""
        self.nbits = int(nbits)
        nwords = (self.nbits + 63) // 64
        # one zero pad word so rank/select gathers never index out of range
        self._words = np.zeros(nwords + 1, dtype=_U64)
        self._words[:words.size] = words
        self._cum = np.zeros(nwords + 2, dtype=np.int64)   # ones before each word
        np.cumsum(popcount(self._words), dtype=np.int64, out=self._cum[1:])
        self.num_ones = int(self._cum[-1])

    @classmethod
    def from_positions(cls, nbits, positions):
        """Bits set at `positions` (any order, repeats allowed)."""
        bits = np.zeros(nbits, dtype=bool)
        bits[positions] = True
        return cls.from_bools(bits)

    @classmethod
    def from_bools(cls, bits):
        padded = np.pad(np.asarray(bits, dtype=bool), (0, -len(bits) % 64))
        return cls(len(bits), np.packbits(padded, bitorder="little").view("<u8"))

    def rank1(self, i):
        """Number of set bits in [0, i); 0 <= i <= nbits."""
        if not 0 <= i <= self.nbits:
            raise IndexOutOfRange(f"rank position {i} outside [0, {self.nbits}]")
        return self.probe(i)[1]   # at i = nbits, probe reads the zero pad word

    def probe(self, i):
        """(bit, rank1) at position i, from one read of its word; 0 <= i < nbits."""
        wi, off = i >> 6, i & 63
        word = self._words.item(wi)
        return word >> off & 1, self._cum.item(wi) + (word & ((1 << off) - 1)).bit_count()

    def rank1_many(self, idx):
        return self.probe_many(idx)[1]

    def probe_many(self, idx):
        """(bit as bool, rank1) at each position, from one gather of its word:
        shifted left by 63 - offset, the word holds the bit as its sign bit
        and the set bits up to and including it as its popcount."""
        idx = np.asarray(idx, dtype=np.int64)
        wi = idx >> 6
        top = self._words[wi] << (_U63 - (idx.view(_U64) & _U63))
        bit = top.view(np.int64) < 0
        return bit, self._cum[wi] + popcount(top) - bit

    @cached_property
    def _select_sample(self):
        """The word of every 64th set bit; derived on the first select."""
        return np.searchsorted(self._cum, np.arange(0, self.num_ones, 64),
                               side="right") - 1

    def select1(self, j):
        """Position of the (j+1)-th set bit, 0-based; 0 <= j < num_ones."""
        if not 0 <= j < self.num_ones:
            raise IndexOutOfRange(f"select rank {j} outside [0, {self.num_ones})")
        cum, wi = self._cum.item, self._select_sample.item(j >> 6)
        end = wi + _SELECT_STEPS
        while wi < end and cum(wi + 1) <= j:
            wi += 1
        if cum(wi + 1) <= j:
            wi = int(np.searchsorted(self._cum, j, side="right")) - 1
        pos, word, rem = wi << 6, self._words.item(wi), j - cum(wi)
        while (c := (word & 0xFF).bit_count()) <= rem:   # the bit is past this byte
            pos, word, rem = pos + 8, word >> 8, rem - c
        return pos + _SELECT_IN_BYTE.item((word & 0xFF) << 3 | rem)

    def select1_many(self, js):
        """Vector `select1` (see the module docstring)."""
        js = np.asarray(js, dtype=np.int64)
        if js.size and not (0 <= js.min() and js.max() < self.num_ones):
            raise IndexOutOfRange(f"select rank outside [0, {self.num_ones})")
        cum, wi = self._cum, self._select_sample[js >> 6]
        for _ in range(_SELECT_STEPS):
            wi += cum[wi + 1] <= js
        far = (cum[wi + 1] <= js).nonzero()[0]
        if far.size:
            wi[far] = np.searchsorted(cum, js[far], side="right") - 1
        rem = js - cum[wi]
        pos = wi << 6
        word = self._words[wi].view(np.int64)  # sign fill is masked off below
        for width in (32, 16, 8):
            c = popcount(word & ((1 << width) - 1)).astype(np.int64)
            skip = c <= rem
            rem -= c * skip
            skip = skip * width
            pos += skip
            word >>= skip
        return pos + _SELECT_IN_BYTE[((word & 0xFF) << 3) | rem]

    def next1(self, p, j):
        """Position of the first set bit after p, the position of the
        (j+1)-th set bit: in p's word, else in the next word (the pad word
        at the end is zero), else `select1(j + 1)`."""
        wi = p >> 6
        rest = self._words.item(wi) >> (p & 63) >> 1
        if rest:
            return p + (rest ^ (rest - 1)).bit_count()
        word = self._words.item(wi + 1)
        if word:
            return ((wi + 1) << 6) + (word ^ (word - 1)).bit_count() - 1
        return self.select1(j + 1)

    def next1_many(self, ps, js):
        """Vector `next1` over position/rank pairs."""
        ps = np.asarray(ps, dtype=np.int64)
        js = np.asarray(js, dtype=np.int64)
        wi = ps >> 6
        rest = self._words[wi] >> (ps & 63).astype(_U64) >> _U64(1)
        out = ps + popcount(rest ^ (rest - _U64(1))).astype(np.int64)
        miss = (rest == 0).nonzero()[0]
        if miss.size:
            nxt = wi[miss] + 1
            word = self._words[nxt]
            out[miss] = (nxt << 6) - 1 + popcount(word ^ (word - _U64(1)))
            far = miss[word == 0]
            if far.size:
                out[far] = self.select1_many(js[far] + 1)
        return out

    def to_bytes(self):
        w = Writer()
        w.u64(self.nbits)
        w.array(self._words[:(self.nbits + 63) // 64])
        return w.getvalue()

    @classmethod
    def read_from(cls, r):
        """nbits and the words; the rank samples and num_ones are derived."""
        nbits = r.u64()
        words = r.array(_U64, (nbits + 63) // 64)
        if nbits & 63 and int(words[-1]) >> (nbits & 63):
            raise CorruptFile("bitvector has set bits past its length")
        return cls(nbits, words)


class IntVector(_Serialized):
    """Fixed-width packed integer array (width 0..64)."""

    def __init__(self, length, width, words=None):
        self.length = int(length)
        self.width = int(width)
        nwords = (self.length * self.width + 63) // 64 + 2   # spares: `get_many`
        self._words = np.zeros(nwords, dtype=_U64)
        if words is not None:
            self._words[:words.size] = words

    @classmethod
    def from_values(cls, values, width):
        values = np.asarray(values)
        iv = cls(values.size, width)
        if width == 0 or values.size == 0:
            return iv
        v = values.astype(_U64) & _width_mask(width)
        off = np.arange(values.size, dtype=np.int64) * width
        sh = (off & 63).astype(_U64)
        # width <= 64: each word up to the last field start holds field
        # ceil(64 i / width) first, and at most one field spilling in
        first = (np.arange((off[-1] >> 6) + 1) * 64 + width - 1) // width
        iv._words[:first.size] = np.bitwise_or.reduceat(v << sh, first)
        spill = np.flatnonzero((off & 63) + width > 64)
        iv._words[(off[spill] >> 6) + 1] |= v[spill] >> (_U64(64) - sh[spill])
        return iv

    def get(self, i):
        if not 0 <= i < self.length:
            raise IndexOutOfRange(f"index {i} outside [0, {self.length})")
        off = i * self.width
        sh = off & 63
        val = self._words.item(off >> 6) >> sh
        if sh + self.width > 64:
            val |= self._words.item((off >> 6) + 1) << (64 - sh)
        return val & ((1 << self.width) - 1)

    def get_many(self, idx):
        off = np.asarray(idx, dtype=np.int64) * self.width
        wi, sh, words = off >> 6, (off & 63).astype(_U64), self._words
        # (x << 1) << (63 - sh) is 0 at sh = 0, where the field ends in word wi
        out = words[wi] >> sh | (words[wi + 1] << _U64(1)) << (_U64(63) - sh)
        return (out & _width_mask(self.width)).view(np.int64)

    def __len__(self):
        return self.length

    def to_bytes(self):
        ndata = (self.length * self.width + 63) // 64
        w = Writer()
        w.u64(self.length)
        w.u64(self.width)
        w.array(self._words[:ndata])
        return w.getvalue()

    @classmethod
    def read_from(cls, r):
        length = r.u64()
        width = r.u64()
        if width > 64:
            raise CorruptFile(f"integer vector width {width} above 64")
        ndata = (length * width + 63) // 64
        return cls(length, width, words=r.array(_U64, ndata))


class EliasFanoSeq(_Serialized):
    """Non-decreasing integer sequence with O(1) access.

    Values split into low bits (fixed width floor(log2(u/l))) and unary-coded
    high bits with select support.
    """

    def __init__(self, length, universe, low_width, low, high):
        self.length = length
        self.universe = universe
        self.low_width = low_width
        self._low = low
        self._high = high

    @classmethod
    def from_values(cls, values, universe):
        values = np.asarray(values, dtype=np.int64)
        length = values.size
        if length:
            if values[0] < 0 or np.any(values[1:] < values[:-1]):
                raise NotMonotone("sequence must be non-decreasing and non-negative")
            if int(values[-1]) > universe:
                raise UniverseTooSmall(
                    f"largest value {int(values[-1])} > universe {universe}")
        lw = _low_width(length, universe)
        low = IntVector.from_values(values, lw)
        hpos = (values >> lw) + np.arange(length, dtype=np.int64)
        nbits_high = (universe >> lw) + length + 1
        high = RankBitvector.from_positions(nbits_high, hpos)
        return cls(length, int(universe), lw, low, high)

    def access(self, i):
        if not 0 <= i < self.length:
            raise IndexOutOfRange(f"index {i} outside [0, {self.length})")
        hval = self._high.select1(i) - i
        return (hval << self.low_width) | self._low.get(i)

    def access_many(self, idx):
        idx = np.asarray(idx, dtype=np.int64)
        hval = self._high.select1_many(idx) - idx
        return (hval << self.low_width) | self._low.get_many(idx)

    def last(self):
        """The last value, from the last set bit of the high words (no select)."""
        if not self.length:
            raise CorruptFile("empty Elias-Fano sequence")
        high = self._high
        wi = int(np.searchsorted(high._cum, high.num_ones)) - 1   # its word
        top = (wi << 6) + int(high._words[wi]).bit_length() - 1
        return (top - self.length + 1) << self.low_width | self._low.get(self.length - 1)

    def bounds(self, i):
        """(L[i], L[i+1]) from one select and a next-one scan; 0 <= i < length - 1."""
        if not 0 <= i < self.length - 1:
            raise IndexOutOfRange(f"index {i} outside [0, {self.length - 1})")
        lo = (self._high.select1(i) - i) << self.low_width | self._low.get(i)
        pos = self._high.next1((lo >> self.low_width) + i, i)
        return lo, ((pos - i - 1) << self.low_width) | self._low.get(i + 1)

    def bounds_many(self, idx):
        """Vector `bounds`: (L[idx], L[idx + 1]), 0 <= idx < length - 1, from
        one select and a next-one scan from its position."""
        idx = np.asarray(idx, dtype=np.int64)
        pos = self._high.select1_many(idx)
        nxt = self._high.next1_many(pos, idx)
        lw, low = self.low_width, self._low
        return ((pos - idx) << lw | low.get_many(idx),
                (nxt - idx - 1) << lw | low.get_many(idx + 1))

    def __len__(self):
        return self.length

    def to_bytes(self):
        w = Writer()
        w.u64(self.length)
        w.u64(self.universe)
        w.u64(self.low_width)
        w.raw(self._low.to_bytes())
        w.raw(self._high.to_bytes())
        return w.getvalue()

    @classmethod
    def read_from(cls, r):
        length = r.u64()
        universe = r.u64()
        lw = r.u64()
        if lw != _low_width(length, universe):
            raise CorruptFile("Elias-Fano low width disagrees with its length")
        low = IntVector.read_from(r)
        if (low.length, low.width) != (length, lw):
            raise CorruptFile("Elias-Fano low part disagrees with its header")
        high = RankBitvector.read_from(r)
        if (high.nbits, high.num_ones) != ((universe >> lw) + length + 1, length):
            raise CorruptFile("Elias-Fano high part disagrees with its header")
        return cls(length, universe, lw, low, high)


class TypeSequence(_Serialized):
    """Length-|M| sequence over 4 symbols with O(1) access and per-symbol rank.

    Depth-2 wavelet decomposition: one bitvector for the symbol high bit, a
    second for the low bits grouped by high bit (left part then right part).
    """

    def __init__(self, length, b1, b2, count0):
        self.length = length
        self._b1 = b1
        self._b2 = b2
        self._count0 = count0
        ones = b2.rank1(count0)   # ranks for 2 and 3 also count b2's bits before it
        self._before = np.array([0, 0, count0 - ones, ones])
        rest = b2.num_ones - ones
        self.counts = [count0 - ones, ones, length - count0 - rest, rest]   # per symbol

    @classmethod
    def from_symbols(cls, symbols):
        symbols = np.asarray(symbols)
        if symbols.size and not 0 <= symbols.min() <= symbols.max() <= 3:
            raise IndexOutOfRange("symbols must be in [0, 3]")
        symbols = symbols.astype(np.uint8)
        hi = symbols >> 1
        b1 = RankBitvector.from_bools(hi == 1)
        order = np.concatenate([np.flatnonzero(hi == 0), np.flatnonzero(hi == 1)])
        b2 = RankBitvector.from_bools((symbols[order] & 1) == 1)
        return cls(symbols.size, b1, b2, int(np.count_nonzero(hi == 0)))

    def access(self, i):
        """(symbol at i, its occurrences before i); one probe per level."""
        if not 0 <= i < self.length:
            raise IndexOutOfRange(f"index {i} outside [0, {self.length})")
        c1, r1 = self._b1.probe(i)
        pos2 = self._count0 + r1 if c1 else i - r1
        c0, r2 = self._b2.probe(pos2)
        t = c1 << 1 | c0
        return t, (r2 if c0 else pos2 - r2) - self._before.item(t)

    def access_many(self, idx):
        """(symbol, its occurrences before idx) per position; one probe per level."""
        idx = np.asarray(idx, dtype=np.int64)
        c1, r1 = self._b1.probe_many(idx)
        pos2 = np.where(c1, self._count0 + r1, idx - r1)
        c0, r2 = self._b2.probe_many(pos2)
        symbols = c1.view(np.uint8) << 1 | c0.view(np.uint8)
        return symbols, np.where(c0, r2, pos2 - r2) - self._before[symbols]

    def rank(self, t, i):
        """Occurrences of symbol t in [0, 3] in the first i positions
        (0 <= i <= length)."""
        if not (0 <= t <= 3 and 0 <= i <= self.length):
            raise IndexOutOfRange(f"rank of symbol {t} at {i} outside "
                                  f"[0, 3] x [0, {self.length}]")
        return int(self.rank_many([t], [i])[0])

    def rank_many(self, ts, idx):
        """Vector rank for per-element (symbol, position) pairs."""
        ts = np.asarray(ts, dtype=np.int64)
        idx = np.asarray(idx, dtype=np.int64)
        r1 = self._b1.rank1_many(idx)
        pos2 = np.where(ts >> 1, self._count0 + r1, idx - r1)
        r2 = self._b2.rank1_many(pos2)
        return np.where(ts & 1, r2, pos2 - r2) - self._before[ts]

    def __len__(self):
        return self.length

    def to_bytes(self):
        w = Writer()
        w.u64(self.length)
        w.u64(self._count0)
        w.raw(self._b1.to_bytes())
        w.raw(self._b2.to_bytes())
        return w.getvalue()

    @classmethod
    def read_from(cls, r):
        length = r.u64()
        count0 = r.u64()
        b1 = RankBitvector.read_from(r)
        b2 = RankBitvector.read_from(r)
        if (b1.nbits, b2.nbits, count0) != (length, length, length - b1.num_ones):
            raise CorruptFile("type sequence bitvectors disagree with its length")
        return cls(length, b1, b2, count0)
