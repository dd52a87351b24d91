"""General-purpose minimal perfect hashing over 64- or 128-bit keys.

Multi-level fingerprint construction in the style of BBHash (Limasset et
al., SEA 2017): level l hashes the surviving keys into ceil(gamma * n_l)
bits, rounded up to whole words, and keeps the keys that land alone; levels
are added until every key is placed (expected linear time, no retries). A
build still holding keys after `MAX_LEVELS` levels raises LpmphfError: a
safety cap, which 10^6 keys reach at gamma 0.5 but gamma 2 (13 levels) not.
Copies of a repeated key hit the same bit at every level, so none is ever
placed: only a level that places no key, or the cap, makes the build call
`kmers.repeats` on the unplaced keys, which hold every copy of every
repeat, and raise DuplicateKey on the smallest repeated key.
`build(..., out=)` writes each key's value, the rank of its set bit.

Evaluation reads the levels, one after another, as one rank bitvector. A
key's value is the rank of the first set bit it hits, which makes the
function minimal; a key that hits none gets `hash_words % n_keys`. The
vector path probes its pending keys against max(1, _GROUP // pending)
levels per 2-D pass, so a short batch crosses every level at once.

Keys are (hi, lo) uint64 pairs; plain 64-bit keys pass hi=0.

Serialized as n_keys, seed, gamma, the level count (a u32), then each
level's bit count and words. Loading reads the levels into one bitvector,
derives its rank samples once, and checks that the levels hold one set
bit per key.
"""

from functools import cached_property

import numpy as np

from ._binio import Writer
from .errors import (CorruptFile, DuplicateKey, EmptyFunction, LengthOutOfRange,
                     LpmphfError)
from .kmers import (hash_words, hash_words_array, mix64, mix64_inplace,
                    repeats, seed_key)
from .succinct import RankBitvector, _Serialized

__all__ = ["GeneralMphf", "DEFAULT_GAMMA", "MAX_LEVELS"]

_U64 = np.uint64
DEFAULT_GAMMA = 2.0
MAX_LEVELS = 64
_LEVEL_SALT = 0x9E3779B97F4A7C15
_GROUP = 4096   # probes per grouped evaluation pass: pending keys x levels
_CHUNK = 1 << 15   # keys hashed at a time in a build level


def _level_seed(seed, level):
    return mix64(seed + (level + 1) * _LEVEL_SALT)


def _as_key_arrays(lo, hi):
    lo = np.ascontiguousarray(lo, dtype=_U64)
    if hi is None:
        hi = np.zeros(lo.size, dtype=_U64)
    else:
        hi = np.ascontiguousarray(hi, dtype=_U64)
    if hi.size != lo.size:
        raise LengthOutOfRange(f"hi has {hi.size} keys, lo {lo.size}: not equal")
    return hi, lo


class GeneralMphf(_Serialized):
    """Minimal perfect hash over a static key set."""

    num_residual = 0   # keys placed outside the levels: none, by construction

    def __init__(self, n_keys, seed, gamma, sizes, bits):
        self.n_keys = n_keys
        self.seed = seed
        self.gamma = gamma
        self._sizes = sizes   # bits per level, each a positive multiple of 64
        self._bits = bits     # the levels end to end, one RankBitvector

    @cached_property
    def _view(self):
        """The levels' pre-mixed keys, sizes and first bits as a (3, levels)
        array and as Python rows; built on the first evaluation so that
        loading mixes no seeds."""
        sizes = self._sizes
        keys = [seed_key(_level_seed(self.seed, i)) for i in range(len(sizes))]
        levels = np.array([keys, sizes, np.cumsum([0] + sizes[:-1])], dtype=_U64)
        return levels, levels.T.tolist()

    # --- construction ---

    @classmethod
    def build(cls, lo, hi=None, seed=0, gamma=DEFAULT_GAMMA, out=None):
        """Build over distinct uint64 keys (hi optional); `out` gets their values."""
        hi, lo = _as_key_arrays(lo, hi)
        sizes, levels, order, placed = [], [], [], []   # per level (last two: `out`)
        idx = np.arange(lo.size)   # the keys no level has placed yet
        while idx.size:
            if len(sizes) == MAX_LEVELS or (levels and not levels[-1].any()):
                rep = idx[repeats(hi[idx], lo[idx])]
                if rep.size:   # name the smallest repeated key
                    r = rep[np.lexsort((lo[rep], hi[rep]))[0]]
                    raise DuplicateKey(int(hi[r]) << 64 | int(lo[r]))
            if len(sizes) == MAX_LEVELS:
                raise LpmphfError(f"{idx.size} of {lo.size} keys still "
                                  f"collide after {MAX_LEVELS} MPHF levels "
                                  f"(gamma {gamma})")
            nbits = max(64, ((int(np.ceil(gamma * idx.size)) + 63) // 64) * 64)
            h, key = np.empty(idx.size, dtype=np.int64), _level_seed(seed, len(sizes))
            for a in range(0, idx.size, _CHUNK):   # temporaries stay in cache
                part = idx[a:a + _CHUNK]
                np.remainder(hash_words_array(hi[part], lo[part], key),
                             _U64(nbits), out=h[a:a + _CHUNK].view(_U64))
            levels.append(np.bincount(h, minlength=nbits) == 1)   # bits hit once
            alone = levels[-1][h]
            if out is not None:
                sel = np.flatnonzero(alone)
                order.append(idx[sel])
                placed.append(h[sel] + sum(sizes))
            sizes.append(nbits)
            idx = idx[np.flatnonzero(~alone)]   # index gathers beat boolean masks
        bits = RankBitvector.from_bools(np.concatenate([np.zeros(0, bool), *levels]))
        if order:   # a key's value is the rank of its set bit
            out[np.concatenate(order)] = bits.rank1_many(np.concatenate(placed))
        return cls(lo.size, seed, gamma, sizes, bits)

    # --- evaluation ---

    def evaluate(self, key):
        """Hash value of one key (int, up to 128 bits).

        Build-set keys get their unique index in [0, n_keys); other keys get
        an arbitrary in-range value.
        """
        if self.n_keys == 0:
            raise EmptyFunction("evaluate on an MPHF with no keys")
        hi, lo = key >> 64, key & 0xFFFFFFFFFFFFFFFF
        bits, (_, rows) = self._bits, self._view
        for level_key, size, start in rows:
            pos = start + mix64(mix64(lo ^ level_key) ^ hi) % size
            hit, rank = bits.probe(pos)
            if hit:
                return rank
        return hash_words(hi, lo, self.seed) % self.n_keys

    def evaluate_many(self, lo, hi=None):
        """Vector evaluate over uint64 key arrays, in grouped level passes."""
        if self.n_keys == 0:
            raise EmptyFunction("evaluate on an MPHF with no keys")
        hi, lo = _as_key_arrays(lo, hi)
        bits, (levels, _) = self._bits, self._view
        out = np.empty(lo.size, dtype=np.int64)
        pending = np.arange(lo.size)   # the keys no level has placed yet
        cur_hi, cur_lo = hi, lo        # their words
        while pending.size and levels.size:   # levels: those not probed yet
            level_key, size, start = levels[:, :max(1, _GROUP // pending.size), None]
            levels = levels[:, size.size:]
            h = mix64_inplace(mix64_inplace(cur_lo ^ level_key) ^ cur_hi)
            hit, rank = bits.probe_many((h % size + start).view(np.int64))
            if size.size == 1:
                hit, rank = hit[0], rank[0]
            else:   # (levels, keys): a key's first set bit ranks lowest
                rank = np.where(hit, rank, self.n_keys).min(axis=0)
                hit = rank < self.n_keys
            out[pending[hit]] = rank[hit]
            pending = pending[~hit]
            cur_hi, cur_lo = hi[pending], lo[pending]
        if pending.size:
            out[pending] = (hash_words_array(cur_hi, cur_lo, self.seed)
                            % _U64(self.n_keys)).astype(np.int64)
        return out

    # --- introspection / persistence ---

    @property
    def num_levels(self):
        return len(self._sizes)

    @property
    def bits_per_key(self):
        """Measured space of the serialized function per key."""
        return self.size_in_bits() / self.n_keys if self.n_keys else 0.0

    def to_bytes(self):
        w = Writer()
        w.u64(self.n_keys)
        w.u64(self.seed)
        w.f64(self.gamma)
        w.u32(len(self._sizes))
        start = 0
        for nbits in self._sizes:
            w.u64(nbits)
            w.array(self._bits._words[start // 64:(start + nbits) // 64])
            start += nbits
        return w.getvalue()

    @classmethod
    def read_from(cls, r):
        n_keys, seed, gamma = r.u64(), r.u64(), r.f64()
        n_levels = r.u32()
        if n_levels > MAX_LEVELS:
            raise CorruptFile(f"MPHF header: {n_levels} levels")
        sizes, words = [], []
        for _ in range(n_levels):
            sizes.append(r.u64())
            # the build makes every level a positive multiple of 64 bits
            if sizes[-1] == 0 or sizes[-1] % 64:
                raise CorruptFile(f"MPHF level of {sizes[-1]} bits")
            words.append(r.array(_U64, sizes[-1] // 64))
        bits = RankBitvector(sum(sizes), np.concatenate([np.zeros(0, _U64), *words]))
        if bits.num_ones != n_keys:   # each key sets one bit in one level
            raise CorruptFile("MPHF level words disagree with its key count")
        return cls(n_keys, seed, gamma, sizes, bits)
