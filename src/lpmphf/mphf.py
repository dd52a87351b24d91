"""General-purpose minimal perfect hashing over 64- or 128-bit keys.

Multi-level fingerprint construction in the style of BBHash (Limasset et
al., SEA 2017): level l hashes the surviving keys into ceil(gamma * n_l)
bits and keeps the keys that land alone; levels are added until every key
is placed. A key's hash value is the rank of its set bit across the level
bitvectors, which makes the function minimal by construction. Expected
linear construction time, no retries needed. A build still holding keys
after `MAX_LEVELS` levels raises LpmphfError: a safety cap, which 10^6 keys
reach at gamma 0.5 but which gamma 2 (13 levels there) stays far below.

Keys are (hi, lo) uint64 pairs; plain 64-bit keys pass hi=0.

Serialized as n_keys, seed, gamma, the level count, the count of keys
placed outside the levels (a u32, always 0), then the levels.
"""

from functools import cached_property

import numpy as np

from ._binio import Writer
from .errors import CorruptFile, DuplicateKey, EmptyFunction, LpmphfError
from .kmers import (first_duplicate, hash_words, hash_words_array, mix64,
                    mix64_inplace, seed_key)
from .succinct import RankBitvector, _Serialized

__all__ = ["GeneralMphf", "DEFAULT_GAMMA", "MAX_LEVELS"]

_U64 = np.uint64
DEFAULT_GAMMA = 2.0
MAX_LEVELS = 64
_LEVEL_SALT = 0x9E3779B97F4A7C15


def _level_seed(seed, level):
    return mix64(seed + (level + 1) * _LEVEL_SALT)


def _as_key_arrays(lo, hi):
    lo = np.ascontiguousarray(lo, dtype=_U64)
    if hi is None:
        hi = np.zeros(lo.size, dtype=_U64)
    else:
        hi = np.ascontiguousarray(hi, dtype=_U64)
    if hi.size != lo.size:
        raise ValueError("hi and lo arrays must have equal length")
    return hi, lo


class GeneralMphf(_Serialized):
    """Minimal perfect hash over a static key set."""

    num_residual = 0   # keys placed outside the levels: none, by construction

    def __init__(self, n_keys, seed, gamma, levels):
        self.n_keys = n_keys
        self.seed = seed
        self.gamma = gamma
        self._levels = levels                      # list of RankBitvector

    @cached_property
    def _probes(self):
        """Per level: (pre-mixed level key, bitvector, value offset), built
        on the first evaluation so that loading mixes no seeds."""
        offsets = np.cumsum([0] + [bv.num_ones for bv in self._levels])
        return [(seed_key(_level_seed(self.seed, i)), bv, int(offsets[i]))
                for i, bv in enumerate(self._levels)]

    # --- construction ---

    @classmethod
    def build(cls, lo, hi=None, seed=0, gamma=DEFAULT_GAMMA):
        """Build over distinct keys given as uint64 arrays (hi optional)."""
        hi, lo = _as_key_arrays(lo, hi)
        dup = first_duplicate(hi, lo)
        if dup is not None:
            raise DuplicateKey(dup)
        levels = []
        cur_hi, cur_lo = hi, lo
        while cur_lo.size:
            if len(levels) == MAX_LEVELS:
                raise LpmphfError(f"{cur_lo.size} of {lo.size} keys still "
                                  f"collide after {MAX_LEVELS} MPHF levels "
                                  f"(gamma {gamma})")
            nbits = max(64, ((int(np.ceil(gamma * cur_lo.size)) + 63) // 64) * 64)
            h = (hash_words_array(cur_hi, cur_lo, _level_seed(seed, len(levels)))
                 % _U64(nbits)).astype(np.int64)
            counts = np.bincount(h, minlength=nbits)
            alone = counts[h] == 1
            levels.append(RankBitvector.from_positions(nbits, h[alone]))
            keep = ~alone
            cur_hi, cur_lo = cur_hi[keep], cur_lo[keep]
        return cls(lo.size, seed, gamma, levels)

    # --- evaluation ---

    def evaluate(self, key):
        """Hash value of one key (int, up to 128 bits).

        Build-set keys get their unique index in [0, n_keys); other keys get
        an arbitrary in-range value.
        """
        if self.n_keys == 0:
            raise EmptyFunction("evaluate on an MPHF with no keys")
        hi, lo = key >> 64, key & 0xFFFFFFFFFFFFFFFF
        for level_key, bv, offset in self._probes:
            pos = mix64(mix64(lo ^ level_key) ^ hi) % bv.nbits
            if bv.get(pos):
                return offset + bv.rank1(pos)
        return hash_words(hi, lo, self.seed) % self.n_keys

    def evaluate_many(self, lo, hi=None):
        """Vector evaluate over uint64 key arrays."""
        if self.n_keys == 0:
            raise EmptyFunction("evaluate on an MPHF with no keys")
        hi, lo = _as_key_arrays(lo, hi)
        out = np.empty(lo.size, dtype=np.int64)
        pending = np.arange(lo.size)   # the keys no level has placed yet
        cur_hi, cur_lo = hi, lo        # their words
        for level_key, bv, offset in self._probes:
            h = mix64_inplace(mix64_inplace(cur_lo ^ _U64(level_key)) ^ cur_hi)
            hit, rank = bv.probe_many((h % _U64(bv.nbits)).view(np.int64))
            out[pending[hit]] = offset + rank[hit]
            pending = pending[~hit]
            if pending.size == 0:
                return out
            cur_hi, cur_lo = hi[pending], lo[pending]
        out[pending] = (hash_words_array(cur_hi, cur_lo, self.seed)
                        % _U64(self.n_keys)).astype(np.int64)
        return out

    # --- introspection / persistence ---

    @property
    def num_levels(self):
        return len(self._levels)

    @property
    def bits_per_key(self):
        """Measured space of the serialized function per key."""
        return self.size_in_bits() / self.n_keys if self.n_keys else 0.0

    def to_bytes(self):
        w = Writer()
        w.u64(self.n_keys)
        w.u64(self.seed)
        w.f64(self.gamma)
        w.u32(len(self._levels))
        w.u32(0)
        for bv in self._levels:
            w.raw(bv.to_bytes())
        return w.getvalue()

    @classmethod
    def read_from(cls, r):
        n_keys, seed, gamma = r.u64(), r.u64(), r.f64()
        n_levels, n_outside = r.u32(), r.u32()
        if n_outside or n_levels > MAX_LEVELS:
            raise CorruptFile(f"MPHF header: {n_levels} levels and "
                              f"{n_outside} keys outside them")
        levels = [RankBitvector.read_from(r) for _ in range(n_levels)]
        # the build makes every level a positive multiple of 64 bits, and
        # each key sets one bit of one level
        if sum(bv.num_ones for bv in levels) != n_keys or any(
                bv.nbits == 0 or bv.nbits % 64 or bv.num_ones > bv.nbits
                for bv in levels):
            raise CorruptFile("MPHF level headers disagree with its key count")
        return cls(n_keys, seed, gamma, levels)
