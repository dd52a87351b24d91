"""General-purpose minimal perfect hashing over 64- or 128-bit keys.

Multi-level fingerprint construction: level l hashes the surviving keys into
ceil(gamma * n_l) bits and keeps the keys that land alone; keys still
colliding after a fixed depth go into an explicit sorted residual index.
A key's hash value is the rank of its set bit across the level bitvectors
(residual keys come after all of those), which makes the function minimal
by construction. Expected linear construction time, no retries needed.

Keys are (hi, lo) uint64 pairs; plain 64-bit keys pass hi=0.
"""

from functools import cached_property

import numpy as np

from ._binio import Reader, Writer
from .errors import CorruptFile, DuplicateKey, EmptyFunction
from .kmers import (first_duplicate, hash_words, hash_words_array, mix64,
                    mix64_inplace, seed_key)
from .succinct import RankBitvector

__all__ = ["GeneralMphf", "DEFAULT_GAMMA", "MAX_LEVELS"]

_U64 = np.uint64
DEFAULT_GAMMA = 2.0
MAX_LEVELS = 12
_LEVEL_SALT = 0x9E3779B97F4A7C15
_KEY_PAIR = np.dtype([("hi", "<u8"), ("lo", "<u8")])


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


def _key_pairs(hi, lo):
    """Keys as one structured array, ordered and searched by (hi, lo)."""
    pairs = np.empty(hi.size, dtype=_KEY_PAIR)
    pairs["hi"], pairs["lo"] = hi, lo
    return pairs


class GeneralMphf:
    """Minimal perfect hash over a static key set."""

    def __init__(self, n_keys, seed, gamma, levels, residual_hi, residual_lo):
        self.n_keys = n_keys
        self.seed = seed
        self.gamma = gamma
        self._levels = levels                      # list of RankBitvector
        self._residual = _key_pairs(residual_hi, residual_lo)   # sorted

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
        n = lo.size
        dup = first_duplicate(hi, lo)
        if dup is not None:
            raise DuplicateKey(dup)
        levels = []
        cur_hi, cur_lo = hi, lo
        for level in range(MAX_LEVELS):
            if cur_lo.size == 0:
                break
            nbits = max(64, ((int(np.ceil(gamma * cur_lo.size)) + 63) // 64) * 64)
            h = (hash_words_array(cur_hi, cur_lo, _level_seed(seed, level))
                 % _U64(nbits)).astype(np.int64)
            counts = np.bincount(h, minlength=nbits)
            alone = counts[h] == 1
            levels.append(RankBitvector.from_positions(nbits, h[alone]))
            keep = ~alone
            cur_hi, cur_lo = cur_hi[keep], cur_lo[keep]
        if cur_lo.size:
            perm = np.lexsort((cur_lo, cur_hi))
            res_hi, res_lo = cur_hi[perm], cur_lo[perm]
        else:
            res_hi = res_lo = np.empty(0, dtype=_U64)
        return cls(n, seed, gamma, levels, res_hi, res_lo)

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
        if self._residual.size:
            pos, found = self._find_residual(np.array([hi], dtype=_U64),
                                             np.array([lo], dtype=_U64))
            if found[0]:
                return int(pos[0])
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
        vals = (hash_words_array(cur_hi, cur_lo, self.seed)
                % _U64(self.n_keys)).astype(np.int64)
        if self._residual.size:
            pos, found = self._find_residual(cur_hi, cur_lo)
            vals[found] = pos[found]
        out[pending] = vals
        return out

    def _find_residual(self, hi, lo):
        """Binary search of (hi, lo) keys in the sorted residual: each key's value
        (n_keys - residual size + its clipped index) and whether it is present."""
        keys = _key_pairs(hi, lo)
        pos = np.minimum(np.searchsorted(self._residual, keys),
                         self._residual.size - 1)
        return self.n_keys - self._residual.size + pos, self._residual[pos] == keys

    # --- introspection / persistence ---

    @property
    def num_levels(self):
        return len(self._levels)

    @property
    def num_residual(self):
        return int(self._residual.size)

    @property
    def bits_per_key(self):
        """Measured space of the serialized function per key."""
        if self.n_keys == 0:
            return 0.0
        return 8 * len(self.to_bytes()) / self.n_keys

    def size_in_bits(self):
        return 8 * len(self.to_bytes())

    def to_bytes(self):
        w = Writer()
        w.u64(self.n_keys)
        w.u64(self.seed)
        w.f64(self.gamma)
        w.u32(len(self._levels))
        w.u32(self._residual.size)
        for bv in self._levels:
            w.raw(bv.to_bytes())
        w.array(self._residual["hi"])
        w.array(self._residual["lo"])
        w.array(np.arange(self._residual.size, dtype=np.int64))
        return w.getvalue()

    @classmethod
    def read_from(cls, r):
        n_keys = r.u64()
        seed = r.u64()
        gamma = r.f64()
        n_levels = r.u32()
        n_res = r.u32()
        levels = [RankBitvector.read_from(r) for _ in range(n_levels)]
        # the build makes every level a positive multiple of 64 bits, and
        # each key sets one bit of one level or joins the residual
        if sum(bv.num_ones for bv in levels) + n_res != n_keys or any(
                bv.nbits == 0 or bv.nbits % 64 or bv.num_ones > bv.nbits
                for bv in levels):
            raise CorruptFile("MPHF level headers disagree with its key count")
        res_hi = r.array(_U64, n_res)
        res_lo = r.array(_U64, n_res)
        # a residual key's value is its rank in the sorted residual, so the
        # stored index words are always 0..n_res-1
        res_idx = r.array(np.int64, n_res)
        if n_res and np.any(res_idx != np.arange(n_res)):
            raise CorruptFile("MPHF residual index is not 0..n-1")
        # evaluation binary-searches the residual, so it must stay sorted
        if n_res > 1 and np.any(
                np.lexsort((res_lo, res_hi)) != np.arange(n_res)):
            raise CorruptFile("MPHF residual keys out of order")
        return cls(n_keys, seed, gamma, levels, res_hi, res_lo)

    @classmethod
    def from_bytes(cls, buf):
        r = Reader(buf)
        f = cls.read_from(r)
        r.done()
        return f
