"""Partitioned slot layout for the locality-preserving MPHF engine.

Super-k-mers are classified from the minimizer position in their first and
last k-mers (first/last rule). Since the last position is p1 - size + 1,
knowing the type makes part of the data implicit:

  left-right-max  p1 = w and last = 1: size and p1 both implicit (= w)
  left-max        p1 < w and last = 1: p1 = size, only the size is stored
  right-max       p1 = w and last > 1: p1 implicit, only the size is stored
  non-max         otherwise:           size and p1 both stored

A 4-symbol type sequence R in minimizer-slot order routes a slot to
per-type size-prefix arrays (L_l, L_r, L_n, compressed with Elias-Fano) and
the non-max position array P_n. The codomain is arranged as
[left-right-max | left-max | right-max | non-max | fallback] with k-mer-count
block prefixes K_lr, K_l, K_r, K_n; within a block, k-mers are ordered by
per-type slot rank then position. An ambiguous minimizer is stored as a
right-max entry with a zero-size increment in L_r; its slot decodes to size
0, which the engine reads as the fallback, so the implicit p1 = w is never
used there. A batch of slots is
decoded by one descent of R, then per type through that type's own
sequence, as one slot is.
"""

from enum import IntEnum

import numpy as np

from ._binio import Writer
# The six F401 names are unused here; bench/tracing.py wraps them here too.
from ._build import assemble_slots, build_fallback  # noqa: F401
from ._lookup import finish_lookup, kmer_minimizers, stream_plan  # noqa: F401
from .basic import LpMphf
from .errors import CorruptFile
from .minimizers import scan_spss  # noqa: F401
from .succinct import EliasFanoSeq, IntVector, TypeSequence, _Serialized

__all__ = ["FlType", "LpMphfPartitioned", "build_partitioned"]


class FlType(IntEnum):
    LEFT_RIGHT_MAX = 0
    LEFT_MAX = 1
    RIGHT_MAX = 2
    NON_MAX = 3


def _classify_arrays(sizes, p1, w):
    """FL type of each super-k-mer (exactly one rule fires)."""
    last = p1 - sizes + 1
    return (((last > 1).astype(np.int64) << 1) | (p1 < w)).astype(np.uint8)


class TypeCounts(_Serialized, tuple):
    """(n_lr, n_l, n_r, n_n) unambiguous super-k-mers per type, serialized
    as four u64."""

    def to_bytes(self):
        w = Writer()
        for c in self:
            w.u64(c)
        return w.getvalue()

    @classmethod
    def read_from(cls, r):
        return cls(r.u64() for _ in range(4))


class LpMphfPartitioned(LpMphf):
    variant = "partitioned"
    variant_code = 1
    SECTIONS = (("R", TypeSequence), ("L_l", EliasFanoSeq),
                ("L_r", EliasFanoSeq), ("L_n", EliasFanoSeq),
                ("P_n", IntVector), ("type_counts", TypeCounts))

    def __init__(self, *args, **sections):
        super().__init__(*args, **sections)
        R, (n_lr, n_l, _, n_n) = self.R, self.type_counts
        efs = (self.L_l, self.L_r, self.L_n)
        per_type = [n_lr] + [ef.length - 1 for ef in efs]
        if (R.length != self.num_minimizers or (n_l, n_n, n_n) != (
                per_type[1], per_type[3], len(self.P_n)) or
                self.P_n.width != self.scheme.w.bit_length() or
                R.counts != per_type):
            raise CorruptFile("type counts disagree with the slot layout")
        self.K_lr, self.K_l, self.K_r, self.K_n = K = [n_lr * self.scheme.w] + [
            ef.last() for ef in efs]
        if sum(K) != self.n_unambiguous:
            raise CorruptFile("type blocks disagree with the k-mer count")
        # (size prefixes, first codomain value), at index type - 1
        self._blocks = tuple(zip(efs, (K[0], K[0] + K[1], K[0] + K[1] + K[2])))

    @staticmethod
    def _layout(slots, w):
        unamb = slots.slot_sizes > 0
        slot_types = np.where(unamb, _classify_arrays(
            slots.slot_sizes, slots.slot_p1, w), FlType.RIGHT_MAX.value)
        idx_lr, idx_l, idx_r, idx_n = (np.flatnonzero(slot_types == t)
                                       for t in FlType)

        def prefix_ef(idx):
            pref = np.concatenate([[0], np.cumsum(slots.slot_sizes[idx])])
            return EliasFanoSeq.from_values(pref, universe=int(pref[-1]))

        return {
            "R": TypeSequence.from_symbols(slot_types),
            "L_l": prefix_ef(idx_l), "L_r": prefix_ef(idx_r), "L_n": prefix_ef(idx_n),
            "P_n": IntVector.from_values(slots.slot_p1[idx_n],
                                         width=w.bit_length()),
            "type_counts": TypeCounts((idx_lr.size, idx_l.size, int(
                np.count_nonzero(unamb[idx_r])), idx_n.size)),
        }

    def _slot_params(self, slot):
        w = self.scheme.w
        t, j = self.R.access_many(slot)
        base, sizes = j * w, np.full(t.size, w)   # left-right-max: both w
        for ty, (ef, offset) in enumerate(self._blocks, 1):
            of = (t == ty).nonzero()[0]   # indexes three times: cheaper than a mask
            lo, hi = ef.bounds_many(j[of])
            base[of], sizes[of] = offset + lo, hi - lo
        p1s = np.where(t == FlType.LEFT_MAX.value, sizes, w)
        nm = t == FlType.NON_MAX.value
        p1s[nm] = self.P_n.get_many(j[nm])
        return base, p1s, sizes

    def _slot_param(self, slot):
        w = self.scheme.w
        t, j0 = self.R.access(slot)
        if t == FlType.LEFT_RIGHT_MAX:
            return j0 * w, w, w
        ef, offset = self._blocks[t - 1]
        lo, hi = ef.bounds(j0)
        p1 = (hi - lo if t == FlType.LEFT_MAX else w if t == FlType.RIGHT_MAX
              else self.P_n.get(j0))
        return offset + lo, p1, hi - lo


def build_partitioned(spss, scheme, threads=1):
    """Build the partitioned structure over an SPSS. `threads` has no
    effect: `bench/run.py` passes it, and ROADMAP item D removes it."""
    return LpMphfPartitioned.build(spss, scheme)
