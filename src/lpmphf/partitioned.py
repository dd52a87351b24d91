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
per-type slot rank then position. Ambiguous minimizers are stored as
right-max entries with a zero-size increment in L_r, so the right-max path
checks the size before trusting the implicit p1 = w.
"""

from enum import IntEnum

import numpy as np

from ._binio import Reader, Writer
# The six F401 names are unused here; bench/tracing.py wraps them here too.
from ._build import assemble_slots, build_fallback, finish_lookup  # noqa: F401
from ._lookup import kmer_minimizers, stream_plan  # noqa: F401
from .basic import LpMphf
from .minimizers import scan_spss  # noqa: F401
from .succinct import EliasFanoSeq, IntVector, TypeSequence

__all__ = ["FlType", "classify", "LpMphfPartitioned", "build_partitioned"]


class FlType(IntEnum):
    LEFT_RIGHT_MAX = 0
    LEFT_MAX = 1
    RIGHT_MAX = 2
    NON_MAX = 3


def classify(record, w):
    """FL type of a super-k-mer record (exactly one rule fires)."""
    return FlType(int(_classify_arrays(
        np.array([record.size], dtype=np.int64),
        np.array([record.p1], dtype=np.int64), w)[0]))


def _classify_arrays(sizes, p1, w):
    last = p1 - sizes + 1
    return (((last > 1).astype(np.int64) << 1) | (p1 < w)).astype(np.uint8)


class TypeCounts(tuple):
    """(n_lr, n_l, n_r, n_n) unambiguous super-k-mers per type, serialized
    as four u64."""

    def to_bytes(self):
        w = Writer()
        for c in self:
            w.u64(c)
        return w.getvalue()

    @classmethod
    def from_bytes(cls, buf):
        r = Reader(buf)
        out = cls(r.u64() for _ in range(4))
        r.done()
        return out


class LpMphfPartitioned(LpMphf):
    variant = "partitioned"
    variant_code = 1
    SECTIONS = (("R", TypeSequence), ("L_l", EliasFanoSeq),
                ("L_r", EliasFanoSeq), ("L_n", EliasFanoSeq),
                ("P_n", IntVector), ("type_counts", TypeCounts))

    def __init__(self, *args, **sections):
        super().__init__(*args, **sections)
        self.K_lr = self.type_counts[0] * self.scheme.w
        self.K_l, self.K_r, self.K_n = (
            int(ef.access(len(ef) - 1)) if len(ef) else 0
            for ef in (self.L_l, self.L_r, self.L_n))

    @staticmethod
    def _layout(slots, w):
        m = slots.slot_sizes.size
        slot_types = np.full(m, FlType.RIGHT_MAX, dtype=np.uint8)
        unamb = ~slots.slot_ambiguous
        slot_types[unamb] = _classify_arrays(
            slots.slot_sizes[unamb], slots.slot_p1[unamb], w)

        idx_l = np.flatnonzero(slot_types == FlType.LEFT_MAX)
        idx_r = np.flatnonzero(slot_types == FlType.RIGHT_MAX)
        idx_n = np.flatnonzero(slot_types == FlType.NON_MAX)
        n_lr = int(np.count_nonzero(slot_types == FlType.LEFT_RIGHT_MAX))

        def prefix_ef(idx):
            pref = np.concatenate([[0], np.cumsum(slots.slot_sizes[idx])])
            return EliasFanoSeq.from_values(pref, universe=int(pref[-1]))

        return {
            "R": TypeSequence.from_symbols(slot_types),
            "L_l": prefix_ef(idx_l), "L_r": prefix_ef(idx_r),
            "L_n": prefix_ef(idx_n),
            "P_n": IntVector.from_values(slots.slot_p1[idx_n],
                                         width=w.bit_length()),
            "type_counts": TypeCounts((
                n_lr, idx_l.size, int(np.count_nonzero(unamb[idx_r])),
                idx_n.size)),
        }

    def _slot_params(self, slot):
        w = self.scheme.w
        t = self.R.access_many(slot).astype(np.int64)
        j0 = self.R.rank_many(t, slot + 1) - 1
        base = np.empty(slot.size, dtype=np.int64)
        p1s = np.empty(slot.size, dtype=np.int64)
        sizes = np.empty(slot.size, dtype=np.int64)
        fb = np.zeros(slot.size, dtype=bool)

        sel = t == FlType.LEFT_RIGHT_MAX
        base[sel] = j0[sel] * w
        p1s[sel] = w
        sizes[sel] = w

        sel = t == FlType.LEFT_MAX
        if np.any(sel):
            lo = self.L_l.access_many(j0[sel])
            sz = self.L_l.access_many(j0[sel] + 1) - lo
            base[sel] = self.K_lr + lo
            sizes[sel] = sz
            p1s[sel] = sz
        sel = t == FlType.RIGHT_MAX
        if np.any(sel):
            lo = self.L_r.access_many(j0[sel])
            sz = self.L_r.access_many(j0[sel] + 1) - lo
            base[sel] = self.K_lr + self.K_l + lo
            sizes[sel] = sz
            p1s[sel] = w
            fb[sel] = sz == 0
        sel = t == FlType.NON_MAX
        if np.any(sel):
            lo = self.L_n.access_many(j0[sel])
            sz = self.L_n.access_many(j0[sel] + 1) - lo
            base[sel] = self.K_lr + self.K_l + self.K_r + lo
            sizes[sel] = sz
            p1s[sel] = self.P_n.get_many(j0[sel])
        return base, p1s, sizes, fb


def build_partitioned(spss, scheme, threads=1):
    """Build the partitioned structure over an SPSS."""
    return LpMphfPartitioned.build(spss, scheme, threads=threads)
