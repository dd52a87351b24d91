"""The locality-preserving MPHF engine, and its un-partitioned (basic) layout.

Engine (`LpMphf`): an inner MPHF fm gives every distinct minimizer
(ambiguous ones included) a slot. A layout resolves a slot to
(base, p1, size): the first codomain value of the slot's super-k-mer, the
minimizer position in its first k-mer, and its k-mer count. A k-mer with
minimizer position p then hashes to base + p1 - p, so the k-mers of one
super-k-mer get consecutive values in string order. K-mers whose minimizer
is ambiguous (a slot the layout marks as fallback) hash to
n_unambiguous + fallback(x) instead; non-member queries return an arbitrary
in-range value unless checked lookup detects an impossible minimizer
position. The engine owns construction, every lookup path, diagnostics and
serialization; a layout subclass only encodes and decodes the slot data.

Basic layout: an Elias-Fano array L of length |M|+1 holding prefix sums of
super-k-mer sizes in slot order (L[0]=0, ambiguous slots contribute 0), and
a fixed-width array P of the minimizer position in each super-k-mer's first
k-mer (sentinel 0 on ambiguous slots). Slot i resolves to
(L[i], P[i], L[i+1] - L[i]); the codomain is 0-based, so the slot-i
super-k-mer occupies [L[i], L[i+1]).
"""

import numpy as np

from ._build import (ambiguous_kmer_words, assemble_slots, build_fallback,
                     expand_ranges, finish_lookup)
from ._lookup import kmer_minimizers, resolve_kmer_input, stream_plan
from .errors import CorruptFile, DefiniteMiss
from .kmers import Kmer
from .minimizers import (minimizer, scan_spss,
                         warn_if_density_condition_violated)
from .succinct import EliasFanoSeq, IntVector

__all__ = ["LpMphf", "LpMphfBasic", "build_basic", "measure_epsilon"]


class LpMphf:
    """Build, lookup and persistence shared by every slot layout.

    A layout subclass declares `variant`, `variant_code` (its code in the
    file header), `SECTIONS` (its serialized components in file order, as
    (attribute, type with to_bytes/from_bytes) pairs), `_layout(slots, w)`
    building those components from a SlotAssembly, `_slot_params(slot)`
    returning (base, p1, size, fallback mask) per slot of a slot array, and
    `_slot_param(slot)` returning the same four for one slot as Python
    values.
    """

    def __init__(self, scheme, n, n_unambiguous, fm, fallback, **sections):
        self.scheme = scheme
        self.n = n
        self.n_unambiguous = n_unambiguous
        self.fm = fm
        self.fallback = fallback
        for name, _ in self.SECTIONS:
            setattr(self, name, sections[name])

    @property
    def num_minimizers(self):
        return self.fm.n_keys

    # --- construction ---

    @classmethod
    def build(cls, spss, scheme, threads=1, scan=None):
        """Build over an SPSS, reusing `scan` (its `scan_spss`) if given.
        `threads` has no effect; `bench/run.py` still passes it."""
        warn_if_density_condition_violated(scheme)
        scan = scan_spss(spss, scheme) if scan is None else scan
        slots = assemble_slots(scan, scheme.seed)
        sections = cls._layout(slots, scheme.w)
        fallback = build_fallback(spss, scan, slots.skm_ambiguous, scheme.seed)
        return cls(scheme, scan.n, slots.n_unambiguous, slots.fm, fallback,
                   **sections)

    # --- lookup ---

    def lookup_words(self, hi, lo, checked=False):
        """Vector lookup over packed k-mer word arrays."""
        mvals, p = kmer_minimizers(hi, lo, self.scheme)
        slot = self.fm.evaluate_many(mvals)
        base, p1s, sizes, fb = self._slot_params(slot)
        return finish_lookup(base, p1s, sizes, p, fb,
                             lambda: (hi[fb], lo[fb]), self, checked)

    def lookup(self, x, checked=False):
        """Hash one k-mer (Kmer, DNA string, or packed int).

        The scalar form of `lookup_words`, on Python ints: one minimizer
        scan, one inner-MPHF evaluation and one slot decode.
        """
        k = self.scheme.k
        value = resolve_kmer_input(x, k)
        hit = minimizer(Kmer(k, value), self.scheme)
        base, p1, size, fb = self._slot_param(self.fm.evaluate(hit.mmer))
        if fb:
            return self.n_unambiguous + self.fallback.evaluate(value)
        r = p1 - hit.pos + 1
        if 1 <= r <= size:
            return base + r - 1
        if checked:
            raise DefiniteMiss("k-mer cannot be in the indexed set")
        return min(max(base + r - 1, 0), self.n - 1)

    def stream_lookup(self, q, checked=False):
        """One value per consecutive k-mer of a query string.

        Equal to per-k-mer lookups elementwise; slots, values and misses are
        resolved once per run of k-mers sharing a minimizer occurrence.
        """
        plan = stream_plan(q, self.scheme)
        slot = self.fm.evaluate_many(plan.scan.minvals)
        base, p1s, sizes, fb = self._slot_params(slot)
        return plan.expand(base, p1s, sizes, fb, self, checked)

    # --- diagnostics ---

    def assigned_values(self, spss):
        """Build-side value of every k-mer, in SPSS order.

        Independent of the query path: derived from the super-k-mer scan and
        the stored arrays, it is the table lookups are checked against.
        """
        return self._values_of_scan(spss, scan_spss(spss, self.scheme))

    def _values_of_scan(self, spss, scan):
        base, _, sizes, _ = self._slot_params(
            self.fm.evaluate_many(scan.minvals))
        amb = sizes != scan.sizes  # ambiguous slots carry size 0
        out = expand_ranges(base, scan.sizes)  # super-k-mers tile the k-mers
        if np.any(amb):
            hi, lo = ambiguous_kmer_words(spss, scan, amb)
            out[np.repeat(amb, scan.sizes)] = (
                self.n_unambiguous + self.fallback.evaluate_many(lo, hi))
        return out

    def size_in_bits(self):
        return 8 * len(self.to_bytes())

    def bits_per_kmer(self):
        return self.size_in_bits() / self.n

    def to_bytes(self):
        from .storage import structure_to_bytes
        return structure_to_bytes(self)

    def save(self, path):
        from .storage import save_structure
        save_structure(self, path)


class LpMphfBasic(LpMphf):
    variant = "basic"
    variant_code = 0
    SECTIONS = (("L", EliasFanoSeq), ("P", IntVector))

    def __init__(self, *args, **sections):
        super().__init__(*args, **sections)
        m = self.num_minimizers
        if (len(self.L), len(self.P)) != (m + 1, m) or \
                self.L.last() != self.n_unambiguous:
            raise CorruptFile("slot arrays disagree with the minimizer and "
                              "k-mer counts")

    @staticmethod
    def _layout(slots, w):
        prefix = np.concatenate([[0], np.cumsum(slots.slot_sizes)])
        return {"L": EliasFanoSeq.from_values(prefix,
                                              universe=slots.n_unambiguous),
                "P": IntVector.from_values(slots.slot_p1,
                                           width=w.bit_length())}

    def _slot_params(self, slot):
        lo, hi = self.L.bounds_many(slot)
        sizes = hi - lo
        return lo, self.P.get_many(slot), sizes, sizes == 0

    def _slot_param(self, slot):
        lo, hi = self.L.bounds(slot)
        return lo, self.P.get(slot), hi - lo, hi == lo


def build_basic(spss, scheme, threads=1):
    """Build the un-partitioned structure over an SPSS (`threads`: see
    `LpMphf.build`)."""
    return LpMphfBasic.build(spss, scheme)


def measure_epsilon(struct, spss):
    """Fraction of adjacent in-string k-mer pairs NOT mapped to consecutive
    values: epsilon = 1 - |A|/n, from the build-side value table."""
    return epsilon_of_values(struct.assigned_values(spss), spss)


def epsilon_of_values(values, spss):
    """`measure_epsilon` from the value table `assigned_values` returned."""
    consecutive = np.diff(values) == 1
    consecutive[spss.kmer_starts[1:] - 1] = False   # pairs across strings
    return 1.0 - int(np.count_nonzero(consecutive)) / spss.n
