"""Closed-form predictions and dataset statistics.

The calculators drop lower-order terms except for a single user-settable
additive constant (default 0.5) standing in for the o(1) of the space
bounds, per minimizer: rounding, word padding, headers and section frames.
It covers no rank directory, since files store none (format version 2
derives rank samples on load).
"""

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InputMismatch, LengthOutOfRange
from .kmers import int_in
from .minimizers import scan_spss

__all__ = ["density", "type_probabilities", "space_bound_basic",
           "space_bound_partitioned", "TheoryParams", "StatsReport", "stats"]

LOG2_E = math.log2(math.e)
_PARTITIONED_LOG_FACTOR = 16 * 2 ** 0.25 / 3


def density(w):
    """Expected fraction of k-mer positions starting a new minimizer: 2/(w+1)."""
    return 2.0 / (int_in("w", w, 1) + 1)


def type_probabilities(w):
    """(P_lr, P_l, P_r, P_n) for a random minimizer scheme with window w.

    With W = (1 - 1/w)/2: P_lr = W^2 + 1/w, P_l = P_r = W(1 - W), P_n = W^2.
    The four values sum to 1 exactly.
    """
    w = int_in("w", w, 1)
    W = 0.5 * (1.0 - 1.0 / w)
    side = W * (1.0 - W)
    return (W * W + 1.0 / w, side, side, W * W)


@dataclass(frozen=True)
class TheoryParams:
    """Scheme parameters feeding the space bounds.

    b is the measured (or assumed) bits/key of the inner MPHF and must
    exceed log2(e); little_oh stands in for the o(1) terms.
    """

    k: int
    m: int
    b: float = 2.5
    little_oh: float = 0.5

    def __post_init__(self):
        int_in("k", self.k, 1)
        int_in("m", self.m, 1)
        int_in("w = k - m + 1", self.w, 1)
        if not self.b > LOG2_E:
            raise LengthOutOfRange(
                f"b={self.b} does not exceed log2(e) = {LOG2_E:.4f}")

    @property
    def w(self):
        return self.k - self.m + 1


def _space_bound(n, params, xi, log_term):
    """n * 2/(w+1) * (log2(log_term) + b + little_oh) + xi*b*n."""
    per = density(params.w) * (math.log2(log_term) + params.b + params.little_oh)
    return n * (per + xi * params.b)


def space_bound_basic(n, params, xi=0.0):
    """Total bits of the un-partitioned structure: the log term is
    4(w+1)^2, plus the xi*b*n fallback add-on when xi is supplied."""
    return _space_bound(n, params, xi, 4.0 * (params.w + 1) ** 2)


def space_bound_partitioned(n, params, xi=0.0):
    """Total bits of the partitioned structure: the log term is
    16*2^(1/4)/3 * (w+1), plus the fallback add-on."""
    return _space_bound(n, params, xi, _PARTITIONED_LOG_FACTOR * (params.w + 1))


@dataclass
class StatsReport:
    """Measured quantities of a built structure next to their predictions."""

    variant: str
    n: int
    num_strings: int
    k: int
    m: int
    w: int
    alpha: float
    xi: float
    num_minimizers: int
    num_superkmers: int
    epsilon: float
    epsilon_predicted: float
    bits_per_kmer: float
    predicted_bits_basic: float
    predicted_bits_partitioned: float
    mphf_bits_per_key: float
    measured_proportions: tuple
    computed_proportions: tuple

    _ORDER = ("lr", "l", "r", "n")

    def to_dict(self):
        d = asdict(self)
        for name, mv, cv in zip(self._ORDER, d.pop("measured_proportions"),
                                d.pop("computed_proportions")):
            d[f"p_{name}_measured"] = mv
            d[f"p_{name}_computed"] = cv
        return d

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)

    def to_tsv(self):
        d = self.to_dict()
        fmt = lambda v: f"{v:.6g}" if isinstance(v, float) else str(v)
        lines = [f"{key}\t{fmt(val)}" for key, val in d.items()]
        return "\n".join(lines) + "\n"


def stats(spss, f, scan=None):
    """Measure epsilon, xi, alpha, and type proportions of a built structure
    (reusing `scan`, its `scan_spss`, if given) next to the predictions."""
    from .basic import epsilon_of_values
    from .partitioned import _classify_arrays

    if spss.n != f.n:
        raise InputMismatch(
            f"SPSS has {spss.n} k-mers, the structure {f.n}: not its build input")
    scan = scan_spss(spss, f.scheme) if scan is None else scan
    values = f._values_of_scan(spss, scan)   # >= 0, n of them
    if not np.array_equal(np.bincount(values, minlength=f.n), np.ones(f.n)):
        raise InputMismatch("the SPSS's k-mers do not take each value in "
                            f"[0, {f.n}) once: not the structure's build input")
    eps = epsilon_of_values(values, spss)
    xi = (f.n - f.n_unambiguous) / f.n   # fallback values lie at n_unambiguous up
    unamb = values[scan.kmer_base] < f.n_unambiguous
    types = _classify_arrays(scan.sizes[unamb], scan.p1[unamb], f.scheme.w)
    measured = tuple((np.bincount(types, minlength=4) / max(types.size, 1)).tolist())
    params = TheoryParams(k=f.scheme.k, m=f.scheme.m,
                          b=max(f.fm.bits_per_key, LOG2_E + 1e-9))
    return StatsReport(
        variant=f.variant,
        n=spss.n,
        num_strings=spss.num_strings,
        k=f.scheme.k, m=f.scheme.m, w=f.scheme.w,
        alpha=spss.fragmentation,
        xi=xi,
        num_minimizers=f.num_minimizers,
        num_superkmers=scan.num_superkmers,
        epsilon=eps,
        epsilon_predicted=density(f.scheme.w) + xi + spss.fragmentation,
        measured_proportions=measured,
        computed_proportions=type_probabilities(f.scheme.w),
        bits_per_kmer=f.bits_per_kmer(),
        predicted_bits_basic=space_bound_basic(spss.n, params, xi=xi) / spss.n,
        predicted_bits_partitioned=space_bound_partitioned(
            spss.n, params, xi=xi) / spss.n,
        mphf_bits_per_key=f.fm.bits_per_key,
    )
