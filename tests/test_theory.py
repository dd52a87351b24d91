import json
import math

import numpy as np
import pytest

from lpmphf import (MinimizerScheme, TheoryParams, build_basic,
                    build_partitioned, density, generate_spss, space_bound_basic,
                    space_bound_partitioned, spss_from_strings, stats,
                    type_probabilities)
from lpmphf.errors import InputMismatch, LengthOutOfRange

from conftest import find_single_superkmer


def test_density_values():
    assert density(1) == 1.0
    assert density(11) == pytest.approx(2 / 12)
    ds = [density(w) for w in range(1, 1001)]
    assert all(a > b for a, b in zip(ds, ds[1:]))


def test_density_rejects_bad_w():
    with pytest.raises(LengthOutOfRange):
        density(0)


@pytest.mark.parametrize("bad", [0, -3, 2.5, 3.0, "3", None])
def test_window_calculators_take_integers_from_1_only(bad):
    for calc in (density, type_probabilities):
        with pytest.raises(LengthOutOfRange):
            calc(bad)
    assert density(np.int64(11)) == density(11)
    assert type_probabilities(np.uint8(11)) == type_probabilities(11)


def test_type_probabilities_table_values():
    # reference values at (k=31, m=21) and (k=47, m=26), 3 decimals
    for w, expected in [(11, (0.297, 0.248, 0.248, 0.207)),
                        (22, (0.273, 0.249, 0.249, 0.228))]:
        got = type_probabilities(w)
        for g, e in zip(got, expected):
            assert abs(g - e) < 1e-3


def test_type_probabilities_from_first_principles():
    # independent recomputation of the closed forms
    for w in (2, 7, 11, 22, 100):
        W = 0.5 * (1 - 1 / w)
        got = type_probabilities(w)
        assert got[0] == pytest.approx(W * W + 1 / w, abs=1e-15)
        assert got[1] == got[2] == pytest.approx(W * (1 - W), abs=1e-15)
        assert got[3] == pytest.approx(W * W, abs=1e-15)


def test_type_probabilities_partition():
    for w in range(1, 500):
        p = type_probabilities(w)
        assert all(0.0 <= x <= 1.0 for x in p)
        assert sum(p) == pytest.approx(1.0, abs=1e-12)
        assert p[1] == p[2]
    assert type_probabilities(1) == (1.0, 0.0, 0.0, 0.0)


def test_space_bound_basic_value():
    params = TheoryParams(k=31, m=21, b=2.5, little_oh=0.5)
    # independent evaluation of the formula at w=11, n=1
    want = (2 / 12) * (math.log2(4 * 12 ** 2) + 2.5 + 0.5)
    got = space_bound_basic(1, params)
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(2.028, abs=5e-4)


def test_space_bound_partitioned_value():
    params = TheoryParams(k=31, m=21, b=2.5, little_oh=0.5)
    want = (2 / 12) * (math.log2((16 * 2 ** 0.25 / 3) * 12) + 2.5 + 0.5)
    got = space_bound_partitioned(1, params)
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(9.25 / 6, abs=1e-12)   # log2 term is exactly 6.25


def test_space_bounds_monotonicity():
    bounds_b = [space_bound_basic(1, TheoryParams(k=w + 10, m=11, b=2.5))
                for w in range(4, 1000, 7)]
    assert all(a > b for a, b in zip(bounds_b, bounds_b[1:]))
    bs = [space_bound_basic(1, TheoryParams(k=31, m=21, b=b))
          for b in (1.5, 2.0, 2.5, 3.0)]
    assert all(a < b for a, b in zip(bs, bs[1:]))


def test_partitioned_bound_below_basic_and_ratio_grows():
    ratios = []
    for w in range(2, 400, 13):
        params = TheoryParams(k=w + 5, m=6, b=2.5)
        b = space_bound_basic(1, params)
        p = space_bound_partitioned(1, params)
        assert p < b
        ratios.append(b / p)
    assert all(a < b for a, b in zip(ratios, ratios[1:]))


def test_fallback_addon():
    params = TheoryParams(k=31, m=21, b=3.0)
    base = space_bound_basic(100, params, xi=0.0)
    with_xi = space_bound_basic(100, params, xi=0.02)
    assert with_xi == pytest.approx(base + 100 * 0.02 * 3.0, abs=1e-9)


def test_theory_params_validation():
    with pytest.raises(LengthOutOfRange):
        TheoryParams(k=31, m=21, b=1.4)   # below log2(e)
    with pytest.raises(LengthOutOfRange):
        TheoryParams(k=10, m=12)


@pytest.mark.parametrize("kw", [dict(k=31.5, m=15), dict(k=31, m=15.0),
                                dict(k=0, m=0), dict(k=31, m=15, b=float("nan"))])
def test_theory_params_out_of_range_are_typed(kw):
    with pytest.raises(LengthOutOfRange):
        TheoryParams(**kw)


def test_theory_params_take_numpy_integers():
    params = TheoryParams(k=np.int64(31), m=np.uint8(15))
    assert params.w == 17
    assert space_bound_basic(10, params) == space_bound_basic(
        10, TheoryParams(k=31, m=15))


# --- stats -----------------------------------------------------------------------

@pytest.mark.parametrize("build", [build_basic, build_partitioned])
def test_stats_rejects_a_foreign_spss(build):
    # one of another k-mer count, and one of the same count whose k-mers
    # do not take each value once
    own, same_n, fewer = (generate_spss(n, 31, seed=s)
                          for n, s in ((2000, 1), (2000, 2), (1500, 1)))
    f = build(own, MinimizerScheme(k=31, m=12, seed=3))
    assert stats(own, f).n == same_n.n == f.n != fewer.n
    for foreign in (same_n, fewer):
        with pytest.raises(InputMismatch):
            stats(foreign, f)


def test_stats_single_superkmer():
    s, scheme = find_single_superkmer(k=13, m=7, size=5)
    spss = spss_from_strings([s], k=13)
    f = build_basic(spss, scheme)
    rep = stats(spss, f)
    assert rep.alpha == 0.0
    assert rep.epsilon == pytest.approx(1 / spss.n)
    assert rep.xi == 0.0


def test_stats_measured_vs_computed(medium_spss):
    scheme = MinimizerScheme(k=31, m=21, seed=3)
    f = build_partitioned(medium_spss, scheme)
    rep = stats(medium_spss, f)
    assert sum(rep.measured_proportions) == pytest.approx(1.0, abs=1e-9)
    for got, want in zip(rep.measured_proportions, rep.computed_proportions):
        assert abs(got - want) <= 0.02
    assert rep.epsilon >= rep.alpha + 1 / rep.n
    assert rep.bits_per_kmer > 0
    assert rep.predicted_bits_partitioned < rep.predicted_bits_basic


def test_stats_epsilon_lower_bound_various(rng):
    from oracles import random_dna
    strings = [random_dna(rng, int(rng.integers(31, 200))) for _ in range(5)]
    spss = spss_from_strings(strings, k=31)
    f = build_basic(spss, MinimizerScheme(k=31, m=15, seed=1))
    rep = stats(spss, f)
    assert rep.epsilon >= rep.alpha + 1 / rep.n - 1e-12


def test_stats_serialization_formats(small_spss):
    f = build_basic(small_spss, MinimizerScheme(k=31, m=15, seed=1))
    rep = stats(small_spss, f)
    d = json.loads(rep.to_json())
    assert d["n"] == small_spss.n
    lines = rep.to_tsv().strip().split("\n")
    parsed = dict(line.split("\t") for line in lines)
    assert int(parsed["n"]) == small_spss.n
    assert "p_lr_measured" in parsed


STATS_KEYS = [
    "variant", "n", "num_strings", "k", "m", "w", "alpha", "xi",
    "num_minimizers", "num_superkmers", "epsilon", "epsilon_predicted",
    "bits_per_kmer", "predicted_bits_basic", "predicted_bits_partitioned",
    "mphf_bits_per_key", "p_lr_measured", "p_lr_computed", "p_l_measured",
    "p_l_computed", "p_r_measured", "p_r_computed", "p_n_measured",
    "p_n_computed"]


@pytest.mark.parametrize("build", [build_basic, build_partitioned])
def test_stats_key_order(small_spss, build):
    """`stats` output keeps one key order in the dict, the JSON and the TSV."""
    rep = stats(small_spss, build(small_spss, MinimizerScheme(k=31, m=15, seed=1)))
    d = rep.to_dict()
    assert list(d) == STATS_KEYS
    assert list(json.loads(rep.to_json())) == STATS_KEYS
    assert [line.split("\t")[0] for line in rep.to_tsv().splitlines()] == STATS_KEYS
    assert d["variant"] == rep.variant
    assert [d[f"p_{t}_measured"] for t in ("lr", "l", "r", "n")] == list(
        rep.measured_proportions)
    assert [d[f"p_{t}_computed"] for t in ("lr", "l", "r", "n")] == list(
        rep.computed_proportions)
