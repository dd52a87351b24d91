import importlib
import importlib.util
import os
import pkgutil
import random
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import lpmphf
from lpmphf import (Kmer, MinimizerScheme, SpssInput, build_basic,
                    generate_spss, measure_epsilon, mphf, spss_from_strings)
from lpmphf.errors import DefiniteMiss, InvalidBase, KMismatch
from lpmphf.kmers import kmer_words
from lpmphf.minimizers import MinimizerDensityWarning, scan_spss
from lpmphf.storage import structure_from_bytes, structure_to_bytes

from conftest import BUILDERS, SCALAR_SHAPES, find_single_superkmer
from oracles import all_kmers, random_dna

AMBIG = pytest.mark.filterwarnings("ignore::lpmphf.minimizers.MinimizerDensityWarning")


@pytest.fixture(scope="module")
def scheme():
    return MinimizerScheme(k=31, m=15, seed=17)


@pytest.fixture(scope="module")
def built(small_spss, scheme):
    return build_basic(small_spss, scheme)


def stream_all(f, spss):
    return np.concatenate([f.stream_lookup(c) for c in spss.codes])


def test_non_ascii_character_of_a_str_query_is_named(built, small_spss):
    q = small_spss.strings[0]
    for call, query, at in ((built.lookup, q[:30] + "\u00e9", 30),
                            (built.stream_lookup, q[:33] + "\u00e9" + q[34:40], 33)):
        with pytest.raises(InvalidBase, match=rf"base '\\xe9' at position {at} "):
            call(query)


@pytest.mark.parametrize("module", ["lpmphf"] + [
    f"lpmphf.{m.name}" for m in pkgutil.iter_modules(lpmphf.__path__)])
def test_public_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing: {missing}"
    exec(f"from {module} import *", {})


def test_singleton_spss():
    spss = spss_from_strings(["ACGTTGACCAGTAGCTTGACCAGTAGCATCA"], k=31)
    f = build_basic(spss, MinimizerScheme(k=31, m=15, seed=0))
    assert f.n == 1
    assert f.lookup(spss.strings[0]) == 0


def test_single_superkmer_maps_to_consecutive_block():
    s, scheme = find_single_superkmer(k=13, m=7, size=4)
    spss = spss_from_strings([s], k=13)
    f = build_basic(spss, scheme)
    vals = [f.lookup(km) for km in all_kmers(s, 13)]
    assert vals == [vals[0] + i for i in range(4)]


def test_bijectivity(built, small_spss):
    vals = stream_all(built, small_spss)
    assert np.array_equal(np.sort(vals), np.arange(built.n))


def test_lookup_matches_assigned_table(built, small_spss, rng):
    table = built.assigned_values(small_spss)
    vals = stream_all(built, small_spss)
    assert np.array_equal(vals, table)
    # spot-check the scalar path against the table
    s = small_spss.strings[0]
    for i in rng.integers(0, len(s) - 31 + 1, size=50):
        assert built.lookup(s[int(i):int(i) + 31]) == int(table[i])


def test_lookup_words_matches_stream(built, small_spss):
    codes = small_spss.codes[0]
    hi, lo = kmer_words(codes, 31)
    assert np.array_equal(built.lookup_words(hi, lo), built.stream_lookup(codes))


def test_consecutive_kmers_get_consecutive_values(built, small_spss, scheme):
    vals = stream_all(built, small_spss)
    scan = scan_spss(small_spss, scheme)
    inside = np.ones(built.n, dtype=bool)
    inside[scan.kmer_base] = False           # first k-mer of each super-k-mer
    diffs = np.diff(vals)
    # positions whose predecessor is in the same super-k-mer must be +1
    same = inside[1:]
    same[small_spss.kmer_starts[1:] - 1] = False   # pairs across strings
    assert np.all(diffs[same] == 1)


def test_first_kmer_of_superkmer_gets_block_base(built, small_spss, scheme):
    # f(first k-mer) = number of k-mers before the super-k-mer in slot order
    vals = stream_all(built, small_spss)
    scan = scan_spss(small_spss, scheme)
    slots = built.fm.evaluate_many(scan.minvals)
    L_vals = built.L.access_many(slots)
    sizes = built.L.access_many(slots + 1) - L_vals
    unamb = sizes == scan.sizes
    assert np.array_equal(vals[scan.kmer_base[unamb]], L_vals[unamb])


def test_epsilon_single_superkmer_is_1_over_n():
    s, scheme = find_single_superkmer(k=13, m=7, size=5)
    spss = spss_from_strings([s], k=13)
    f = build_basic(spss, scheme)
    assert measure_epsilon(f, spss) == pytest.approx(1 / spss.n)


def test_epsilon_max_fragmentation_is_one(rng):
    strings, seen = [], set()
    while len(strings) < 20:
        s = random_dna(rng, 31)
        if s not in seen:
            seen.add(s)
            strings.append(s)
    spss = spss_from_strings(strings, k=31)
    f = build_basic(spss, MinimizerScheme(k=31, m=15, seed=1))
    assert measure_epsilon(f, spss) == 1.0


def test_epsilon_ignores_pairs_across_strings():
    # one k-mer per string, the strings put in the order of their values:
    # every adjacent pair gets consecutive values, yet none lies inside a
    # string, so epsilon is 1
    rng = np.random.default_rng(7)
    strings = sorted({random_dna(rng, 31) for _ in range(300)})
    spss, scheme = spss_from_strings(strings, k=31), MinimizerScheme(k=31, m=15, seed=1)
    for build in BUILDERS:
        vals = build(spss, scheme).assigned_values(spss)
        ordered = spss_from_strings([strings[i] for i in np.argsort(vals)], k=31)
        f = build(ordered, scheme)
        assert np.array_equal(f.assigned_values(ordered), np.arange(f.n))
        assert measure_epsilon(f, ordered) == 1.0


def test_epsilon_tracks_density(medium_spss):
    scheme = MinimizerScheme(k=31, m=15, seed=23)
    f = build_basic(medium_spss, scheme)
    eps = measure_epsilon(f, medium_spss)
    from lpmphf import census
    xi = census(medium_spss, scheme).xi
    d = 2 / (scheme.w + 1)
    assert abs(eps - (d + xi)) / d < 0.20
    assert eps >= medium_spss.fragmentation + 1 / medium_spss.n


@AMBIG
def test_ambiguous_minimizers_use_fallback_block():
    spss = generate_spss(20_000, 31, seed=31)
    scheme = MinimizerScheme(k=31, m=5, seed=2)   # tiny m forces collisions
    f = build_basic(spss, scheme)
    assert f.fallback.n_keys > 0
    assert f.n_unambiguous + f.fallback.n_keys == f.n
    vals = stream_all(f, spss)
    assert np.array_equal(np.sort(vals), np.arange(f.n))
    table = f.assigned_values(spss)
    assert np.array_equal(vals, table)
    # ambiguous k-mers land after every positionally-ranked k-mer
    scan = scan_spss(spss, scheme)
    from lpmphf.minimizers import census_from_scan
    cen = census_from_scan(scan)
    amb = cen.counts[np.searchsorted(cen.distinct, scan.minvals)] > 1
    for skm in np.flatnonzero(amb)[:50]:
        base = int(scan.kmer_base[skm])
        assert np.all(vals[base:base + int(scan.sizes[skm])] >= f.n_unambiguous)


def test_density_condition_warning():
    spss = generate_spss(2000, 31, seed=5)
    with pytest.warns(MinimizerDensityWarning):
        build_basic(spss, MinimizerScheme(k=31, m=5, seed=0))


def test_checked_lookup_definite_miss(built, small_spss, rng):
    # non-members either get an arbitrary in-range value or a definite miss;
    # scan until we see at least one of each
    miss = hit = 0
    member = set()
    for s in small_spss.strings:
        member.update(all_kmers(s, 31))
    for _ in range(3000):
        q = random_dna(rng, 31)
        if q in member:
            continue
        try:
            v = built.lookup(q, checked=True)
            assert 0 <= v < built.n
            hit += 1
        except DefiniteMiss:
            miss += 1
        if miss and hit:
            break
    assert miss > 0, "no detectable miss found"
    assert hit > 0, "no in-range non-member found"


def test_unchecked_lookup_always_in_range(built, rng):
    for _ in range(500):
        v = built.lookup(random_dna(rng, 31), checked=False)
        assert 0 <= v < built.n


@AMBIG
@pytest.mark.parametrize("build", BUILDERS)
@pytest.mark.parametrize("shape", SCALAR_SHAPES)
def test_scalar_lookup_equals_vector(shape, build):
    spss, scheme = shape()
    f = build(spss, scheme)
    k = scheme.k
    keys = [(int(h) << 64) | int(x) for c in spss.codes
            for h, x in zip(*kmer_words(c, k))]
    members, rnd = set(keys), random.Random(k)
    while len(keys) < f.n + 2000:
        x = rnd.getrandbits(2 * k)
        if x not in members:
            keys.append(x)
    qhi = np.array([x >> 64 for x in keys], dtype=np.uint64)
    qlo = np.array([x & (2 ** 64 - 1) for x in keys], dtype=np.uint64)
    unchecked = f.lookup_words(qhi, qlo).tolist()
    checked = f.lookup_words(qhi, qlo, checked=True).tolist()
    assert -1 in checked
    for x, u, c in zip(keys, unchecked, checked):
        km = Kmer(k, x)
        assert f.lookup(x) == f.lookup(km) == f.lookup(str(km)) == u
        assert f.lookup(str(km).encode()) == u
        assert x >> 63 or f.lookup(np.int64(x)) == u
        if c < 0:
            with pytest.raises(DefiniteMiss):
                f.lookup(x, checked=True)
        else:
            assert f.lookup(x, checked=True) == c
    # a packed value is an integer, never a float
    for bad in ("A" * (k - 1), b"A" * (k - 1), Kmer(k - 1, 0), 4 ** k, -1,
                3.7, 3.0, np.float64(3), None, [3]):
        with pytest.raises(KMismatch):
            f.lookup(bad)


def test_member_checked_equals_unchecked(built, small_spss):
    s = small_spss.strings[0][:200]
    a = built.stream_lookup(s, checked=True)
    b = built.stream_lookup(s, checked=False)
    assert np.array_equal(a, b)
    assert np.all(a >= 0)


def test_space_accounting_against_bound(medium_spss):
    from lpmphf import TheoryParams, census, space_bound_basic
    scheme = MinimizerScheme(k=31, m=15, seed=29)
    f = build_basic(medium_spss, scheme)
    xi = census(medium_spss, scheme).xi
    params = TheoryParams(k=31, m=15, b=f.fm.bits_per_key, little_oh=0.5)
    bound = space_bound_basic(medium_spss.n, params, xi=xi)
    assert abs(f.size_in_bits() - bound) / bound < 0.15


@AMBIG
@pytest.mark.parametrize("build", BUILDERS)
def test_unitig_like_strings_stream_matches_assigned_values(build):
    # 2*10^4 k-mers in strings of 20-120 k-mers at m = 8, like the unitigs
    # of a compacted de Bruijn graph: about 40% of the k-mers have ambiguous
    # minimizers, and each call evaluates both inner MPHFs on a few keys
    n = 20_000
    whole = generate_spss(n + 30, 31, seed=71).codes[0]
    ends = np.cumsum(np.random.default_rng(71).integers(20, 121, size=n // 20))
    cuts = [0, *ends[ends < n].tolist(), n]
    spss = SpssInput(k=31, codes=[whole[a:b + 30] for a, b in zip(cuts, cuts[1:])])
    f = build(spss, MinimizerScheme(k=31, m=8, seed=9))
    assert 0.3 < 1 - f.n_unambiguous / f.n < 0.5
    table = f.assigned_values(spss)
    for g in (f, structure_from_bytes(structure_to_bytes(f))):
        at = 0
        for codes in spss.codes:
            got = g.stream_lookup(codes)
            assert np.array_equal(got, table[at:at + codes.size - 30])
            at += codes.size - 30
        assert at == n


def bench_inputs(seed):
    """(name, SpssInput, scheme) of each workload of bench/run.py at `seed`."""
    bench = Path(__file__).resolve().parent.parent / "bench"
    spec = importlib.util.spec_from_file_location("bench_run", bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    # run.py pins library thread counts in os.environ and imports its siblings
    with mock.patch.dict(os.environ), \
            mock.patch.object(sys, "path", [str(bench), *sys.path]):
        spec.loader.exec_module(run)
    for name, wl in run.WORKLOADS.items():
        base = generate_spss(wl.n + wl.k - 1, wl.k, seed=seed)
        spss = SpssInput(k=wl.k, codes=run.cut_strings(base.codes, wl, seed))
        yield name, spss, MinimizerScheme(k=wl.k, m=wl.m, seed=seed)


def test_build_evaluates_no_key_and_sorts_no_key_set(monkeypatch):
    # the inner MPHF hands its keys' values back, and a repeated key shows
    # as a level that places nothing: a build over distinct k-mers needs
    # neither an evaluation pass nor a distinctness sort
    inputs = list(bench_inputs(seed=7))
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(mphf.GeneralMphf, "evaluate_many",
                        counted(mphf.GeneralMphf.evaluate_many))
    monkeypatch.setattr(mphf, "repeats", counted(mphf.repeats))
    for name, spss, scheme in inputs:
        for build in BUILDERS:
            assert build(spss, scheme).n == spss.n
            assert calls == [], (name, build.__name__)
