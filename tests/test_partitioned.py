import numpy as np
import pytest

from lpmphf import (FlType, MinimizerScheme, SuperKmerRecord, build_basic,
                    build_partitioned, census, classify, generate_spss,
                    measure_epsilon, spss_from_strings, type_probabilities)
from lpmphf.kmers import kmer_words
from lpmphf.minimizers import scan_spss, split_superkmers
from lpmphf.partitioned import _classify_arrays

from conftest import BUILDERS, SCALAR_SHAPES
from oracles import random_dna

AMBIG = pytest.mark.filterwarnings("ignore::lpmphf.minimizers.MinimizerDensityWarning")


@pytest.fixture(scope="module")
def scheme():
    return MinimizerScheme(k=31, m=15, seed=17)


@pytest.fixture(scope="module")
def built(small_spss, scheme):
    return build_partitioned(small_spss, scheme)


def stream_all(f, spss):
    return np.concatenate([f.stream_lookup(c) for c in spss.codes])


# --- classification --------------------------------------------------------------

def test_classify_max_size_is_left_right_max():
    # size = w forces p1 = w and p_last = 1
    for w in (2, 5, 9):
        rec = SuperKmerRecord(minimizer=0, size=w, p1=w)
        assert classify(rec, w) == FlType.LEFT_RIGHT_MAX


def test_classify_size1_p1_1_is_left_max():
    rec = SuperKmerRecord(minimizer=0, size=1, p1=1)
    assert classify(rec, 5) == FlType.LEFT_MAX


def test_classify_exhaustive_partition():
    # every legal (size, p1) pair fires exactly one rule
    for w in range(1, 9):
        for size in range(1, w + 1):
            for p1 in range(size, w + 1):
                last = p1 - size + 1
                expected = {
                    (True, True): FlType.LEFT_RIGHT_MAX,
                    (False, True): FlType.LEFT_MAX,
                    (True, False): FlType.RIGHT_MAX,
                    (False, False): FlType.NON_MAX,
                }[(p1 == w, last == 1)]
                rec = SuperKmerRecord(minimizer=0, size=size, p1=p1)
                assert classify(rec, w) == expected
                arr = _classify_arrays(np.array([size]), np.array([p1]), w)
                assert arr[0] == expected


# --- build / lookup ---------------------------------------------------------------

def find_single_nonmax(k=13, m=7, seed=0):
    scheme = MinimizerScheme(k=k, m=m, seed=seed)
    rng = np.random.default_rng(4321)
    for length in (k + 2, k + 3):
        for _ in range(20_000):
            s = random_dna(rng, length)
            recs = split_superkmers(s, scheme)
            if len(recs) == 1 and classify(recs[0], scheme.w) == FlType.NON_MAX:
                return s, scheme
    raise AssertionError("no single non-max super-k-mer found")


def test_single_nonmax_superkmer_matches_basic():
    s, scheme = find_single_nonmax()
    spss = spss_from_strings([s], k=13)
    f = build_partitioned(spss, scheme)
    assert f.type_counts == (0, 0, 0, 1)
    assert f.K_lr == f.K_l == f.K_r == 0
    g = build_basic(spss, scheme)
    for km in [s[i:i + 13] for i in range(len(s) - 12)]:
        assert f.lookup(km) == g.lookup(km)


@AMBIG
@pytest.mark.parametrize("build", BUILDERS)
@pytest.mark.parametrize("shape", SCALAR_SHAPES)
def test_slot_param_equals_slot_params(shape, build):
    # every slot of every FL type, ambiguous slots included
    f = build(*shape())
    slots = np.arange(f.num_minimizers, dtype=np.int64)
    vector = [a.tolist() for a in f._slot_params(slots)]
    for i in slots.tolist():
        assert f._slot_param(i) == tuple(col[i] for col in vector)


def test_bijectivity(built, small_spss):
    vals = stream_all(built, small_spss)
    assert np.array_equal(np.sort(vals), np.arange(built.n))


def test_lookup_matches_assigned_table(built, small_spss, rng):
    table = built.assigned_values(small_spss)
    assert np.array_equal(stream_all(built, small_spss), table)
    s = small_spss.strings[0]
    for i in rng.integers(0, len(s) - 31 + 1, size=50):
        assert built.lookup(s[int(i):int(i) + 31]) == int(table[i])


def test_block_layout(built, small_spss, scheme):
    # [LR | left | right | non | fallback] with k-mer-count prefixes
    vals = stream_all(built, small_spss)
    scan = scan_spss(small_spss, scheme)
    types = _classify_arrays(scan.sizes, scan.p1, scheme.w)
    firsts = vals[scan.kmer_base]
    k_lr, k_l, k_r, k_n = built.K_lr, built.K_l, built.K_r, built.K_n
    lr = types == FlType.LEFT_RIGHT_MAX
    assert np.all(firsts[lr] < k_lr)
    assert np.all(firsts[lr] % scheme.w == 0)       # LR blocks start at j0*w
    lm = types == FlType.LEFT_MAX
    assert np.all((firsts[lm] >= k_lr) & (firsts[lm] < k_lr + k_l))
    rm = types == FlType.RIGHT_MAX
    assert np.all((firsts[rm] >= k_lr + k_l) & (firsts[rm] < k_lr + k_l + k_r))
    nm = types == FlType.NON_MAX
    assert np.all((firsts[nm] >= k_lr + k_l + k_r)
                  & (firsts[nm] < k_lr + k_l + k_r + k_n))
    assert k_lr + k_l + k_r + k_n == built.n_unambiguous


def test_type_proportions_match_theory(medium_spss):
    scheme = MinimizerScheme(k=31, m=21, seed=23)   # w = 11
    f = build_partitioned(medium_spss, scheme)
    counts = np.array(f.type_counts, dtype=float)
    measured = counts / counts.sum()
    for got, want in zip(measured, type_probabilities(scheme.w)):
        assert abs(got - want) <= 0.02


def test_equivalence_with_basic(medium_spss, scheme):
    f = build_partitioned(medium_spss, scheme)
    g = build_basic(medium_spss, scheme)
    fv = stream_all(f, medium_spss)
    gv = stream_all(g, medium_spss)
    assert np.array_equal(np.sort(fv), np.arange(f.n))
    assert np.array_equal(np.sort(gv), np.arange(g.n))
    # locality breaks at the same places up to accidental cross-block chains
    ef, eg = measure_epsilon(f, medium_spss), measure_epsilon(g, medium_spss)
    assert abs(ef - eg) <= 8 / medium_spss.n


@AMBIG
def test_ambiguous_routed_to_fallback_block():
    spss = generate_spss(20_000, 31, seed=31)
    scheme = MinimizerScheme(k=31, m=5, seed=2)
    f = build_partitioned(spss, scheme)
    assert f.fallback.n_keys > 0
    vals = stream_all(f, spss)
    assert np.array_equal(np.sort(vals), np.arange(f.n))
    scan = scan_spss(spss, scheme)
    from lpmphf.minimizers import census_from_scan
    cen = census_from_scan(scan)
    amb = cen.counts[np.searchsorted(cen.distinct, scan.minvals)] > 1
    total_blocks = f.K_lr + f.K_l + f.K_r + f.K_n
    for skm in np.flatnonzero(amb)[:50]:
        base = int(scan.kmer_base[skm])
        assert np.all(vals[base:base + int(scan.sizes[skm])] >= total_blocks)


def test_stream_equals_random_lookup_on_nonmember_queries(built, rng):
    for checked in (False, True):
        q = random_dna(rng, 4000)
        sv = built.stream_lookup(q, checked=checked)
        from lpmphf.kmers import encode_bases
        hi, lo = kmer_words(encode_bases(q), 31)
        rv = built.lookup_words(hi, lo, checked=checked)
        assert np.array_equal(sv, rv)
        if not checked:
            assert np.all((sv >= 0) & (sv < built.n))


def test_partitioned_smaller_than_basic(medium_spss, scheme):
    f = build_partitioned(medium_spss, scheme)
    g = build_basic(medium_spss, scheme)
    assert f.size_in_bits() < g.size_in_bits()


def test_space_accounting_against_bound(medium_spss):
    from lpmphf import TheoryParams, space_bound_partitioned
    scheme = MinimizerScheme(k=31, m=15, seed=29)
    f = build_partitioned(medium_spss, scheme)
    xi = census(medium_spss, scheme).xi
    params = TheoryParams(k=31, m=15, b=f.fm.bits_per_key, little_oh=0.5)
    bound = space_bound_partitioned(medium_spss.n, params, xi=xi)
    assert abs(f.size_in_bits() - bound) / bound < 0.15
