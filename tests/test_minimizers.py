import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpmphf import (MinimizerScheme, census, default_minimizer_length,
                    encode_kmer, minimizer, split_superkmers,
                    spss_from_strings)
from lpmphf.errors import LengthOutOfRange, StringShorterThanK
from lpmphf.minimizers import scan_spss, scan_string

from conftest import find_single_superkmer
from oracles import brute_minimizer, brute_split, random_dna


def test_m_equals_k_trivial():
    km = encode_kmer("ACGTTGACCAGTA")
    hit = minimizer(km, MinimizerScheme(k=13, m=13, seed=1))
    assert hit.mmer == km.value and hit.pos == 1


def test_pos_in_window_range(rng):
    scheme = MinimizerScheme(k=13, m=7, seed=2)
    assert scheme.w == 7
    for _ in range(200):
        hit = minimizer(random_dna(rng, 13), scheme)
        assert 1 <= hit.pos <= 7


def test_minimizer_matches_brute_force(rng):
    scheme = MinimizerScheme(k=31, m=15, seed=3)
    for _ in range(10_000 // 50):
        s = random_dna(rng, 31 + 49)
        for i in range(0, 50, 1):
            kmer = s[i:i + 31]
            hit = minimizer(kmer, scheme)
            assert (hit.mmer, hit.pos) == brute_minimizer(kmer, 15, scheme.seed)


def test_scheme_validation():
    with pytest.raises(LengthOutOfRange):
        MinimizerScheme(k=64, m=10)
    with pytest.raises(LengthOutOfRange):
        MinimizerScheme(k=31, m=33)
    with pytest.raises(LengthOutOfRange):
        MinimizerScheme(k=10, m=11)


# --- super-k-mer splitting -----------------------------------------------------

def test_single_kmer_string_single_record():
    scheme = MinimizerScheme(k=13, m=7, seed=0)
    recs = split_superkmers("ACGTTGACCAGTA", scheme)
    assert len(recs) == 1
    assert recs[0].size == 1 and recs[0].start_offset == 0


def test_length16_superkmer_has_four_kmers():
    # a super-k-mer of length 16 with k=13, m=7 holds 16-13+1 = 4 k-mers
    s, scheme = find_single_superkmer(k=13, m=7, size=4)
    recs = split_superkmers(s, scheme)
    assert len(recs) == 1
    assert recs[0].size == len(s) - 13 + 1 == 4


def test_split_shorter_than_k_raises():
    with pytest.raises(StringShorterThanK):
        split_superkmers("ACGT", MinimizerScheme(k=13, m=7))


def test_split_matches_brute_force_oracle(rng):
    scheme = MinimizerScheme(k=31, m=15, seed=7)
    s = random_dna(rng, 10_000)
    recs = split_superkmers(s, scheme)
    oracle = brute_split(s, 31, 15, scheme.seed)
    assert [(r.minimizer, r.size, r.p1, r.start_offset) for r in recs] == oracle


@given(st.integers(0, 2 ** 32), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_split_matches_oracle_small_schemes(seed, which):
    k, m = [(8, 3), (13, 7), (21, 11), (33, 9)][which]
    rng = np.random.default_rng(seed)
    s = random_dna(rng, int(rng.integers(k, 6 * k)))
    scheme = MinimizerScheme(k=k, m=m, seed=5)
    recs = split_superkmers(s, scheme)
    assert [(r.minimizer, r.size, r.p1, r.start_offset) for r in recs] == \
        brute_split(s, k, m, scheme.seed)


def test_split_matches_isolated_window_oracle_at_1e5(medium_spss):
    # recompute each k-mer's minimizer occurrence in isolation (no shared
    # sliding state), then group; must equal the streaming decomposition
    scheme = MinimizerScheme(k=31, m=15, seed=13)
    from lpmphf.kmers import hash_mmer_array, window_values
    for codes in medium_spss.codes:
        nk = codes.size - scheme.k + 1
        h = hash_mmer_array(window_values(codes, scheme.m), scheme.seed)
        occ = np.array([i + int(np.argmin(h[i:i + scheme.w]))
                        for i in range(nk)], dtype=np.int64)
        starts = np.flatnonzero(np.concatenate([[True], occ[1:] != occ[:-1]]))
        scan = scan_string(codes, scheme)
        assert np.array_equal(scan.starts, starts)
        assert np.array_equal(scan.p1, occ[starts] - starts + 1)


def test_records_tile_kmers_and_respect_property1(rng):
    scheme = MinimizerScheme(k=31, m=15, seed=11)
    s = random_dna(rng, 5000)
    recs = split_superkmers(s, scheme)
    covered = 0
    for r in recs:
        assert r.start_offset == covered
        assert 1 <= r.size <= r.p1 <= scheme.w
        covered += r.size
    assert covered == len(s) - 31 + 1


def test_scan_spss_sums_to_n(medium_spss):
    scheme = MinimizerScheme(k=31, m=15, seed=1)
    scan = scan_spss(medium_spss, scheme)
    assert int(scan.sizes.sum()) == medium_spss.n == scan.n


def test_scan_threads_deterministic(small_spss):
    scheme = MinimizerScheme(k=31, m=15, seed=1)
    a = scan_spss(small_spss, scheme, threads=1)
    b = scan_spss(small_spss, scheme, threads=4)
    assert np.array_equal(a.minvals, b.minvals)
    assert np.array_equal(a.sizes, b.sizes)


def test_empirical_density_near_2_over_w_plus_1(medium_spss):
    scheme = MinimizerScheme(k=31, m=15, seed=5)
    assert scheme.density_condition_ok()
    scan = scan_spss(medium_spss, scheme)
    d_emp = scan.num_superkmers / scan.n
    d = 2 / (scheme.w + 1)
    assert abs(d_emp - d) / d < 0.15


# --- census ----------------------------------------------------------------------

def test_census_all_distinct_minimizers():
    scheme = MinimizerScheme(k=13, m=7, seed=0)
    spss = spss_from_strings(["ACGTTGACCAGTA"], k=13)
    cen = census(spss, scheme)
    assert cen.xi == 0.0 and cen.num_ambiguous == 0


def test_census_repeated_block_is_ambiguous(rng):
    # repeating a 2k block repeats a minimizer occurrence pattern in two
    # separated windows; the splitter oracle confirms >= 2 super-k-mers
    scheme = MinimizerScheme(k=13, m=7, seed=3)
    block = random_dna(rng, 26)
    s = block + block
    spss = spss_from_strings([s], k=13)   # loading does not check distinctness
    cen = census(spss, scheme)
    dup_vals = [v for v, c, p, st_ in brute_split(s, 13, 7, scheme.seed)]
    repeated = {v for v in dup_vals if dup_vals.count(v) > 1}
    assert repeated, "fixture should repeat a minimizer"
    for v in repeated:
        assert cen.count(v) >= 2
        assert cen.is_ambiguous(v)
    assert cen.xi > 0


def test_census_xi_small_on_random_megabase():
    from lpmphf import generate_spss
    spss = generate_spss(1_000_000, 31, seed=77)
    cen = census(spss, MinimizerScheme(k=31, m=15, seed=5))
    assert cen.xi < 0.10


def test_default_minimizer_length():
    m = default_minimizer_length(31, 10 ** 6)
    assert m == 10
    assert default_minimizer_length(31, 4 ** 20) <= 31
    assert 1 <= default_minimizer_length(5, 100) <= 5
