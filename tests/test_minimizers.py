from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpmphf import (Kmer, MinimizerScheme, build_basic, build_partitioned,
                    census, default_minimizer_length, generate_spss,
                    spss_from_strings)
from lpmphf.errors import LengthOutOfRange, QueryShorterThanK
from lpmphf._lookup import _BLOCK_ROWS, kmer_minimizers
from lpmphf.kmers import BASES, encode_bases, kmer_words, mix64, seed_key
from lpmphf.minimizers import (_DIRECT_ARGMIN, _window_runs, kmer_minimizer,
                               scan_spss, scan_string)

from conftest import find_single_superkmer
from oracles import (brute_minimizer, brute_occurrences, brute_split,
                     brute_window_runs, pack_mmer, random_dna)


def test_m_equals_k_trivial():
    km = Kmer.from_string("ACGTTGACCAGTA")
    assert kmer_minimizer(km.value, MinimizerScheme(k=13, m=13, seed=1)) == (km.value, 1)


def window_runs(h, w):
    """(start, position) per run of `_window_runs`, which must close its
    bounds with the window count."""
    bounds, occ = _window_runs(h, w)
    assert bounds[-1] == h.size - w + 1 and bounds.size == occ.size + 1
    return list(zip(bounds[:-1].tolist(), occ.tolist()))


@given(st.lists(st.integers(0, 3), min_size=1, max_size=300),
       st.integers(1, 64))
@settings(max_examples=100, deadline=None)
def test_window_argmin_tie_heavy(values, w):
    w = min(w, len(values))
    h = np.array(values, dtype=np.uint64)
    assert window_runs(h, w) == brute_window_runs(h, w)


@pytest.mark.parametrize("n,w", [(1, 1), (17, 17), (18, 17), (34, 17),
                                 (35, 17), (1000, 17), (1000, 49), (999, 2),
                                 (9, 9), (33, 33), (1000, 33),  # w - 1 = 2^i
                                 (100, 3), (1000, 24), (1000, 63),
                                 # _DIRECT_ARGMIN windows take one direct
                                 # argmin, one more window the run events
                                 *[(_DIRECT_ARGMIN + extra + w - 1, w)
                                   for w in (1, 2, 17, 24, 49, 63)
                                   for extra in (0, 1)]])
def test_window_argmin_matches_oracle(n, w, rng):
    for top in (2, 2 ** 64 - 1):  # all-tie pairs, then (nearly) distinct values
        h = rng.integers(0, top, size=n, dtype=np.uint64, endpoint=True)
        assert window_runs(h, w) == brute_window_runs(h, w)


def test_pos_in_window_range(rng):
    scheme = MinimizerScheme(k=13, m=7, seed=2)
    assert scheme.w == 7
    for _ in range(200):
        _, pos = kmer_minimizer(Kmer.from_string(random_dna(rng, 13)).value, scheme)
        assert 1 <= pos <= 7


def test_minimizer_matches_brute_force(rng):
    scheme = MinimizerScheme(k=31, m=15, seed=3)
    for _ in range(10_000 // 50):
        s = random_dna(rng, 31 + 49)
        for i in range(0, 50, 1):
            kmer = s[i:i + 31]
            assert kmer_minimizer(Kmer.from_string(kmer).value, scheme) == \
                brute_minimizer(kmer, 15, scheme.seed)


@pytest.mark.parametrize("k,m", [(33, 2), (33, 1), (63, 1), (63, 32), (1, 1),
                                 (13, 13), (32, 32), (5, 2)])
@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
def test_minimizer_lane_edges(k, m, seed, rng):
    # the lane kernel at its edges: k = 33 with m = 2 and m = 1, where the
    # shifted copies of the k-mer reach 128 and 130 bits into the lanes;
    # w = 63 lanes; one lane (w = 1); homopolymers, whose m-mers all tie
    scheme = MinimizerScheme(k=k, m=m, seed=seed)
    for kmer in [b * k for b in BASES] + [random_dna(rng, k) for _ in range(100)]:
        assert kmer_minimizer(Kmer.from_string(kmer).value, scheme) == \
            brute_minimizer(kmer, m, seed), kmer


def test_scheme_validation():
    with pytest.raises(LengthOutOfRange):
        MinimizerScheme(k=64, m=10)
    with pytest.raises(LengthOutOfRange):
        MinimizerScheme(k=31, m=33)
    with pytest.raises(LengthOutOfRange):
        MinimizerScheme(k=10, m=11)
    for seed in (-1, 2 ** 64):
        with pytest.raises(LengthOutOfRange):
            MinimizerScheme(k=31, m=15, seed=seed)
    assert MinimizerScheme(k=31, m=15, seed=2 ** 64 - 1).seed == 2 ** 64 - 1


@pytest.mark.parametrize("args", [(31, 15, 1.5), (31.0, 15, 0), (31, 15.0, 0),
                                  (31, "15", 0)])
def test_scheme_parameters_must_be_integers(args):
    with pytest.raises(LengthOutOfRange):
        MinimizerScheme(*args)


def test_scheme_takes_numpy_integers_as_python_ints():
    spss = generate_spss(2000 + 30, 31, seed=5)
    want = MinimizerScheme(31, 15, seed=2 ** 63 + 5)
    got = MinimizerScheme(np.int64(31), np.uint8(15), seed=np.uint64(2 ** 63 + 5))
    assert got == want and type(got.seed) is int
    for build in (build_basic, build_partitioned):
        assert build(spss, got).to_bytes() == build(spss, want).to_bytes()


# --- super-k-mer splitting -----------------------------------------------------

def records(scan):
    """(minimizer, size, p1, first k-mer) per super-k-mer of a scan."""
    return list(zip(scan.minvals.tolist(), scan.sizes.tolist(),
                    scan.p1.tolist(), scan.kmer_base.tolist()))


def split(s, scheme):
    return records(scan_string(encode_bases(s), scheme))


def test_single_kmer_string_single_record():
    scheme = MinimizerScheme(k=13, m=7, seed=0)
    recs = split("ACGTTGACCAGTA", scheme)
    assert len(recs) == 1
    assert recs[0][1] == 1 and recs[0][3] == 0


def test_length16_superkmer_has_four_kmers():
    # a super-k-mer of length 16 with k=13, m=7 holds 16-13+1 = 4 k-mers
    s, scheme = find_single_superkmer(k=13, m=7, size=4)
    recs = split(s, scheme)
    assert len(recs) == 1
    assert recs[0][1] == len(s) - 13 + 1 == 4


def test_split_shorter_than_k_raises():
    # a query shorter than k stops at stream_lookup, before the scan
    spss = generate_spss(60, 13, seed=3)
    for build in (build_basic, build_partitioned):
        f = build(spss, MinimizerScheme(k=13, m=7))
        for q in ("ACGT", np.zeros(12, dtype=np.uint8)):
            with pytest.raises(QueryShorterThanK):
                f.stream_lookup(q)


def test_split_matches_brute_force_oracle(rng):
    scheme = MinimizerScheme(k=31, m=15, seed=7)
    s = random_dna(rng, 10_000)
    assert split(s, scheme) == brute_split(s, 31, 15, scheme.seed)


@given(st.integers(0, 2 ** 32), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_split_matches_oracle_small_schemes(seed, which):
    k, m = [(8, 3), (13, 7), (21, 11), (33, 9)][which]
    rng = np.random.default_rng(seed)
    s = random_dna(rng, int(rng.integers(k, 6 * k)))
    scheme = MinimizerScheme(k=k, m=m, seed=5)
    assert split(s, scheme) == brute_split(s, k, m, scheme.seed)


def test_split_matches_isolated_window_oracle_at_1e5(medium_spss):
    # recompute each k-mer's minimizer occurrence in isolation (no shared
    # sliding state), then group; must equal the streaming decomposition
    scheme = MinimizerScheme(k=31, m=15, seed=13)
    from lpmphf.kmers import hash_mmer_array, packed_windows
    for codes in medium_spss.codes:
        nk = codes.size - scheme.k + 1
        h = hash_mmer_array(packed_windows(codes, scheme.m), scheme.seed)
        occ = np.array([i + int(np.argmin(h[i:i + scheme.w]))
                        for i in range(nk)], dtype=np.int64)
        starts = np.flatnonzero(np.concatenate([[True], occ[1:] != occ[:-1]]))
        scan = scan_string(codes, scheme)
        assert np.array_equal(scan.kmer_base, starts)
        assert np.array_equal(scan.p1, occ[starts] - starts + 1)


def test_records_tile_kmers_and_respect_property1(rng):
    scheme = MinimizerScheme(k=31, m=15, seed=11)
    s = random_dna(rng, 5000)
    covered = 0
    for _, size, p1, start in split(s, scheme):
        assert start == covered
        assert 1 <= size <= p1 <= scheme.w
        covered += size
    assert covered == len(s) - 31 + 1


def test_scan_spss_sums_to_n(medium_spss):
    scheme = MinimizerScheme(k=31, m=15, seed=1)
    scan = scan_spss(medium_spss, scheme)
    assert int(scan.sizes.sum()) == medium_spss.n == scan.n


def _smallest_mmer(m, seed):
    """The m-mer of smallest hash under `seed`, as bases."""
    best = min((mix64(v ^ seed_key(seed)), v) for v in range(4 ** m))[1]
    return "".join(BASES[(best >> 2 * (m - 1 - i)) & 3] for i in range(m))


def _boundary_pair(rng, k=13, m=5, seed=4):
    """Two strings where every window straddling their boundary holds the
    m-mer of smallest hash, which starts the second string."""
    x = _smallest_mmer(m, seed)
    best = pack_mmer(x)
    a = random_dna(rng, k + 9)
    while x in a:
        a = random_dna(rng, k + 9)
    b = x + random_dna(rng, k + 4)
    joined, w = a + b, k - m + 1
    assert w > 1
    for q in range(len(a) - w + 1, len(a)):   # the straddling windows
        assert brute_minimizer(joined[q:q + k], m, seed)[0] == best
    return [a, b], k, m, seed


def _multi_string_inputs(rng):
    """(strings, k, m, seed) inputs of several strings each."""
    lengths = lambda lo, hi, count: rng.integers(lo, hi, size=count)
    yield [random_dna(rng, 13) for _ in range(6)], 13, 7, 1   # exactly k
    yield [random_dna(rng, 13) for _ in range(12)], 13, 3, 1
    yield [random_dna(rng, int(n)) for n in lengths(21, 60, 5)], 21, 21, 2
    yield [random_dna(rng, int(n)) for n in lengths(11, 40, 5)], 11, 1, 3
    yield [random_dna(rng, int(n)) for n in lengths(21, 50, 6)], 21, 3, 5
    yield [random_dna(rng, int(n)) for n in lengths(63, 110, 4)], 63, 21, 6
    yield [random_dna(rng, int(n)) for n in lengths(63, 90, 5)], 63, 3, 7
    yield _boundary_pair(rng)


def _brute_records(strings, k, m, seed):
    """brute_split of every string, its start shifted to the k-mer index
    among all k-mers of the strings in order."""
    out, base = [], 0
    for s in strings:
        out += [(v, size, p1, base + start)
                for v, size, p1, start in brute_split(s, k, m, seed)]
        base += len(s) - k + 1
    return out


def test_scan_spss_equals_per_string_oracle(rng):
    for strings, k, m, seed in _multi_string_inputs(rng):
        scan = scan_spss(spss_from_strings(strings, k), MinimizerScheme(k, m, seed))
        assert records(scan) == _brute_records(strings, k, m, seed), (k, m)
        assert scan.n == sum(len(s) - k + 1 for s in strings)


@pytest.mark.parametrize("block", [1, 2, "w - 1", "w", 64])
def test_scan_blocks_equal_oracle(block, rng, monkeypatch):
    # the hash and the runs are computed per block of _SCAN_BLOCK windows;
    # blocks of every size around w must give the unblocked scan, across
    # string ends, with the direct argmin and with the run events
    def use_block(w):
        size = {"w - 1": max(1, w - 1), "w": w}.get(block, block)
        monkeypatch.setattr("lpmphf.minimizers._SCAN_BLOCK", size)
        return size

    def check(strings, k, m, seed):
        use_block(k - m + 1)
        for direct in (_DIRECT_ARGMIN, 0):
            monkeypatch.setattr("lpmphf.minimizers._DIRECT_ARGMIN", direct)
            scan = scan_spss(spss_from_strings(strings, k),
                             MinimizerScheme(k, m, seed))
            assert records(scan) == _brute_records(strings, k, m, seed), (k, m)

    for strings, k, m, seed in _multi_string_inputs(rng):
        check(strings, k, m, seed)
    k, m, seed = 21, 11, 5
    check([random_dna(rng, 300) + "A" * 90 + "ACG" * 40 + random_dna(rng, 37)],
          k, m, seed)

    # the m-mer of smallest hash, then a homopolymer: the run of that
    # occurrence holds the w windows that contain it, and the first of them
    # starts a block, so a block of at most w windows lies inside one run
    k, m, seed = 21, 5, 4
    w, x = k - m + 1, _smallest_mmer(m, seed)
    size = use_block(w)
    first = size * (100 // size + 1)   # the first window holding x
    s = random_dna(rng, first + w - 1)
    while x in s:
        s = random_dna(rng, first + w - 1)
    s += x + next(b for b in "ACGT" if b * m != x) * 40 + random_dna(rng, 30)
    check([s], k, m, seed)
    occ = brute_occurrences(s, k, m, seed)
    assert size > w or len(set(occ[first:first + size])) == 1

    # a joined-codes run that starts on a window straddling two strings;
    # the second string's first k-mer lies inside it and still starts its
    # own super-k-mer
    strings, k, m, seed = _boundary_pair(rng)
    check(strings, k, m, seed)
    occ = brute_occurrences("".join(strings), k, m, seed)
    second = len(strings[0])   # the window of the second string's first k-mer
    assert any(occ[j] != occ[j - 1] for j in range(second - k + 1, second))
    assert occ[second] == occ[second - 1]


def test_ambiguous_kmer_words_equal_set_oracle(rng):
    from lpmphf._build import ambiguous_kmer_words
    from lpmphf.minimizers import census_from_scan
    for strings, k, m, seed in _multi_string_inputs(rng):
        spss = spss_from_strings(strings, k)
        scan = scan_spss(spss, MinimizerScheme(k, m, seed))
        cen = census_from_scan(scan)
        assert np.array_equal(cen.inverse, np.searchsorted(cen.distinct, scan.minvals))
        amb = cen.counts[cen.inverse] > 1
        hi, lo = ambiguous_kmer_words(spss, scan, amb)
        got = [(int(h) << 64) | int(x) for h, x in zip(hi, lo)]
        # per k-mer: is its minimizer value shared by two super-k-mers?
        per_string = [brute_split(s, k, m, seed) for s in strings]
        owners = Counter(v for recs in per_string for v, *_ in recs)
        want = [pack_mmer(s[i:i + k])
                for s, recs in zip(strings, per_string)
                for v, size, _, start in recs if owners[v] > 1
                for i in range(start, start + size)]
        assert got == want, (k, m)


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
    assert cen.xi == 0.0 and np.all(cen.counts == 1)


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
    counts = dict(zip(cen.distinct.tolist(), cen.counts.tolist()))
    for v in repeated:
        assert counts[v] >= 2
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


def test_default_m_is_the_first_m_meeting_the_density_condition():
    # a total length of 1 asks for m >= 1 only: the density threshold decides
    for k in range(1, 64):
        m = default_minimizer_length(k, 1)
        ok = [MinimizerScheme(k, j).density_condition_ok()
              for j in range(1, min(k, 32) + 1)]
        assert m == (ok.index(True) + 1 if True in ok else 1), k


def _kmer_minimizer_cases():
    for k in (1, 2, 16, 31, 32, 33, 47, 48, 63):
        for m in sorted({min(k, m) for m in (1, 2, max(1, k // 3), 17, 32)}):
            yield k, m


@pytest.mark.parametrize("k,m", list(_kmer_minimizer_cases()))
def test_kmer_minimizers_match_brute_oracle(k, m):
    # m-mers starting at bit offsets 0, 64 and above 64 of the packed
    # k-mer, m = 32 (the full 64-bit mask) and tie-heavy m = 1; more than
    # two blocks of k-mers, so blocks end inside the batch and after it
    n = 2 * _BLOCK_ROWS + 37
    rng = np.random.default_rng(1000 * k + m)
    s = random_dna(rng, n + k - 1)
    hi, lo = kmer_words(encode_bases(s), k)
    scheme = MinimizerScheme(k=k, m=m, seed=k + m)
    vals, pos = kmer_minimizers(hi, lo, scheme)
    assert vals.dtype == np.uint64 and pos.dtype == np.int64
    edges = [0, _BLOCK_ROWS - 1, _BLOCK_ROWS, 2 * _BLOCK_ROWS, n - 1]
    for i in sorted(set(edges) | set(range(0, n, 41))):
        assert (int(vals[i]), int(pos[i])) == brute_minimizer(
            s[i:i + k], m, scheme.seed), i
    empty = np.empty(0, dtype=np.uint64)
    vals, pos = kmer_minimizers(empty, empty, scheme)
    assert vals.size == pos.size == 0


@pytest.mark.parametrize("k", [32, 33, 63])
def test_kmer_minimizers_read_back_ties_and_keep_the_words(k):
    # homopolymers and short tandem repeats, whole and with one base changed:
    # k-mers with many equal m-mer hashes, whose leftmost minimum must be
    # read back from the k-mer at its position, not from the matrix hashed
    # in place; at k = 33, m = 1 puts the first m-mer wholly in the high word
    rng = np.random.default_rng(k)
    kmers = []
    for unit in ("A", "C", "G", "T", "AC", "TG", "ACG", "GGT", "ACGT", "TTCA", "AACAG"):
        for offset in range(len(unit)):
            s = (unit * (k + 5))[offset:offset + k]
            at = int(rng.integers(k))
            kmers += [s, s[:at] + BASES[(BASES.index(s[at]) + 1) % 4] + s[at + 1:]]
    words = [kmer_words(encode_bases(s), k) for s in kmers]
    hi, lo = (np.concatenate(col) for col in zip(*words))
    hi0, lo0 = hi.copy(), lo.copy()
    for m in sorted({1, 2, 3, 5, k // 3, 17, 32}):
        scheme = MinimizerScheme(k=k, m=m, seed=k * m)
        vals, pos = kmer_minimizers(hi, lo, scheme)
        assert [(int(v), int(p)) for v, p in zip(vals, pos)] == [
            brute_minimizer(s, m, scheme.seed) for s in kmers], m
        assert np.array_equal(hi, hi0) and np.array_equal(lo, lo0)
