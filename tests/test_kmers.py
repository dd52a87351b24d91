import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpmphf import Kmer, mix64
from lpmphf.errors import InvalidBase, KMismatch, LengthOutOfRange, LpmphfError
from lpmphf.kmers import (_PACK_ROWS, decode_bases, encode_bases,
                          hash_mmer_array, hash_words, hash_words_array,
                          kmer_words, kmer_words_at, packed_windows, repeats,
                          seed_key)

import oracles
from oracles import all_kmers, pack_mmer, random_dna

dna = st.text(alphabet="ACGT", min_size=1, max_size=63)


def test_single_a_packs_to_zero():
    assert Kmer.from_string("A").value == 0


def test_acgt_round_trip():
    assert str(Kmer.from_string("ACGT")) == "ACGT"
    assert Kmer.from_string("ACGT").value == 0b00011011


@given(dna)
def test_round_trip_identity(s):
    assert str(Kmer.from_string(s)) == s


def test_encode_injective_on_all_length5_strings():
    seen = set()
    for t in itertools.product("ACGT", repeat=5):
        seen.add(Kmer.from_string("".join(t)).value)
    assert len(seen) == 4 ** 5


def test_invalid_base_rejected():
    with pytest.raises(InvalidBase):
        Kmer.from_string("ACGNA")
    with pytest.raises(InvalidBase):
        encode_bases("ACGU")


def test_length_limits():
    with pytest.raises(LengthOutOfRange):
        Kmer.from_string("")
    with pytest.raises(LengthOutOfRange):
        Kmer.from_string("A" * 64)
    assert Kmer.from_string("A" * 63).k == 63


@pytest.mark.parametrize("value", [64, -1, 1.5, 3.0, np.float64(3), "3", None])
def test_kmer_value_out_of_range_is_typed(value):
    # the error resolve_kmer_input raises for the same condition
    with pytest.raises(KMismatch) as err:
        Kmer(3, value)
    assert isinstance(err.value, LpmphfError)
    assert Kmer(3, 63).value == 63


@pytest.mark.parametrize("k", [3.0, 0, 64, np.float32(3), "3"])
def test_kmer_length_must_be_an_integer_in_range(k):
    with pytest.raises(LengthOutOfRange):
        Kmer(k, 1)


def test_kmer_takes_numpy_integers_as_ints():
    km = Kmer(np.int64(3), np.uint64(27))
    assert type(km.k) is int and type(km.value) is int
    assert km == Kmer(3, 27) and hash(km) == hash(Kmer(3, 27))
    assert str(km) == "CGT"


def test_lowercase_accepted():
    assert str(Kmer.from_string("acgt")) == "ACGT"


def test_decode_encode_bases():
    s = "ACGTTGCA"
    assert decode_bases(encode_bases(s)) == s
    with pytest.raises(ValueError):   # a code above 3 is no base
        decode_bases([0, 4])


def test_kmer_hi_lo_split():
    s = "ACGT" * 12 + "GTC"   # k = 51
    hi, lo = (int(x[0]) for x in kmer_words(encode_bases(s), 51))
    assert Kmer.from_string(s).value == (hi << 64) | lo
    assert hi >> (2 * (51 - 32)) == 0


# --- hashing -------------------------------------------------------------------

def test_hash_deterministic():
    assert mix64(12345 ^ seed_key(7)) == mix64(12345 ^ seed_key(7))


def test_oracle_hash_is_published_splitmix64():
    # splitmix64 from seed 0 outputs mix(gamma), then mix(2 gamma)
    assert oracles.mix64(oracles.GAMMA) == 0xE220A8397B1DCDAF
    assert oracles.mix64(2 * oracles.GAMMA) == 0x6E789E6AA1B965F4
    assert oracles.seed_key(0) == 0xE220A8397B1DCDAF


def test_production_hash_matches_the_oracle():
    xs = np.random.default_rng(5).integers(0, 2 ** 64, size=200, dtype=np.uint64)
    for x in xs.tolist():
        assert mix64(x) == oracles.mix64(x)
    for seed in (0, 1, 7, 2 ** 64 - 1):
        assert seed_key(seed) == oracles.seed_key(seed)


def test_mix64_bijective_sample():
    xs = np.random.default_rng(1).integers(0, 2 ** 63, size=10_000)
    assert len({mix64(int(x)) for x in xs}) == len(set(int(x) for x in xs))


def test_two_seeds_never_collide_on_sample():
    rng = np.random.default_rng(7)
    xs = rng.integers(0, 2 ** 60, size=10_000)
    collisions = sum(mix64(int(x) ^ seed_key(1)) == mix64(int(x) ^ seed_key(2))
                     for x in xs)
    assert collisions == 0


def test_hash_uniformity_chi_square():
    from scipy.stats import chi2
    rng = np.random.default_rng(13)
    xs = rng.integers(0, 2 ** 60, size=100_000, dtype=np.uint64)
    h = hash_mmer_array(xs, seed=5)
    counts = np.bincount((h & np.uint64(0xFF)).astype(np.int64), minlength=256)
    expected = xs.size / 256
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < chi2.ppf(0.999, 255)


def test_vector_hash_matches_scalar():
    rng = np.random.default_rng(3)
    xs = rng.integers(0, 2 ** 63, size=500, dtype=np.uint64)
    hv = hash_mmer_array(xs, seed=9)
    for i in range(0, 500, 37):
        assert int(hv[i]) == mix64(int(xs[i]) ^ seed_key(9))
    his = rng.integers(0, 2 ** 64, size=100, dtype=np.uint64)
    los = rng.integers(0, 2 ** 64, size=100, dtype=np.uint64)
    key = seed_key(4)
    hw = hash_words_array(his, los, key)
    assert [int(h) for h in hw] == [
        hash_words(hi, lo, key) for hi, lo in zip(his.tolist(), los.tolist())]
    # a (levels, 1) column of keys, as the MPHF probes its levels: one row each
    keys = np.array([seed_key(s) for s in range(5)], dtype=np.uint64)[:, None]
    grid = hash_words_array(his, los, keys)
    assert grid.shape == (5, 100)
    for row, key in zip(grid, keys[:, 0].tolist()):
        assert row.tolist() == [hash_words(hi, lo, key)
                                for hi, lo in zip(his.tolist(), los.tolist())]


# --- bulk packing ----------------------------------------------------------------

@given(st.integers(0, 2 ** 32), st.integers(1, 80))
@example(seed=1, length=1)
@example(seed=2, length=31)
@example(seed=3, length=32)
@settings(max_examples=25, deadline=None)
def test_packed_windows_match_packing(seed, length):
    # every width 1..32: widths above the length give no window, and
    # width == length exactly one
    rng = np.random.default_rng(seed)
    s = random_dna(rng, length)
    codes = encode_bases(s)
    for width in range(1, 33):
        vals = packed_windows(codes, width)
        assert vals.size == max(0, length - width + 1)
        assert vals.tolist() == [pack_mmer(s[i:i + width])
                                 for i in range(vals.size)]


@pytest.mark.parametrize("k", [5, 31, 32, 33, 47, 63])
def test_kmer_words_match_encode(k):
    rng = np.random.default_rng(k)
    s = random_dna(rng, 300)
    hi, lo = kmer_words(encode_bases(s), k)
    for i, sub in enumerate(all_kmers(s, k)):
        assert (int(hi[i]) << 64) | int(lo[i]) == Kmer.from_string(sub).value


@pytest.mark.parametrize("k", [1, 5, 31, 32, 33, 63])
def test_kmer_words_at_positions(k):
    # no positions, the last k-mer, more than one block of rows, and a
    # strided slice of codes; outputs are contiguous uint64 arrays
    rng = np.random.default_rng(k + 1)
    s = random_dna(rng, 2 * _PACK_ROWS + 400)
    whole = encode_bases(s)
    for codes in (whole[:400], whole, whole[1::2]):
        hi_all, lo_all = kmer_words(codes, k)
        last = codes.size - k
        for pos in (np.empty(0, dtype=np.int64), np.array([last]),
                    rng.integers(0, last + 1, size=50),
                    rng.integers(0, last + 1, size=2 * _PACK_ROWS + 5)):
            hi, lo = kmer_words_at(codes, k, pos)
            for word, want in ((hi, hi_all[pos]), (lo, lo_all[pos])):
                assert word.dtype == np.uint64 and word.flags.c_contiguous
                assert np.array_equal(word, want)


# word values at the edges of uint64, so that few keys collide often
WORDS = [0, 1, 2, 2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(WORDS), st.sampled_from(WORDS)),
                max_size=24))
@example([])
@example([(5, 9)])
@example([(0, 7), (1, 7), (2, 7)])                  # differ only in hi
@example([(1, 7), (0, 7), (1, 7), (2, 7), (0, 7)])  # equal lo, mixed hi
@example([(2, 7), (2, 3), (1, 7), (2, 7), (2, 3)])
def test_repeats_matches_index_oracle(keys):
    want = [i for i, key in enumerate(keys) if key in keys[:i]]
    hi = np.array([h for h, _ in keys], dtype=np.uint64)
    lo = np.array([x for _, x in keys], dtype=np.uint64)
    assert repeats(hi, lo).tolist() == want
