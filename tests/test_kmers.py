import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpmphf import encode_kmer, hash_mmer, mix64
from lpmphf.errors import InvalidBase, LengthOutOfRange, LpmphfError
from lpmphf.kmers import (_PACK_ROWS, decode_bases, encode_bases,
                          hash_mmer_array, hash_words, hash_words_array,
                          kmer_words, kmer_words_at, window_values)

from oracles import all_kmers, pack_mmer, random_dna

dna = st.text(alphabet="ACGT", min_size=1, max_size=63)


def test_single_a_packs_to_zero():
    assert encode_kmer("A").value == 0


def test_acgt_round_trip():
    assert str(encode_kmer("ACGT")) == "ACGT"
    assert encode_kmer("ACGT").value == 0b00011011


@given(dna)
def test_round_trip_identity(s):
    assert str(encode_kmer(s)) == s


def test_encode_injective_on_all_length5_strings():
    seen = set()
    for t in itertools.product("ACGT", repeat=5):
        seen.add(encode_kmer("".join(t)).value)
    assert len(seen) == 4 ** 5


def test_invalid_base_rejected():
    with pytest.raises(InvalidBase):
        encode_kmer("ACGNA")
    with pytest.raises(InvalidBase):
        encode_bases("ACGU")


def test_length_limits():
    with pytest.raises(LengthOutOfRange):
        encode_kmer("")
    with pytest.raises(LengthOutOfRange):
        encode_kmer("A" * 64)
    assert encode_kmer("A" * 63).k == 63


def test_lowercase_accepted():
    assert str(encode_kmer("acgt")) == "ACGT"


def test_decode_encode_bases():
    s = "ACGTTGCA"
    assert decode_bases(encode_bases(s)) == s


def test_kmer_hi_lo_split():
    s = "ACGT" * 12 + "GTC"   # k = 51
    km = encode_kmer(s)
    assert km.value == (km.hi << 64) | km.lo
    assert km.hi >> (2 * (51 - 32)) == 0


def test_mmer_at_matches_slice():
    s = "ACGTTGCAACGTGGATC"
    km = encode_kmer(s)
    for m in (1, 3, 7):
        for p in range(1, len(s) - m + 2):
            assert km.mmer_at(p, m) == pack_mmer(s[p - 1:p + m - 1])


@pytest.mark.parametrize("m", [1, 3, 17])
def test_mmer_at_outside_window_raises_typed_error(m):
    km = encode_kmer("ACGTTGCAACGTGGATC")
    w = km.k - m + 1
    for pos in (0, w + 1):
        with pytest.raises(LpmphfError):
            km.mmer_at(pos, m)


# --- hashing -------------------------------------------------------------------

def test_hash_deterministic():
    assert hash_mmer(12345, 7) == hash_mmer(12345, 7)


def test_mix64_bijective_sample():
    xs = np.random.default_rng(1).integers(0, 2 ** 63, size=10_000)
    assert len({mix64(int(x)) for x in xs}) == len(set(int(x) for x in xs))


def test_two_seeds_never_collide_on_sample():
    rng = np.random.default_rng(7)
    xs = rng.integers(0, 2 ** 60, size=10_000)
    collisions = sum(hash_mmer(int(x), 1) == hash_mmer(int(x), 2) for x in xs)
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
        assert int(hv[i]) == hash_mmer(int(xs[i]), 9)
    his = rng.integers(0, 2 ** 63, size=100, dtype=np.uint64)
    los = rng.integers(0, 2 ** 63, size=100, dtype=np.uint64)
    hw = hash_words_array(his, los, seed=4)
    for i in range(0, 100, 11):
        assert int(hw[i]) == hash_words(int(his[i]), int(los[i]), 4)


# --- bulk packing ----------------------------------------------------------------

@given(st.integers(0, 2 ** 32), st.integers(1, 80))
@example(seed=1, length=1)
@example(seed=2, length=31)
@example(seed=3, length=32)
@settings(max_examples=25, deadline=None)
def test_window_values_match_packing(seed, length):
    # every width 1..32: widths above the length give no window, and
    # width == length exactly one
    rng = np.random.default_rng(seed)
    s = random_dna(rng, length)
    codes = encode_bases(s)
    for width in range(1, 33):
        vals = window_values(codes, width)
        assert vals.size == max(0, length - width + 1)
        assert vals.tolist() == [pack_mmer(s[i:i + width])
                                 for i in range(vals.size)]


@pytest.mark.parametrize("k", [5, 31, 32, 33, 47, 63])
def test_kmer_words_match_encode(k):
    rng = np.random.default_rng(k)
    s = random_dna(rng, 300)
    hi, lo = kmer_words(encode_bases(s), k)
    for i, sub in enumerate(all_kmers(s, k)):
        km = encode_kmer(sub)
        assert (int(hi[i]), int(lo[i])) == (km.hi, km.lo)


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
