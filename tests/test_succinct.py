import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpmphf import EliasFanoSeq, IntVector, RankBitvector, TypeSequence
from lpmphf.errors import (CorruptFile, IndexOutOfRange, NotMonotone,
                           UniverseTooSmall)
from lpmphf.succinct import _SELECT_STEPS

from oracles import brute_select, naive_rank, naive_symbol_rank


# --- RankBitvector ---------------------------------------------------------------

def test_rank_all_zero():
    bv = RankBitvector.from_bools(np.zeros(1000, dtype=bool))
    for i in (0, 1, 500, 1000):
        assert bv.rank1(i) == 0


def test_rank_hand_counted():
    bv = RankBitvector.from_bools(np.array([1, 0, 1, 1, 0], dtype=bool))
    assert bv.rank1(3) == 2
    assert bv.rank1(0) == 0
    assert bv.rank1(5) == 3


def test_rank_matches_naive_on_large_random(rng):
    bits = rng.random(1_000_000) < 0.4
    bv = RankBitvector.from_bools(bits)
    cum = np.concatenate([[0], np.cumsum(bits)])
    probes = rng.integers(0, bits.size + 1, size=10_000)
    assert np.array_equal(bv.rank1_many(probes), cum[probes])
    for i in probes[:200]:
        assert bv.rank1(int(i)) == int(cum[i])


@pytest.mark.parametrize("nbits", [1, 63, 64, 65, 511, 513, 1000, 4097])
def test_probe_matches_naive_rank_and_bits(nbits, rng):
    # dense at odd lengths, so the in-block counts pass 255
    bits = rng.random(nbits) < (0.9 if nbits % 2 else 0.3)
    bits[-1] = True
    bv = RankBitvector.from_bools(bits)
    idx = np.concatenate([np.arange(nbits), rng.integers(0, nbits, 300)])
    bit, rank = bv.probe_many(idx)
    assert bit.dtype == bool
    assert np.array_equal(bit, bits[idx])
    assert rank.tolist() == [naive_rank(bits, int(i)) for i in idx]
    assert np.array_equal(bv.rank1_many(idx), rank)
    # rank at nbits counts the last bit; the padding reads as clear
    bit, rank = bv.probe_many([nbits])
    assert not bit[0] and rank[0] == bits.sum() == bv.rank1(nbits)


def test_probe_2d_index_matches_1d_over_word_aligned_levels(rng):
    # levels of whole words laid end to end, as the inner MPHF reads them:
    # row l probes level l, its last column that level's last bit
    sizes = np.array([64, 128, 576, 64, 1024])
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    bits = rng.random(sizes.sum()) < 0.4
    bits[starts + sizes - 1] = [True, False, True, True, False]
    bv = RankBitvector.from_bools(bits)
    idx = starts[:, None] + rng.integers(0, 1 << 20, size=(sizes.size, 50)) % sizes[:, None]
    idx[:, -1] = starts + sizes - 1
    bit, rank = bv.probe_many(idx)
    flat_bit, flat_rank = bv.probe_many(idx.ravel())
    assert bit.shape == rank.shape == idx.shape
    assert np.array_equal(bit, flat_bit.reshape(idx.shape))
    assert np.array_equal(rank, flat_rank.reshape(idx.shape))
    assert np.array_equal(bit, bits[idx])
    assert np.array_equal(rank, np.concatenate([[0], np.cumsum(bits)])[idx])


def test_rank_out_of_range():
    bv = RankBitvector.from_bools(np.ones(10, dtype=bool))
    with pytest.raises(IndexOutOfRange):
        bv.rank1(11)
    with pytest.raises(IndexOutOfRange):
        bv.rank1(-1)


def test_select_matches_one_positions(rng):
    bits = rng.random(100_000) < 0.3
    bv = RankBitvector.from_bools(bits)
    ones = np.flatnonzero(bits)
    js = rng.integers(0, ones.size, size=5_000)
    assert np.array_equal(bv.select1_many(js), ones[js])
    for j in js[:300]:
        assert bv.select1(int(j)) == int(ones[j])
    with pytest.raises(IndexOutOfRange):
        bv.select1(ones.size)


def _select_cases(rng):
    """Bit arrays at densities 0.001 to 1, lengths off the 64- and 512-bit
    grid, and ones separated by whole all-zero words and blocks."""
    for density in (0.001, 0.01, 0.1, 0.5, 0.9, 1.0):
        for nbits in (1, 63, 65, 511, 513, 5_037):
            bits = rng.random(nbits) < density
            if bits.any():
                yield bits
    gaps = np.zeros(4_000, dtype=bool)
    gaps[[3, 70, 700, 701, 2_500, 3_999]] = True
    yield gaps


def test_select_matches_flatnonzero(rng):
    for bits in _select_cases(rng):
        bv = RankBitvector.from_bools(bits)
        ones = np.flatnonzero(bits)
        assert np.array_equal(bv.select1_many(np.arange(ones.size)), ones)
        for j in (0, ones.size // 2, ones.size - 1):
            assert bv.select1(j) == brute_select(bits, j)
        for bad in ([-1], [ones.size]):
            with pytest.raises(IndexOutOfRange):
                bv.select1_many(bad)


def test_next1_matches_flatnonzero(rng):
    for bits in _select_cases(rng):
        bv = RankBitvector.from_bools(bits)
        ones = np.flatnonzero(bits)
        js = np.arange(ones.size - 1)
        # the gaps case has next ones 2+ words away, and every case a last one
        assert np.array_equal(bv.next1_many(ones[:-1], js), ones[1:])
        for j in js[::max(1, js.size // 50)]:
            assert bv.next1(int(ones[j]), int(j)) == brute_select(bits, j + 1)
        with pytest.raises(IndexOutOfRange):
            bv.next1(int(ones[-1]), ones.size - 1)


def _naive_samples(bits):
    """Ones before each 64-bit word, the zero pad word and past it, from
    Python's int.bit_count() per word."""
    raw = np.packbits(bits, bitorder="little").tobytes()
    cum = [0]
    for i in range(0, len(raw), 8):
        cum.append(cum[-1] + int.from_bytes(raw[i:i + 8], "little").bit_count())
    return cum + [cum[-1]]


@pytest.mark.parametrize("nbits", [0, 1, 63, 64, 511, 512, 513, 4097])
def test_derived_directory_equals_built(nbits, rng):
    # the file stores nbits and the words; loading derives num_ones and the
    # rank samples, which must equal those from_positions built
    bits = rng.random(nbits) < 0.6
    if nbits:
        bits[-1] = True
    bv = RankBitvector.from_positions(nbits, np.flatnonzero(bits))
    back = RankBitvector.from_bytes(bv.to_bytes())
    assert len(bv.to_bytes()) == 8 + 8 * ((nbits + 63) // 64)
    cum = _naive_samples(bits)
    for b in (bv, back):
        assert b.nbits == nbits and b.num_ones == int(bits.sum())
        assert b._cum.dtype == np.int64 and b._cum.tolist() == cum
    assert back.to_bytes() == bv.to_bytes()


@pytest.mark.parametrize("nbits, full_last", [(320_000, True), (320_017, True),
                                              (320_000, False)])
def test_sparse_bits_and_full_last_word(nbits, full_last, rng):
    # ones 10^3 words apart leave long runs of equal samples, and without a
    # full last word a run reaches the end
    bits = np.zeros(nbits, dtype=bool)
    bits[::64_000] = True
    if full_last:
        bits[(nbits - 1) // 64 * 64:] = True
    bv = RankBitvector.from_bools(bits)
    cum = np.concatenate([[0], np.cumsum(bits)])
    ones = np.flatnonzero(bits)
    idx = np.concatenate([ones, ones + 1, rng.integers(0, nbits + 1, 500), [0, nbits]])
    idx = idx[idx <= nbits]
    assert np.array_equal(bv.rank1_many(idx), cum[idx])
    assert [bv.rank1(int(i)) for i in idx] == cum[idx].tolist()
    bit, rank = bv.probe_many(idx)
    assert np.array_equal(bit, np.append(bits, False)[idx])
    assert np.array_equal(rank, cum[idx])
    js = np.arange(ones.size)
    assert np.array_equal(bv.select1_many(js), ones)
    assert [bv.select1(int(j)) for j in js] == ones.tolist()
    assert np.array_equal(bv.next1_many(ones[:-1], js[:-1]), ones[1:])
    assert [bv.next1(int(p), j) for j, p in enumerate(ones[:-1])] == ones[1:].tolist()


def _first_ones(bits, count):
    """`bits` with only its first `count` set bits kept."""
    out = bits.copy()
    out[np.flatnonzero(bits)[count]:] = False
    return out


def _sampled_select_cases():
    """Bit arrays for the select sample, by name: Elias-Fano-like density
    (about 1/2), ones 10^3 words apart (past the step bound, so select
    falls back to a search), one-counts on and off a multiple of 64, one set
    bit in the last word, all ones, and a length off the 64-bit grid."""
    rng = np.random.default_rng(21)
    half = rng.random(64 * 1_000) < 0.5
    sparse = np.zeros(64 * 10 ** 4 + 64, dtype=bool)
    sparse[::64_000] = True
    sparse[64_000 * 5 + 1:64_000 * 5 + 200] = True   # ranks found within the steps too
    last = np.zeros(64 * 80 + 13, dtype=bool)
    last[-1] = True
    return {
        "ef_density": half,
        "ones_1000_words_apart": sparse,
        "ones_multiple_of_64": _first_ones(half, 64 * 200),
        "ones_not_multiple_of_64": _first_ones(half, 64 * 200 + 37),
        "one_bit_in_last_word": last,
        "all_ones": np.ones(64 * 50, dtype=bool),
        "nbits_off_grid": rng.random(10_007) < 0.45,
    }


_SAMPLED_CASES = _sampled_select_cases()


@pytest.mark.parametrize("reload", [False, True], ids=["built", "reloaded"])
@pytest.mark.parametrize("case", list(_SAMPLED_CASES))
def test_sampled_select_matches_flatnonzero(case, reload, rng):
    bits = _SAMPLED_CASES[case]
    bv = RankBitvector.from_bools(bits)
    if reload:
        bv = RankBitvector.from_bytes(bv.to_bytes())
    ones = np.flatnonzero(bits)
    js = np.arange(ones.size)
    shuffled = rng.permutation(ones.size)
    assert np.array_equal(bv.select1_many(js), ones)
    assert np.array_equal(bv.select1_many(shuffled), ones[shuffled])
    assert [bv.select1(j) for j in js.tolist()] == ones.tolist()
    assert np.array_equal(bv.next1_many(ones[:-1], js[:-1]), ones[1:])
    assert [bv.next1(p, j) for j, p in enumerate(ones[:-1].tolist())] == \
        ones[1:].tolist()
    for bad in (-1, ones.size):
        with pytest.raises(IndexOutOfRange):
            bv.select1(bad)
        with pytest.raises(IndexOutOfRange):
            bv.select1_many([bad])


@pytest.fixture
def searchsorted_sizes(monkeypatch):
    """The number of values of each `np.searchsorted` call from here on."""
    sizes, real = [], np.searchsorted

    def counted(a, v, *args, **kwargs):
        sizes.append(np.size(v))
        return real(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counted)
    return sizes


def test_select_searches_only_past_the_step_bound(searchsorted_sizes):
    dense = RankBitvector.from_bools(_SAMPLED_CASES["ef_density"])
    ones = np.flatnonzero(_SAMPLED_CASES["ef_density"])
    dense.select1(0)
    assert searchsorted_sizes == [-(-ones.size // 64)]   # deriving the sample
    searchsorted_sizes.clear()
    js = np.arange(ones.size)
    dense.select1_many(js)
    dense.next1_many(ones[:-1], js[:-1])
    for j in range(0, ones.size, 7):
        dense.select1(j)
    assert searchsorted_sizes == []
    # full words between empty ones: every next one after a word's last
    # falls through to a select
    gapped = np.tile(np.repeat([True, False], 64), 40)
    ones = np.flatnonzero(gapped)
    bv = RankBitvector.from_bools(gapped)
    bv.select1(0)
    searchsorted_sizes.clear()
    ends = np.arange(63, ones.size - 1, 64)
    assert np.array_equal(bv.next1_many(ones[ends], ends), ones[ends + 1])
    assert [bv.next1(int(ones[j]), int(j)) for j in ends] == ones[ends + 1].tolist()
    assert searchsorted_sizes == []
    # ones 10^3 words apart: only ranks past the step bound search
    bits = _SAMPLED_CASES["ones_1000_words_apart"]
    sparse = RankBitvector.from_bools(bits)
    ones = np.flatnonzero(bits)
    js = np.arange(ones.size)
    sparse.select1(0)
    far = np.flatnonzero(sparse._select_sample[js >> 6] + _SELECT_STEPS < ones >> 6)
    searchsorted_sizes.clear()
    sparse.select1_many(js)
    assert far.size and searchsorted_sizes == [far.size]
    searchsorted_sizes.clear()
    for j in js.tolist():
        sparse.select1(j)
    assert searchsorted_sizes == [1] * far.size


def test_set_bit_past_length_rejected_on_load():
    blob = bytearray(RankBitvector.from_bools(np.ones(70, dtype=bool)).to_bytes())
    blob[8 + 8 + 0] |= 1 << 6   # bit 70, in the last word's padding
    with pytest.raises(CorruptFile, match="past its length"):
        RankBitvector.from_bytes(bytes(blob))


def test_rank_samples_one_int64_per_word_plus_pad():
    # in memory only; the serialized form holds nbits and words only
    bv = RankBitvector.from_bools(np.ones(1_000_000, dtype=bool))
    nwords = (1_000_000 + 63) // 64
    assert bv._cum.dtype == np.int64 and bv._cum.size == nwords + 2
    assert bv.size_in_bits() == 64 + 64 * nwords


@given(st.lists(st.booleans(), min_size=0, max_size=700), st.integers(0, 2 ** 20))
@settings(max_examples=60, deadline=None)
def test_rank_select_property(bits, probe_seed):
    bits = np.array(bits, dtype=bool)
    bv = RankBitvector.from_bools(bits)
    rng = np.random.default_rng(probe_seed)
    for i in rng.integers(0, bits.size + 1, size=10):
        assert bv.rank1(int(i)) == naive_rank(bits, int(i))
    ones = np.flatnonzero(bits)
    if ones.size:
        j = int(rng.integers(0, ones.size))
        assert bv.select1(j) == int(ones[j])
        assert bv.select1_many([j])[0] == int(ones[j])


def test_bitvector_serialization_round_trip(rng):
    bits = rng.random(10_000) < 0.5
    bv = RankBitvector.from_bools(bits)
    back = RankBitvector.from_bytes(bv.to_bytes())
    assert back.nbits == bv.nbits and back.num_ones == bv.num_ones
    probes = rng.integers(0, bits.size + 1, size=500)
    assert np.array_equal(back.rank1_many(probes), bv.rank1_many(probes))
    assert back.to_bytes() == bv.to_bytes()


# --- IntVector -------------------------------------------------------------------

@pytest.mark.parametrize("width", [0, 1, 3, 5, 17, 31, 33, 63, 64])
def test_intvector_round_trip(width, rng):
    # values always below 2^63 so the stored value fits int64 untouched
    vals = rng.integers(0, 2 ** min(width, 63), size=1000, dtype=np.uint64) \
        if width else np.zeros(1000, dtype=np.uint64)
    iv = IntVector.from_values(vals, width)
    assert np.array_equal(iv.get_many(np.arange(1000)), vals.astype(np.int64))
    for i in range(0, 1000, 97):
        assert iv.get(i) == int(vals[i])
    back = IntVector.from_bytes(iv.to_bytes())
    assert np.array_equal(back.get_many(np.arange(1000)),
                          iv.get_many(np.arange(1000)))


def test_intvector_bounds():
    iv = IntVector.from_values(np.arange(10), 4)
    with pytest.raises(IndexOutOfRange):
        iv.get(10)


# --- EliasFanoSeq ----------------------------------------------------------------

def test_ef_empty():
    ef = EliasFanoSeq.from_values(np.empty(0, dtype=np.int64), universe=100)
    assert len(ef) == 0
    with pytest.raises(IndexOutOfRange):
        ef.access(0)


def test_ef_small_fixture():
    ef = EliasFanoSeq.from_values(np.array([0, 0, 0, 5]), universe=5)
    assert [ef.access(i) for i in range(4)] == [0, 0, 0, 5]


def test_ef_matches_plain_array_oracle(rng):
    vals = np.sort(rng.integers(0, 10 ** 7, size=100_000))
    ef = EliasFanoSeq.from_values(vals, universe=10 ** 7)
    probes = rng.integers(0, vals.size, size=10_000)
    assert np.array_equal(ef.access_many(probes), vals[probes])
    for i in probes[:200]:
        assert ef.access(int(i)) == int(vals[i])


@pytest.mark.parametrize("values,universe", [
    ([7], 7), ([0, 0], 0), ([3, 9], 20), ([0, 0, 0, 5, 5, 9, 9, 9], 9),
    ([2] * 300, 1_000), (list(range(0, 3_000, 3)), 3_000)])
def test_ef_bounds_match_plain_array(values, universe):
    vals = np.array(values, dtype=np.int64)
    ef = EliasFanoSeq.from_values(vals, universe=universe)
    idx = np.arange(vals.size - 1)
    lo, hi = ef.bounds_many(idx)
    assert np.array_equal(lo, vals[:-1]) and np.array_equal(hi, vals[1:])
    for i in idx:
        assert ef.bounds(int(i)) == (int(vals[i]), int(vals[i + 1]))
    with pytest.raises(IndexOutOfRange):
        ef.bounds(vals.size - 1)


def test_ef_bounds_random_with_zero_size_slots(rng):
    sizes = rng.integers(0, 4, size=20_000) * (rng.random(20_000) < 0.7)
    vals = np.concatenate([[0], np.cumsum(sizes)])
    ef = EliasFanoSeq.from_values(vals, universe=int(vals[-1]))
    idx = rng.integers(0, vals.size - 1, size=5_000)
    lo, hi = ef.bounds_many(idx)
    assert np.array_equal(lo, vals[idx]) and np.array_equal(hi, vals[idx + 1])


def test_ef_errors():
    with pytest.raises(NotMonotone):
        EliasFanoSeq.from_values(np.array([3, 2]), universe=10)
    with pytest.raises(UniverseTooSmall):
        EliasFanoSeq.from_values(np.array([3, 11]), universe=10)


@given(st.lists(st.integers(0, 10 ** 6), min_size=0, max_size=500),
       st.integers(0, 2 ** 20))
@settings(max_examples=60, deadline=None)
def test_ef_round_trip_property(values, probe_seed):
    vals = np.sort(np.array(values, dtype=np.int64))
    u = int(vals[-1]) if vals.size else 0
    ef = EliasFanoSeq.from_values(vals, universe=u)
    idx = np.arange(vals.size)
    assert np.array_equal(ef.access_many(idx), vals)
    back = EliasFanoSeq.from_bytes(ef.to_bytes())
    assert np.array_equal(back.access_many(idx), vals)


def test_ef_space_bound(rng):
    n, u = 100_000, 10 ** 8
    vals = np.sort(rng.integers(0, u, size=n))
    ef = EliasFanoSeq.from_values(vals, universe=u)
    bound = n * (2 + int(np.ceil(np.log2(u / n)))) + 512
    assert ef.size_in_bits() <= bound


# --- TypeSequence ----------------------------------------------------------------

def test_type_sequence_empty_prefix():
    ts = TypeSequence.from_symbols(np.array([0, 1, 2, 3], dtype=np.uint8))
    for t in range(4):
        assert ts.rank(t, 0) == 0


def test_type_sequence_uniform():
    ts = TypeSequence.from_symbols(np.zeros(7, dtype=np.uint8))
    assert ts.rank(0, 7) == 7
    assert ts.rank(1, 7) == 0


def test_type_sequence_matches_naive(rng):
    symbols = rng.integers(0, 4, size=100_000).astype(np.uint8)
    ts = TypeSequence.from_symbols(symbols)
    idx = rng.integers(0, symbols.size, size=2_000)
    cums = {t: np.concatenate([[0], np.cumsum(symbols == t)]) for t in range(4)}
    got_symbols, got_ranks = ts.access_many(idx)
    assert np.array_equal(got_symbols, symbols[idx])
    assert np.array_equal(got_ranks, [cums[int(symbols[i])][i] for i in idx])
    probes_t = rng.integers(0, 4, size=1_000)
    probes_i = rng.integers(0, symbols.size + 1, size=1_000)
    got = ts.rank_many(probes_t, probes_i)
    want = np.array([cums[int(t)][int(i)] for t, i in zip(probes_t, probes_i)])
    assert np.array_equal(got, want)
    for t, i in zip(probes_t[:100], probes_i[:100]):
        assert ts.rank(int(t), int(i)) == naive_symbol_rank(symbols, int(t), int(i))
        j = int(min(i, symbols.size - 1))
        assert ts.access(j) == (symbols[j], cums[int(symbols[j])][j])


_SYMBOL_CASES = {
    "empty": [],
    "one": [2],
    "below_2": np.random.default_rng(3).integers(0, 2, size=1_300),
    "from_2": np.random.default_rng(4).integers(2, 4, size=1_300),
    "repeated": [1] * 1_100,
    "mixed": np.random.default_rng(5).integers(0, 4, size=1_500),
}


@pytest.mark.parametrize("reload", [False, True], ids=["built", "reloaded"])
@pytest.mark.parametrize("case", list(_SYMBOL_CASES))
def test_type_sequence_access_many_returns_symbol_and_rank(case, reload, rng):
    symbols = np.asarray(_SYMBOL_CASES[case], dtype=np.uint8)
    ts = TypeSequence.from_symbols(symbols)
    if reload:
        ts = TypeSequence.from_bytes(ts.to_bytes())
    idx = rng.permutation(symbols.size)
    got_symbols, got_ranks = ts.access_many(idx)
    assert got_symbols.tolist() == symbols[idx].tolist()
    assert got_ranks.tolist() == [naive_symbol_rank(symbols, int(symbols[i]), i)
                                  for i in idx.tolist()]
    assert [ts.access(i) for i in idx.tolist()] == \
        list(zip(got_symbols.tolist(), got_ranks.tolist()))
    assert ts.counts == [naive_symbol_rank(symbols, t, symbols.size) for t in range(4)]


def test_type_sequence_ranks_sum_to_i(rng):
    symbols = rng.integers(0, 4, size=5_000).astype(np.uint8)
    ts = TypeSequence.from_symbols(symbols)
    for i in rng.integers(0, 5_001, size=50):
        assert sum(ts.rank(t, int(i)) for t in range(4)) == int(i)


def test_type_sequence_bits_per_element(rng):
    symbols = rng.integers(0, 4, size=100_000).astype(np.uint8)
    ts = TypeSequence.from_symbols(symbols)
    assert ts.size_in_bits() / symbols.size <= 2.8


def test_type_sequence_serialization(rng):
    symbols = rng.integers(0, 4, size=3_000).astype(np.uint8)
    ts = TypeSequence.from_symbols(symbols)
    back = TypeSequence.from_bytes(ts.to_bytes())
    idx = np.arange(symbols.size)
    got_symbols, got_ranks = back.access_many(idx)
    assert np.array_equal(got_symbols, symbols)
    assert np.array_equal(got_ranks, [naive_symbol_rank(symbols, t, i)
                                      for i, t in enumerate(symbols.tolist())])
    assert back.to_bytes() == ts.to_bytes()
