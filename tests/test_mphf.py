from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpmphf import GeneralMphf, mphf
from lpmphf.kmers import hash_words
from lpmphf.errors import (CorruptFile, DuplicateKey, EmptyFunction,
                           LengthOutOfRange, LpmphfError)

from conftest import mphf_header_patches
from oracles import brute_mphf_value, mphf_levels_from_bytes


def distinct_keys(rng, n, bits=62):
    pool = rng.integers(0, 2 ** bits, size=int(n * 1.2) + 8, dtype=np.uint64)
    keys = np.unique(pool)[:n]
    assert keys.size == n
    return keys


def test_singleton():
    f = GeneralMphf.build(np.array([42], dtype=np.uint64))
    assert f.evaluate(42) == 0
    assert f.evaluate_many(np.array([42], dtype=np.uint64))[0] == 0


def test_empty_function():
    f = GeneralMphf.build(np.empty(0, dtype=np.uint64))
    assert f.n_keys == 0
    with pytest.raises(EmptyFunction):
        f.evaluate(1)
    with pytest.raises(EmptyFunction):
        f.evaluate_many(np.array([1], dtype=np.uint64))


@pytest.mark.parametrize("n", [1, 2, 10, 1000, 100_000])
def test_bijective(n, rng):
    keys = distinct_keys(rng, n)
    f = GeneralMphf.build(keys, seed=n)
    vals = f.evaluate_many(keys)
    assert np.array_equal(np.sort(vals), np.arange(n))


def test_scalar_matches_vector(rng):
    keys = distinct_keys(rng, 500)
    f = GeneralMphf.build(keys, seed=3)
    vals = f.evaluate_many(keys)
    for i in range(0, 500, 23):
        assert f.evaluate(int(keys[i])) == int(vals[i])


def test_low_gamma_places_every_key_past_twelve_levels(rng):
    # at gamma 0.5 a level places about e^-2 of its keys, so 2*10^4 keys
    # need far more than 12 levels before none is left
    keys = distinct_keys(rng, 20_000)
    f = GeneralMphf.build(keys, seed=5, gamma=0.5)
    assert f.num_levels > 12
    vals = f.evaluate_many(keys)
    assert np.array_equal(np.sort(vals), np.arange(keys.size))
    others = rng.integers(2 ** 62, 2 ** 63, size=2000, dtype=np.uint64)
    queries = np.concatenate([keys, others])
    for key, v in zip(queries.tolist(), f.evaluate_many(queries).tolist()):
        assert f.evaluate(key) == v
    blob = f.to_bytes()
    assert GeneralMphf.from_bytes(blob).to_bytes() == blob


def test_level_cap_raises(rng, monkeypatch):
    monkeypatch.setattr(mphf, "MAX_LEVELS", 1)
    with pytest.raises(LpmphfError, match="after 1 MPHF levels") as e:
        GeneralMphf.build(distinct_keys(rng, 1000), seed=3)
    assert type(e.value) is LpmphfError


def test_level_count_above_cap_rejected_on_load(rng, monkeypatch):
    f = GeneralMphf.build(distinct_keys(rng, 1000), seed=3)
    blob = f.to_bytes()
    bad = blob[:24] + (2 ** 32 - 1).to_bytes(4, "little") + blob[28:]
    with pytest.raises(CorruptFile, match="levels"):
        GeneralMphf.from_bytes(bad)
    # a well-formed function with one level more than the cap allows
    monkeypatch.setattr(mphf, "MAX_LEVELS", f.num_levels - 1)
    with pytest.raises(CorruptFile, match="levels"):
        GeneralMphf.from_bytes(blob)


def test_member_evaluation_stable(rng):
    keys = distinct_keys(rng, 100)
    f = GeneralMphf.build(keys, seed=1)
    assert f.evaluate(int(keys[0])) == f.evaluate(int(keys[0]))


def test_non_member_in_range(rng):
    keys = distinct_keys(rng, 1000)
    f = GeneralMphf.build(keys, seed=9)
    others = rng.integers(2 ** 62, 2 ** 63, size=2000, dtype=np.uint64)
    vals = f.evaluate_many(others)
    assert np.all((vals >= 0) & (vals < 1000))
    assert 0 <= f.evaluate(int(others[0])) < 1000


def test_two_word_keys_bijective(rng):
    hi = rng.integers(0, 2 ** 62, size=5000, dtype=np.uint64)
    lo = np.zeros(5000, dtype=np.uint64)   # all collide on lo, differ on hi
    hi = np.unique(hi)
    lo = lo[:hi.size]
    f = GeneralMphf.build(lo, hi, seed=4)
    vals = f.evaluate_many(lo, hi)
    assert np.array_equal(np.sort(vals), np.arange(hi.size))
    key0 = (int(hi[0]) << 64) | int(lo[0])
    assert f.evaluate(key0) == int(vals[0])


def test_hi_and_lo_of_unequal_length_are_typed():
    lo = np.arange(5, dtype=np.uint64)
    with pytest.raises(LengthOutOfRange):
        GeneralMphf.build(lo, hi=np.zeros(4, dtype=np.uint64))
    f = GeneralMphf.build(lo)
    with pytest.raises(LengthOutOfRange):
        f.evaluate_many(lo, hi=np.zeros(6, dtype=np.uint64))


@pytest.mark.parametrize("size", [0, 1, "one grouped pass", 10_000])
def test_one_word_keys_agree_with_a_zero_high_word(size, rng):
    # 64-bit keys hash as one word, with no hi array: the values of hi = 0
    # and of the scalar path, for members and for non-members, down to the
    # seeded default of a key that hits no level; the inputs stay unchanged
    keys = distinct_keys(rng, 5_000)
    f = GeneralMphf.build(keys, seed=11)
    if size == "one grouped pass":   # every level probed in one 2-D pass
        size = mphf._GROUP // f.num_levels
    others = rng.integers(0, 2 ** 64, size=10_000, dtype=np.uint64)
    pool = rng.permutation(np.concatenate([keys, others]))[:size]
    lo, zeros = pool.copy(), np.zeros(size, dtype=np.uint64)
    one, two = f.evaluate_many(lo), f.evaluate_many(lo, zeros)
    assert np.array_equal(lo, pool) and not zeros.any()
    assert one.dtype == two.dtype == np.int64 and one.shape == (size,)
    assert one.tolist() == two.tolist() == [f.evaluate(x) for x in pool.tolist()]
    if size > 1:   # members, and non-members of which some hit no level
        bits, (_, rows) = f._bits, f._view
        default = [x for x in pool.tolist() if not any(bits.probe(
            start + hash_words(0, x, key) % nbits)[0] for key, nbits, start in rows)]
        assert 0 < np.isin(pool, keys).sum() < size and default


def test_duplicate_keys_rejected():
    with pytest.raises(DuplicateKey) as e:
        GeneralMphf.build(np.array([5, 5], dtype=np.uint64))
    assert e.value.key == 5
    # two-word keys: equal lo with different hi are distinct keys
    lo = np.array([7, 7], dtype=np.uint64)
    assert GeneralMphf.build(lo, np.array([1, 2], dtype=np.uint64)).n_keys == 2
    with pytest.raises(DuplicateKey) as e:
        GeneralMphf.build(lo, np.array([2, 2], dtype=np.uint64))
    assert e.value.key == (2 << 64) | 7


@pytest.mark.parametrize("two_words", [False, True])
@pytest.mark.parametrize("gamma", [1.0, 2.0])
@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 10_000])
def test_build_out_equals_evaluate_many(n, gamma, two_words, rng):
    if two_words:   # few distinct low words, so keys differ mostly in hi
        hi = distinct_keys(rng, n, bits=64)
        lo = rng.integers(0, 3, size=n, dtype=np.uint64)
    else:
        hi, lo = None, distinct_keys(rng, n, bits=64)
    out = np.full(n, -1, dtype=np.int64)
    f = GeneralMphf.build(lo, hi, seed=n, gamma=gamma, out=out)
    assert np.array_equal(out, f.evaluate_many(lo, hi))
    assert np.array_equal(np.sort(out), np.arange(n))
    assert f.to_bytes() == GeneralMphf.build(lo, hi, seed=n, gamma=gamma).to_bytes()


def smallest_repeat(hi, lo):
    """Oracle: the smallest (hi, lo) key counted more than once, packed."""
    counts = Counter(zip(hi.tolist(), lo.tolist()))
    h, low = min(key for key, c in counts.items() if c > 1)
    return h << 64 | low


@pytest.mark.parametrize("case", ["all_equal", "one_among_many", "triples",
                                  "hi_only"])
def test_duplicate_found_by_the_levels(case, rng, monkeypatch):
    keys = distinct_keys(rng, 10_000, bits=64)
    if case == "all_equal":
        lo = np.full(1000, 77, dtype=np.uint64)
    elif case == "one_among_many":
        lo = np.append(keys, keys[4321])
    elif case == "triples":   # 20 keys three times each
        lo = np.concatenate([keys, keys[:20], keys[:20]])
    if case == "hi_only":   # every low word equal: keys differ, and repeat, in hi
        hi = np.concatenate([keys, keys[::1000]])
        lo = np.zeros(hi.size, dtype=np.uint64)
    else:
        hi = np.zeros(lo.size, dtype=np.uint64)
    order = rng.permutation(lo.size)
    hi, lo = hi[order], lo[order]
    levels = []   # the first level that places no key ends the build, not the cap
    level_seed = mphf._level_seed

    def counted(seed, level):
        levels.append(level)
        return level_seed(seed, level)

    monkeypatch.setattr(mphf, "_level_seed", counted)
    with pytest.raises(DuplicateKey) as e:
        GeneralMphf.build(lo, hi, seed=11)
    assert e.value.key == smallest_repeat(hi, lo)
    assert len(levels) < mphf.MAX_LEVELS


def test_level_cap_with_duplicates_raises_duplicate_key(rng, monkeypatch):
    keys = distinct_keys(rng, 1000)
    lo = np.concatenate([keys, keys[:3]])
    assert GeneralMphf.build(keys, seed=3).num_levels > 1
    monkeypatch.setattr(mphf, "MAX_LEVELS", 1)
    with pytest.raises(DuplicateKey) as e:
        GeneralMphf.build(lo, seed=3)
    assert e.value.key == int(keys[:3].min())


def test_deterministic_and_seed_sensitive(rng):
    keys = distinct_keys(rng, 2000)
    a = GeneralMphf.build(keys, seed=7).to_bytes()
    b = GeneralMphf.build(keys, seed=7).to_bytes()
    c = GeneralMphf.build(keys, seed=8).to_bytes()
    assert a == b
    assert a != c


def test_serialization_round_trip(rng):
    keys = distinct_keys(rng, 3000)
    f = GeneralMphf.build(keys, seed=2)
    g = GeneralMphf.from_bytes(f.to_bytes())
    assert np.array_equal(f.evaluate_many(keys), g.evaluate_many(keys))
    others = rng.integers(0, 2 ** 62, size=1000, dtype=np.uint64)
    assert np.array_equal(f.evaluate_many(others), g.evaluate_many(others))


def test_bits_per_key_at_1e5(rng):
    keys = distinct_keys(rng, 100_000)
    f = GeneralMphf.build(keys, seed=0, gamma=2.0)
    assert f.bits_per_key <= 4.2


@given(st.sets(st.integers(0, 2 ** 120), min_size=1, max_size=300))
@settings(max_examples=40, deadline=None)
def test_bijective_property(keyset):
    keys = sorted(keyset)
    hi = np.array([k >> 64 for k in keys], dtype=np.uint64)
    lo = np.array([k & (2 ** 64 - 1) for k in keys], dtype=np.uint64)
    f = GeneralMphf.build(lo, hi, seed=6)
    vals = f.evaluate_many(lo, hi)
    assert np.array_equal(np.sort(vals), np.arange(len(keys)))


@pytest.mark.parametrize("gamma", [2.0, 0.5])
def test_fresh_load_scalar_equals_vector_either_first(gamma, rng):
    # 128-bit keys; gamma 0.5 needs more than 12 levels to place them all
    hi = rng.integers(0, 2 ** 63, size=3000, dtype=np.uint64)
    lo = distinct_keys(rng, 3000, bits=63)
    f = GeneralMphf.build(lo, hi, seed=11, gamma=gamma)
    assert (f.num_levels > 12) == (gamma < 1)
    others_hi = rng.integers(0, 2 ** 63, size=500, dtype=np.uint64)
    others_lo = rng.integers(0, 2 ** 63, size=500, dtype=np.uint64)
    qhi, qlo = np.concatenate([hi, others_hi]), np.concatenate([lo, others_lo])
    keys = [(h << 64) | l for h, l in zip(qhi.tolist(), qlo.tolist())]
    expect = f.evaluate_many(qlo, qhi)
    assert np.array_equal(np.sort(expect[:3000]), np.arange(3000))
    blob = f.to_bytes()
    scalar_first = GeneralMphf.from_bytes(blob)
    assert [scalar_first.evaluate(x) for x in keys] == expect.tolist()
    assert np.array_equal(scalar_first.evaluate_many(qlo, qhi), expect)
    vector_first = GeneralMphf.from_bytes(blob)
    assert np.array_equal(vector_first.evaluate_many(qlo, qhi), expect)
    assert [vector_first.evaluate(x) for x in keys] == expect.tolist()


def test_inconsistent_level_header_raises_corrupt_file(rng):
    f = GeneralMphf.build(distinct_keys(rng, 1000), seed=3)
    blob = f.to_bytes()
    assert GeneralMphf.from_bytes(blob).to_bytes() == blob
    for _, patched in mphf_header_patches(blob, f):
        with pytest.raises(CorruptFile, match="MPHF level"):
            GeneralMphf.from_bytes(patched)


@pytest.mark.parametrize("bit", [0, 63, 64 * 3 + 17])
def test_flipped_level_word_raises_corrupt_file_on_evaluation(bit, rng):
    # the set-bit count is derived from the words on load, so the function
    # fails to load and is never evaluated
    keys = distinct_keys(rng, 1000)
    blob = bytearray(GeneralMphf.build(keys, seed=3).to_bytes())
    words = 36   # header (28 bytes), then level 0's nbits
    blob[words + bit // 8] ^= 1 << (bit % 8)
    with pytest.raises(CorruptFile, match="MPHF level words"):
        GeneralMphf.from_bytes(bytes(blob))


@pytest.fixture(scope="module", params=[(2.0, 64), (2.0, 128), (0.5, 64), (0.5, 128)],
                ids=lambda p: f"gamma{p[0]}-{p[1]}bit")
def oracle_case(request):
    """A function over 10^4 keys, and a shuffled pool of its keys and as
    many others with each one's value under the level-by-level oracle."""
    gamma, width = request.param
    rng = np.random.default_rng([width, int(10 * gamma)])
    n = 10_000
    lo = distinct_keys(rng, n, bits=63)
    hi = (rng.integers(0, 2 ** 63, size=n, dtype=np.uint64) if width == 128
          else np.zeros(n, dtype=np.uint64))
    f = GeneralMphf.build(lo, hi if width == 128 else None, seed=width, gamma=gamma)
    others = rng.integers(0, 2 ** 63, size=(2, n), dtype=np.uint64)
    order = rng.permutation(2 * n)
    qlo = np.concatenate([lo, others[0]])[order]
    qhi = np.concatenate([hi, others[1] if width == 128 else hi])[order]
    keys = [(h << 64) | x for h, x in zip(qhi.tolist(), qlo.tolist())]
    n_keys, seed, levels = mphf_levels_from_bytes(f.to_bytes())
    expect = np.array([brute_mphf_value(n_keys, seed, levels, x) for x in keys])
    assert np.array_equal(np.sort(expect[order < n]), np.arange(n))
    return f, width, qlo, qhi, keys, expect


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
def test_evaluate_matches_level_oracle(oracle_case, loaded):
    f, width, qlo, qhi, keys, expect = oracle_case
    if loaded:
        f = GeneralMphf.from_bytes(f.to_bytes())
    assert (f.num_levels > 12) == (f.gamma < 1)
    group = mphf._GROUP
    # batch sizes on both sides of one grouped pass over every level, up to
    # the whole pool; at most 300 batches of each size
    for size in (1, 7, group - 1, group, group + 1, 20_000):
        for a in range(0, min(qlo.size, 300 * size), size):
            batch = slice(a, a + size)
            got = (f.evaluate_many(qlo[batch], qhi[batch]) if width == 128
                   else f.evaluate_many(qlo[batch]))
            assert np.array_equal(got, expect[batch]), (size, a)
    assert [f.evaluate(x) for x in keys[:4000]] == expect[:4000].tolist()
