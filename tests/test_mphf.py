import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpmphf import GeneralMphf, mphf
from lpmphf.errors import CorruptFile, DuplicateKey, EmptyFunction, LpmphfError

from conftest import mphf_header_patches


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


def test_keys_outside_levels_rejected_on_load(rng):
    f = GeneralMphf.build(distinct_keys(rng, 1000), seed=3)
    blob = f.to_bytes()
    assert blob[28:32] == bytes(4)   # the u32 after the level count
    bad = blob[:28] + (1).to_bytes(4, "little") + blob[32:]
    with pytest.raises(CorruptFile, match="outside"):
        GeneralMphf.from_bytes(bad)


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
    # a key count the levels do not add up to
    bad = (f.n_keys + 1).to_bytes(8, "little") + blob[8:]
    with pytest.raises(CorruptFile, match="MPHF level"):
        GeneralMphf.from_bytes(bad)
    # more ones than bits in level 0, with the key count raised to match
    nbits, ones = f._levels[0].nbits, f._levels[0].num_ones
    bad = bytearray(blob)
    bad[0:8] = (f.n_keys + nbits + 1 - ones).to_bytes(8, "little")
    bad[40:48] = (nbits + 1).to_bytes(8, "little")
    with pytest.raises(CorruptFile, match="MPHF level"):
        GeneralMphf.from_bytes(bytes(bad))
