import hashlib

import numpy as np
import pytest

from lpmphf import (MinimizerScheme, SpssInput, build_basic,
                    build_partitioned, generate_spss, load_structure,
                    save_structure)
from lpmphf.errors import CorruptFile
from lpmphf.kmers import kmer_words
from lpmphf.storage import structure_from_bytes, structure_to_bytes

from conftest import ef_header_patches
from oracles import random_dna


@pytest.fixture(scope="module", params=["basic", "partitioned"])
def built(request, small_spss):
    scheme = MinimizerScheme(k=31, m=15, seed=41)
    builder = build_basic if request.param == "basic" else build_partitioned
    return builder(small_spss, scheme)


def test_round_trip_answers_identically(built, small_spss, tmp_path, rng):
    p = tmp_path / "f.lph"
    save_structure(built, p)
    back = load_structure(p)
    assert back.variant == built.variant
    assert back.n == built.n and back.scheme == built.scheme
    # member queries
    for codes in small_spss.codes:
        assert np.array_equal(back.stream_lookup(codes),
                              built.stream_lookup(codes))
    # arbitrary queries, checked and unchecked
    q = random_dna(rng, 10_000 + 30)
    from lpmphf.kmers import encode_bases
    hi, lo = kmer_words(encode_bases(q), 31)
    for checked in (False, True):
        assert np.array_equal(back.lookup_words(hi, lo, checked=checked),
                              built.lookup_words(hi, lo, checked=checked))


def test_reserialization_is_identical(built):
    blob = structure_to_bytes(built)
    again = structure_to_bytes(structure_from_bytes(blob))
    assert blob == again


def test_build_deterministic(small_spss):
    scheme = MinimizerScheme(k=31, m=15, seed=7)
    a = structure_to_bytes(build_partitioned(small_spss, scheme))
    b = structure_to_bytes(build_partitioned(small_spss, scheme))
    assert a == b
    c = structure_to_bytes(
        build_partitioned(small_spss, MinimizerScheme(k=31, m=15, seed=8)))
    assert a != c


def test_bad_magic_rejected(built):
    blob = bytearray(structure_to_bytes(built))
    blob[:4] = b"NOPE"
    with pytest.raises(CorruptFile):
        structure_from_bytes(bytes(blob))


def test_ef_header_fields_checked_on_load(built):
    blob = structure_to_bytes(built)
    ef = built.L if built.variant == "basic" else built.L_n
    for field, bad in ef_header_patches(blob, ef):
        with pytest.raises(CorruptFile):
            structure_from_bytes(bad)
            pytest.fail(f"patched {field} loaded")


def test_bad_version_rejected(built):
    blob = bytearray(structure_to_bytes(built))
    blob[4] = 99
    with pytest.raises(CorruptFile):
        structure_from_bytes(bytes(blob))


def test_truncated_rejected(built):
    blob = structure_to_bytes(built)
    with pytest.raises(CorruptFile):
        structure_from_bytes(blob[:len(blob) // 2])
    with pytest.raises(CorruptFile):
        structure_from_bytes(blob[:10])


def test_trailing_garbage_rejected(built):
    blob = structure_to_bytes(built) + b"\x00"
    with pytest.raises(CorruptFile):
        structure_from_bytes(blob)


def test_unknown_variant_code_rejected(built):
    blob = bytearray(structure_to_bytes(built))
    blob[6] = 7  # variant code byte follows the 4-byte magic and u16 version
    with pytest.raises(CorruptFile, match="unknown variant"):
        structure_from_bytes(bytes(blob))


def _golden_long():
    spss = generate_spss(3000 + 30, 31, seed=11)
    return spss, MinimizerScheme(k=31, m=15, seed=5)


def _golden_unitigs():
    # one string cut into unitig-like pieces overlapping by k-1 bases; at
    # m=5 about two thirds of the k-mers go to the fallback MPHF
    whole = generate_spss(2000 + 30, 31, seed=12).codes[0]
    cuts = [0, 170, 260, 700, 745, 1200, 1610, whole.size]
    pieces = [whole[a:b + 30] for a, b in zip(cuts, cuts[1:])]
    return SpssInput(k=31, codes=pieces), MinimizerScheme(k=31, m=5, seed=5)


# sha256 of to_bytes(); any change means the file format changed
GOLDEN = {
    ("long", "basic"):
        "1ee70891f98b984927ddbd0f10f5de58192427d44f12cf9eb20348ade5ff86ff",
    ("long", "partitioned"):
        "64e360df4bd8ec1c147a40b32ee97c1d1349251caffab9c0ddd7787602a5182a",
    ("unitigs", "basic"):
        "3c1c92514a2dd0359a12be866238a1dc8047764594e58920aae6541b68629dac",
    ("unitigs", "partitioned"):
        "8519ea5754c288384167a1b48845bca58dbccc17cc3b2b32cb952b49bb6d4b1d",
}


@pytest.mark.filterwarnings(
    "ignore::lpmphf.minimizers.MinimizerDensityWarning")
@pytest.mark.parametrize("case", ["long", "unitigs"])
@pytest.mark.parametrize("variant", ["basic", "partitioned"])
def test_golden_bytes(case, variant):
    spss, scheme = {"long": _golden_long, "unitigs": _golden_unitigs}[case]()
    builder = build_basic if variant == "basic" else build_partitioned
    f = builder(spss, scheme)
    if case == "unitigs":
        assert spss.num_strings == 7 and 0 < f.n_unambiguous < f.n
    digest = hashlib.sha256(structure_to_bytes(f)).hexdigest()
    assert digest == GOLDEN[case, variant]


@pytest.mark.filterwarnings(
    "ignore::lpmphf.minimizers.MinimizerDensityWarning")
@pytest.mark.parametrize("builder", [build_basic, build_partitioned])
def test_unambiguous_count_checked_against_fallback(builder):
    # the fallback MPHF holds exactly the n - n_unambiguous ambiguous k-mers;
    # with the header's n_unambiguous raised by 3, values would run to n + 2
    spss, scheme = _golden_unitigs()
    f = builder(spss, scheme)
    blob = structure_to_bytes(f)
    at = 40   # n_unambiguous: the last u64 of the header
    assert int.from_bytes(blob[at:at + 8], "little") == f.n_unambiguous
    bad = blob[:at] + (f.n_unambiguous + 3).to_bytes(8, "little") + blob[at + 8:]
    with pytest.raises(CorruptFile, match="fallback key count"):
        structure_from_bytes(bad)
