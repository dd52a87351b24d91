import hashlib

import numpy as np
import pytest

from lpmphf import (MinimizerScheme, SpssInput, build_basic,
                    build_partitioned, generate_spss, load_structure,
                    save_structure)
from lpmphf.errors import CorruptFile
from lpmphf.kmers import kmer_words
from lpmphf.storage import structure_from_bytes, structure_to_bytes
from lpmphf.succinct import RankBitvector

from conftest import (basic_layout_patches, ef_header_patches,
                      layout_patches, reseal)
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
    with pytest.raises(CorruptFile, match="checksum mismatch in header"):
        structure_from_bytes(bytes(blob))
    with pytest.raises(CorruptFile, match="unknown variant"):
        structure_from_bytes(reseal(blob))


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


# sha256 of to_bytes() (format version 2); any change means the file format
# changed
GOLDEN = {
    ("long", "basic"):
        "4bea7d73c53e23f0e1e4667a98faffa2dc4819e230f0d7f828eb9ba0e38923c2",
    ("long", "partitioned"):
        "3b69bf93a21e6a2dab8097e0bc79602128e4fc166cd00ccf4e88232977d555b4",
    ("unitigs", "basic"):
        "54b03b7cf35c3cc587e176afd631d3309b1e0f6069566618213a7bffb3fe5654",
    ("unitigs", "partitioned"):
        "5ee0d264d4aa5643c127f3cfd7d9af99170f9b8ca6d1206c954a057e2546cfa5",
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
    bad = reseal(blob[:at] + (f.n_unambiguous + 3).to_bytes(8, "little")
                 + blob[at + 8:])
    with pytest.raises(CorruptFile, match="fallback key count"):
        structure_from_bytes(bad)


def test_partitioned_layout_checked_on_load(small_spss, tmp_path):
    f = build_partitioned(small_spss, MinimizerScheme(k=31, m=15, seed=41))
    blob = structure_to_bytes(f)
    names = []
    for name, patched in layout_patches(blob, f):
        names.append(name)
        path = tmp_path / "bad.lph"
        path.write_bytes(patched)
        with pytest.raises(CorruptFile, match="type .* disagree"):
            load_structure(path)
    assert len(names) == 13


def test_basic_layout_checked_on_load(small_spss, tmp_path):
    f = build_basic(small_spss, MinimizerScheme(k=31, m=15, seed=41))
    blob = structure_to_bytes(f)
    names = []
    for name, patched in basic_layout_patches(blob, f):
        names.append(name)
        path = tmp_path / "bad.lph"
        path.write_bytes(patched)
        with pytest.raises(CorruptFile, match="slot arrays disagree"):
            load_structure(path)
    assert names == ["P.length", "L.length", "L last value", "P.width"]


@pytest.mark.parametrize("part", ["L_l", "L_r"])
def test_flipped_elias_fano_high_word_raises_corrupt_file_on_lookup(
        part, small_spss):
    # a bit of the first high word flipped: the section's checksum fails;
    # with the checksums recomputed, the set-bit count derived on load
    # disagrees with the length, so the file never reaches a lookup
    f = build_partitioned(small_spss, MinimizerScheme(k=31, m=15, seed=41))
    ef = getattr(f, part)
    assert ef._high.nbits > 512
    blob = bytearray(structure_to_bytes(f))
    at = blob.find(ef.to_bytes())
    low_words = (ef.length * ef.low_width + 63) // 64
    high_words = at + 40 + 8 * low_words + 8
    blob[high_words] ^= 1
    with pytest.raises(CorruptFile, match=f"checksum mismatch in section {part}"):
        structure_from_bytes(bytes(blob))
    with pytest.raises(CorruptFile, match="Elias-Fano high part"):
        structure_from_bytes(reseal(blob))


def _bitvectors(obj, path="f", seen=None):
    """(attribute path, RankBitvector) for every bitvector reachable from
    `obj` through instance attributes (cached properties included), tuples
    and lists."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, RankBitvector):
        yield path, obj
    elif isinstance(obj, (tuple, list)):
        for i, item in enumerate(obj):
            yield from _bitvectors(item, f"{path}[{i}]", seen)
    elif type(obj).__module__.startswith("lpmphf"):
        for name, item in getattr(obj, "__dict__", {}).items():
            yield from _bitvectors(item, f"{path}.{name}", seen)


def _sampled(f):
    return sorted(p for p, bv in _bitvectors(f) if "_select_sample" in vars(bv))


@pytest.mark.filterwarnings(
    "ignore::lpmphf.minimizers.MinimizerDensityWarning")
@pytest.mark.parametrize("case", ["long", "unitigs"])
@pytest.mark.parametrize("builder", [build_basic, build_partitioned])
def test_select_sample_derived_only_by_bitvectors_that_select(case, builder,
                                                              tmp_path):
    # loading derives no select sample (load time does not pay for it); a
    # batch lookup derives it on the Elias-Fano high parts its slot decode
    # selects on, and no lookup makes a second copy of any bitvector
    spss, scheme = {"long": _golden_long, "unitigs": _golden_unitigs}[case]()
    path = tmp_path / "f.lph"
    save_structure(builder(spss, scheme), path)
    f = load_structure(path)
    paths = [p for p, _ in _bitvectors(f)]
    layout = (["f.L._high"] if f.variant == "basic" else
              ["f.R._b1", "f.R._b2", "f.L_l._high", "f.L_r._high", "f.L_n._high"])
    assert paths == ["f.fm._bits", "f.fallback._bits"] + layout
    assert _sampled(f) == []
    f.lookup_words(*spss.kmer_word_arrays())
    assert _sampled(f) == (["f.L._high"] if f.variant == "basic" else
                           ["f.L_l._high", "f.L_n._high", "f.L_r._high"])
    for s in spss.strings:
        f.stream_lookup(s)
    assert [p for p, _ in _bitvectors(f)] == paths


def _slot_decode(f):
    """`_slot_params` and `_slot_param` of every slot, as two 3 x |M| arrays."""
    slots = np.arange(f.num_minimizers)
    return (np.array(f._slot_params(slots), dtype=np.int64),
            np.array([f._slot_param(i) for i in slots.tolist()], dtype=np.int64).T)


@pytest.mark.filterwarnings(
    "ignore::lpmphf.minimizers.MinimizerDensityWarning")
@pytest.mark.parametrize("case", ["long", "unitigs"])
@pytest.mark.parametrize("builder", [build_basic, build_partitioned])
def test_slot_decode_equals_flatnonzero_select(case, builder, monkeypatch):
    # every slot decodes as with a select that reads the set bits off the
    # words with np.flatnonzero, before and after a reload
    spss, scheme = {"long": _golden_long, "unitigs": _golden_unitigs}[case]()
    f = builder(spss, scheme)

    def ones(bv):
        bits = np.unpackbits(bv._words.view(np.uint8), bitorder="little")
        return np.flatnonzero(bits[:bv.nbits])

    with monkeypatch.context() as patch:
        patch.setattr(RankBitvector, "select1_many",
                      lambda bv, js: ones(bv)[np.asarray(js, dtype=np.int64)])
        patch.setattr(RankBitvector, "select1", lambda bv, j: int(ones(bv)[j]))
        want = _slot_decode(f)
    assert _sampled(f) == []   # the selects ran patched
    for g in (f, structure_from_bytes(structure_to_bytes(f))):
        got = _slot_decode(g)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
