import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpmphf import (Kmer, MinimizerScheme, SpssInput, generate_spss,
                    load_spss, spss_from_strings, write_fasta)
from lpmphf.spss import read_records
from lpmphf.errors import (DuplicateKmer, GenerationFailure, InvalidBase,
                           LengthOutOfRange, MalformedFasta, StringShorterThanK)
from lpmphf.kmers import decode_bases

from conftest import BUILDERS
from oracles import all_kmers, brute_spss_records, random_dna

AMBIG = pytest.mark.filterwarnings("ignore::lpmphf.minimizers.MinimizerDensityWarning")


def write(tmp_path, text, name="in.fa"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_single_record_single_kmer(tmp_path):
    p = write(tmp_path, ">r\nACGTACG\n")
    spss = load_spss(p, k=7)
    assert spss.num_strings == 1
    assert spss.n == 1


def test_kmer_count_is_length_minus_k_plus_one(tmp_path):
    seq = "ACGTTGACCAGTAGCTTG"
    p = write(tmp_path, f">r\n{seq}\n")
    spss = load_spss(p, k=9)
    assert spss.n == len(seq) - 9 + 1


def test_multiline_and_crlf_records(tmp_path):
    p = write(tmp_path, ">a\r\nACGT\r\nTGCA\r\n>b\nGGGTTTACA\n")
    spss = load_spss(p, k=4)
    assert spss.strings == ["ACGTTGCA", "GGGTTTACA"]


def test_lines_format(tmp_path):
    p = write(tmp_path, "ACGTACGA\nTTTGGGCA\n", name="in.txt")
    spss = load_spss(p, k=5, fmt="lines")
    assert spss.num_strings == 2


def test_malformed_fasta(tmp_path):
    with pytest.raises(MalformedFasta):
        load_spss(write(tmp_path, "ACGT\n"), k=2)
    with pytest.raises(MalformedFasta):
        load_spss(write(tmp_path, ">a\n>b\nACGT\n"), k=2)
    with pytest.raises(MalformedFasta):
        load_spss(write(tmp_path, ""), k=2)


@pytest.mark.parametrize("text, where", [
    ("\n\nACGT\n>a\nACGT\n", "sequence before first '>' at line 3"),
    ("  \n>a\nACGT\n", "sequence before first '>' at line 1"),
    (">a\nAC\n\n>b\n\n>c\nAC\n", "record 1 (header at line 4) has no sequence"),
    (">a\r\nAC\r\n\r\n>b\r\n>c\r\nAC\r\n", "record 1 (header at line 4)"),
    (">a\nAC\n>b\n", "record 1 (header at line 3) has no sequence"),
    (">a\nAC\n>b", "record 1 (header at line 3) has no sequence")])
def test_malformed_fasta_says_where(tmp_path, text, where):
    with pytest.raises(MalformedFasta, match=re.escape(where)):
        load_spss(write(tmp_path, text), k=2)


@pytest.mark.parametrize("data", [b"", b"\n\r\n\n"])
@pytest.mark.parametrize("fmt", ["fasta", "lines"])
def test_a_file_of_no_record_reads_as_none(tmp_path, data, fmt):
    p = tmp_path / "empty.fa"
    p.write_bytes(data)
    assert read_records(p, fmt) == []
    with pytest.raises(MalformedFasta, match="an SPSS needs at least one string"):
        load_spss(p, k=2, fmt=fmt)


@pytest.mark.parametrize("data, where", [
    (b">a\nACGT\n>b\nAC\xc3\xa9GT\n", r"'\\xc3' at position 2 of record 1"),
    (b">a\nACGT\n>b\nACGT\nAN\n", "'N' at position 5 of record 1"),
    (b">a\nAC GT\n", "' ' at position 2 of record 0"),
    (b">a\nACGT\n   \nAC\n", "' ' at position 4 of record 0")])
def test_invalid_base_names_its_record(tmp_path, data, where):
    p = tmp_path / "bad.fa"
    p.write_bytes(data)
    with pytest.raises(InvalidBase, match=where):
        load_spss(p, k=2)


def test_strings_are_encoded_in_one_call_naming_the_record():
    assert spss_from_strings([b"ACGT", "tt"], k=2).strings == ["ACGT", "TT"]
    assert spss_from_strings((s for s in ["ACG", "TT"]), k=2).strings == [
        "ACG", "TT"]   # any iterable, read once
    with pytest.raises(InvalidBase, match=r"'\\xe9' at position 1 of record 2"):
        spss_from_strings(["ACGT", "GG", "A\u00e9C"], k=2)
    with pytest.raises(InvalidBase, match=r"'\\xc3' at position 2 of record 1"):
        spss_from_strings(["ACGT", b"AC\xc3\xa9", "GG"], k=2)   # str and bytes


def test_headers_are_not_decoded(tmp_path):
    p = tmp_path / "h.fa"
    p.write_bytes(b">\xc3\xa9 \xff\nACGT\n")
    assert load_spss(p, k=2).strings == ["ACGT"]


def test_lines_format_blank_lines_and_line_ends(tmp_path):
    p = tmp_path / "in.txt"
    p.write_bytes(b"\nACGT\r\n\nttgg\rGGCA\n")
    assert load_spss(p, k=2, fmt="lines").strings == ["ACGT", "TTGG", "GGCA"]
    p.write_bytes(b"ACGT\n  \nTTGG\n")   # a line of spaces is not blank
    with pytest.raises(InvalidBase, match="position 0 of record 1"):
        load_spss(p, k=2, fmt="lines")


def test_unknown_format_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown input format"):
        read_records(write(tmp_path, ">a\nACGT\n"), fmt="fastq")


record_strategy = st.lists(st.text(alphabet="ACGTacgt", min_size=1, max_size=200),
                           min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(records=record_strategy, width=st.integers(1, 90), crlf=st.booleans(),
       blank=st.booleans())
def test_fasta_round_trip_property(tmp_path_factory, records, width, crlf, blank):
    """Hand-written FASTA (any line width, CRLF, lowercase, blank lines),
    `write_fasta` of it and the strings themselves give the same codes."""
    end = "\r\n" if crlf else "\n"
    lines = []
    for i, r in enumerate(records):
        lines.append(f">r{i} some header")
        lines += [r[j:j + width] for j in range(0, len(r), width)]
        if blank:
            lines.append("")
    d = tmp_path_factory.mktemp("rt")
    (d / "in.fa").write_bytes((end.join(lines) + end).encode())
    (d / "in.txt").write_bytes((end + end.join(records)).encode())
    want = spss_from_strings(records, k=1)
    loaded = load_spss(d / "in.fa", k=1)
    write_fasta(loaded, d / "out.fa")
    again = load_spss(d / "out.fa", k=1)
    for got in (loaded, again, load_spss(d / "in.txt", k=1, fmt="lines")):
        assert [c.tolist() for c in got.codes] == [c.tolist() for c in want.codes]
    assert want.strings == [r.upper() for r in records]
    out = (d / "out.fa").read_bytes().split(b"\n")
    assert max(map(len, out)) <= 80 and out[-1] == b""


def test_write_fasta_writes_80_columns(tmp_path):
    spss = spss_from_strings(["A" * 170, "C" * 80], k=1)
    write_fasta(spss, tmp_path / "o.fa")
    assert (tmp_path / "o.fa").read_bytes() == (
        b">record_0\n" + b"A" * 80 + b"\n" + b"A" * 80 + b"\nAAAAAAAAAA\n"
        b">record_1\n" + b"C" * 80 + b"\n")


def test_string_shorter_than_k(tmp_path):
    with pytest.raises(StringShorterThanK):
        load_spss(write(tmp_path, ">a\nACG\n"), k=5)


def test_invalid_base_is_hard_error(tmp_path):
    with pytest.raises(InvalidBase):
        load_spss(write(tmp_path, ">a\nACGTNACGT\n"), k=4)


# the build is the SPSS validator: loading accepts repeated k-mers, building
# over them raises DuplicateKmer

@AMBIG
def test_validation_rejects_duplicates():
    for build in BUILDERS:
        spss = spss_from_strings(["ACGTACGT"], k=4)        # ACGT twice
        with pytest.raises(DuplicateKmer, match="k-mer ACGT "):
            build(spss, MinimizerScheme(k=4, m=2, seed=0))
        spss = spss_from_strings(["ACGTACGT"], k=5)        # fine at k=5
        assert build(spss, MinimizerScheme(k=5, m=2, seed=0)).n == 4


@AMBIG
def test_validation_against_set_oracle(rng):
    outcomes = set()
    for trial in range(80):
        build = BUILDERS[trial % 2]
        k = int(rng.integers(2, 41))
        m = int(rng.integers(1, min(k, 32) + 1))
        strings = [random_dna(rng, k + int(rng.integers(0, 30)))
                   for _ in range(int(rng.integers(1, 5)))]
        if rng.random() < 0.5:      # plant a repeat of one k-mer
            src = strings[int(rng.integers(len(strings)))]
            i = int(rng.integers(len(src) - k + 1))
            strings[int(rng.integers(len(strings)))] += src[i:i + k]
        kmers = [km for s in strings for km in all_kmers(s, k)]
        has_dup = len(set(kmers)) != len(kmers)
        outcomes.add(has_dup)
        spss = spss_from_strings(strings, k)
        scheme = MinimizerScheme(k=k, m=m, seed=int(rng.integers(2 ** 32)))
        if has_dup:
            with pytest.raises(DuplicateKmer) as e:
                build(spss, scheme)
            named = re.search(r"k-mer ([ACGT]+) ", str(e.value)).group(1)
            assert kmers.count(named) >= 2
        else:
            assert build(spss, scheme).n == len(kmers)
    assert outcomes == {False, True}


def test_generated_n_matches_brute_force_set():
    spss = generate_spss(10_000, 15, seed=3)
    kmers = set()
    for s in spss.strings:
        kmers.update(all_kmers(s, 15))
    assert spss.n == len(kmers)


def test_generate_length_k_single_kmer():
    spss = generate_spss(31, 31, seed=0)
    assert spss.num_strings == 1 and spss.n == 1


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a.fa", tmp_path / "b.fa"
    write_fasta(generate_spss(5000, 21, seed=9), a)
    write_fasta(generate_spss(5000, 21, seed=9), b)
    assert a.read_bytes() == b.read_bytes()
    write_fasta(generate_spss(5000, 21, seed=10), tmp_path / "c.fa")
    assert a.read_bytes() != (tmp_path / "c.fa").read_bytes()


def test_generate_small_k_splits_and_validates():
    spss = generate_spss(400, 5, seed=4)     # 4^5=1024, saturation forces care
    kmers = [km for s in spss.strings for km in all_kmers(s, 5)]
    assert len(set(kmers)) == len(kmers) == spss.n
    assert all(len(s) >= 5 for s in spss.strings)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda k: st.tuples(
    st.just(k), st.integers(k, min(300, 4 ** k + k - 1)), st.integers(0, 2 ** 32))))
@example((1, 4, 0))
@example((5, 400, 4))
def test_generate_cuts_the_draw_at_repeats_like_the_set_oracle(case):
    k, length, seed = case
    draw = np.random.default_rng(seed).integers(0, 4, length, dtype=np.uint8)
    spss = generate_spss(length, k, seed=seed)
    assert [c.tolist() for c in spss.codes] == brute_spss_records(draw, k)


@pytest.mark.parametrize("n", [20_000, 250_000])
def test_benchmark_inputs_are_one_draw_as_one_record(n):
    # the benchmark workloads' k and sizes draw no repeated k-mer
    for seed in range(1, 13):
        spss = generate_spss(n + 30, 31, seed)
        draw = np.random.default_rng(seed).integers(0, 4, n + 30, dtype=np.uint8)
        assert spss.num_strings == 1 and np.array_equal(spss.codes[0], draw)


def test_generate_impossible_length_fails():
    with pytest.raises(GenerationFailure):
        generate_spss(2000, 5, seed=0)       # 1996 distinct 5-mers > 4^5
    with pytest.raises(GenerationFailure):
        generate_spss(10, 15, seed=0)        # shorter than k
    with pytest.raises(GenerationFailure):
        generate_spss(2000.5, 31)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5, "1"])
def test_generate_seed_out_of_range_or_not_an_integer(seed):
    with pytest.raises(LengthOutOfRange):
        generate_spss(2000, 31, seed=seed)


def test_generate_takes_numpy_integers():
    a = generate_spss(np.int64(2000), np.int64(21), seed=np.uint64(9))
    b = generate_spss(2000, 21, seed=9)
    assert a.k == b.k and np.array_equal(a.joined_codes, b.joined_codes)


@AMBIG
def test_code_lists_build_the_bytes_of_code_arrays():
    arrays = generate_spss(3000, 17, seed=5).codes
    lists = SpssInput(k=17, codes=[c.tolist() for c in arrays])
    assert np.array_equal(lists.joined_codes, np.concatenate(arrays))
    scheme = MinimizerScheme(k=17, m=9, seed=2)
    for build in BUILDERS:
        assert (build(lists, scheme).to_bytes()
                == build(SpssInput(k=17, codes=arrays), scheme).to_bytes())


@pytest.mark.parametrize("bad", [
    [0, 1, 4, 2], [0, -1, 2, 3], [0.0, 1.0, 2.0, 3.0],
    np.array([0, 1, 7, 2], dtype=np.uint8), np.zeros((2, 4), dtype=np.uint8)])
def test_codes_outside_the_alphabet_are_invalid_bases(bad):
    # the rule a query's codes meet, so what builds can be looked up
    with pytest.raises(InvalidBase):
        SpssInput(k=2, codes=[bad])
    with pytest.raises(InvalidBase):
        SpssInput(k=2, codes=[np.array([0, 1, 2, 3], dtype=np.uint8), bad])


def test_fasta_round_trip(tmp_path):
    spss = generate_spss(3000, 17, seed=5)
    p = tmp_path / "rt.fa"
    write_fasta(spss, p)
    back = load_spss(p, k=17)
    assert back.strings == spss.strings


def test_empty_spss_is_malformed():
    with pytest.raises(MalformedFasta):
        spss_from_strings([], 31)
    with pytest.raises(MalformedFasta):
        SpssInput(k=31, codes=[])


def test_kmer_positions_index_the_joined_codes(rng):
    strings = [random_dna(rng, int(n)) for n in rng.integers(21, 60, size=7)]
    spss = spss_from_strings(strings, k=21)
    kmers = [s for x in strings for s in all_kmers(x, 21)]
    joined = decode_bases(spss.joined_codes)
    assert joined == "".join(strings)
    pos = spss.kmer_positions()
    assert [joined[p:p + 21] for p in pos] == kmers
    some = np.array([0, 5, 39, len(kmers) - 1])
    assert np.array_equal(spss.kmer_positions(some), pos[some])
    hi, lo = spss.kmer_word_arrays()
    assert [Kmer(21, int(v)) for v in lo] == [Kmer.from_string(x) for x in kmers]
    assert not hi.any()


@pytest.mark.parametrize("lengths", [[21, 21], [21, 40, 21, 22, 21],
                                     [60, 21], [25, 33, 47]])
def test_kmer_positions_of_every_kmer(lengths, rng):
    k = 21
    spss = spss_from_strings([random_dna(rng, n) for n in lengths], k)
    starts = np.cumsum([0] + lengths[:-1])   # each string's first base
    want = [s + j for s, n in zip(starts, lengths) for j in range(n - k + 1)]
    g = np.arange(spss.n)
    string = np.searchsorted(spss.kmer_starts, g, side="right") - 1
    pos = spss.kmer_positions()
    assert pos.tolist() == want
    assert np.array_equal(pos, spss.kmer_positions(g))
    assert np.array_equal(pos, g + (k - 1) * string)


def test_kmer_positions_of_one_string_is_a_slice(rng):
    spss = spss_from_strings([random_dna(rng, 50)], 21)
    assert spss.kmer_positions() == slice(None)


def test_fragmentation():
    spss = spss_from_strings(["ACGTA", "TTTTC", "GGGAC"], k=5)
    assert spss.fragmentation == (3 - 1) / 3
