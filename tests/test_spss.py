import re

import pytest

from lpmphf import (MinimizerScheme, generate_spss, load_spss,
                    spss_from_strings, write_fasta)
from lpmphf.errors import (DuplicateKmer, GenerationFailure, InvalidBase,
                           MalformedFasta, StringShorterThanK)

from conftest import BUILDERS
from oracles import all_kmers, random_dna

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


def test_generate_impossible_length_fails():
    with pytest.raises(GenerationFailure):
        generate_spss(2000, 5, seed=0)       # 1996 distinct 5-mers > 4^5
    with pytest.raises(GenerationFailure):
        generate_spss(10, 15, seed=0)        # shorter than k


def test_fasta_round_trip(tmp_path):
    spss = generate_spss(3000, 17, seed=5)
    p = tmp_path / "rt.fa"
    write_fasta(spss, p)
    back = load_spss(p, k=17)
    assert back.strings == spss.strings


def test_fragmentation():
    spss = spss_from_strings(["ACGTA", "TTTTC", "GGGAC"], k=5)
    assert spss.fragmentation == (3 - 1) / 3
