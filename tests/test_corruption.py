"""Damaged structure files: every change to a file's bytes fails with a typed
error at load, and a damaged file whose checksums are recomputed fails with
a typed error or answers inside [0, n).

One file per layout over 20k bases, k = 31, m = 12. Mutations are 1-3
flipped bits anywhere, a truncation, or appended bytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpmphf import (MinimizerScheme, build_basic, build_partitioned,
                    generate_spss, write_fasta)
from lpmphf.cli import main
from lpmphf.errors import CorruptFile, LpmphfError
from lpmphf.storage import structure_from_bytes, structure_to_bytes

from conftest import reseal


@pytest.fixture(scope="module", params=[build_basic, build_partitioned],
                ids=["basic", "partitioned"])
def case(request):
    spss = generate_spss(20_000, 31, seed=71)
    f = request.param(spss, MinimizerScheme(k=31, m=12, seed=9))
    hi, lo = spss.kmer_word_arrays()
    return spss, structure_to_bytes(f), hi, lo, f.lookup_words(hi, lo)


def _flip(blob, bits):
    out = bytearray(blob)
    for b in bits:
        out[b // 8] ^= 1 << (b % 8)
    return bytes(out)


def _mutations(size):
    """1-3 flipped bits, a truncation, or 1-16 appended bytes."""
    return st.one_of(
        st.lists(st.integers(0, 8 * size - 1), min_size=1, max_size=3).map(
            lambda bits: lambda blob: _flip(blob, bits)),
        st.integers(0, size - 1).map(lambda n: lambda blob: blob[:n]),
        st.binary(min_size=1, max_size=16).map(lambda b: lambda blob: blob + b))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_mutated_file_raises_corrupt_file_or_is_unchanged(case, data):
    _, blob, hi, lo, values = case
    bad = data.draw(_mutations(len(blob)))(blob)
    if bad == blob:   # the same bit flipped twice
        g = structure_from_bytes(bad)
        assert structure_to_bytes(g) == blob
        assert np.array_equal(g.lookup_words(hi, lo), values)
        return
    with pytest.raises(CorruptFile):
        structure_from_bytes(bad)


def _resealed_outcome(bad, hi, lo, n):
    """The typed error loading `bad` and looking up every k-mer raises, or
    None when every value lies in [0, n); any other exception propagates."""
    try:
        values = structure_from_bytes(bad).lookup_words(hi, lo)
    except LpmphfError as e:
        return e
    assert values.size == hi.size and 0 <= values.min() and values.max() < n
    return None


@given(bits=st.lists(st.integers(0, 1 << 30), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_resealed_mutation_fails_typed_or_stays_in_range(case, bits):
    # no IndexError, OverflowError or MemoryError: only typed errors
    _, blob, hi, lo, values = case
    bad = reseal(_flip(blob, [b % (8 * len(blob)) for b in bits]))
    _resealed_outcome(bad, hi, lo, values.size)


def test_query_exits_2_on_damaged_files(case, tmp_path, capsys):
    spss, blob, hi, lo, values = case
    fasta = tmp_path / "in.fa"
    write_fasta(spss, fasta)
    rng = np.random.default_rng(12)
    path = tmp_path / "bad.lph"
    typed = 0
    for i in range(24):
        bad = _flip(blob, rng.integers(0, 8 * len(blob), size=1 + i % 3).tolist())
        expect = 2
        if i % 2:   # a resealed file that loads and answers exits 0
            bad = reseal(bad)
            expect = 2 if _resealed_outcome(bad, hi, lo, values.size) else 0
        path.write_bytes(bad)
        code = main(["query", "-i", str(path), "-q", str(fasta)])
        err = capsys.readouterr().err
        assert code == expect, (i, err)
        typed += code == 2
    assert typed >= 12
