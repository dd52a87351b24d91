"""Streaming lookups against per-k-mer lookups.

`stream_lookup` derives values per run of k-mers sharing a minimizer
occurrence, checks misses per run and packs fallback k-mers from the query
codes; `lookup_words` does each per k-mer. The two must agree elementwise,
checked and unchecked, on query shapes that put run boundaries, partial
misses, fallback runs and two-word k-mers in play.
"""

import functools

import numpy as np
import pytest

from lpmphf import MinimizerScheme, SpssInput, generate_spss
from lpmphf.kmers import kmer_words
from lpmphf.minimizers import scan_string
from lpmphf.storage import structure_from_bytes, structure_to_bytes

from conftest import BUILDERS

AMBIG = pytest.mark.filterwarnings("ignore::lpmphf.minimizers.MinimizerDensityWarning")


def mutate(codes, rng, every=40):
    """A copy of `codes` with one random base substitution about every
    `every` bases."""
    out = codes.copy()
    at = np.flatnonzero(rng.random(codes.size) < 1 / every)
    out[at] = (out[at] + rng.integers(1, 4, at.size)) % 4
    return out


def inside_superkmers():
    """Substrings of one string that start and end inside a super-k-mer
    (neither at its first nor at its last k-mer), within one super-k-mer or
    across several."""
    spss = generate_spss(3000 + 30, 31, seed=81)
    scheme = MinimizerScheme(k=31, m=15, seed=5)
    codes = spss.codes[0]
    scan = scan_string(codes, scheme)
    big = np.flatnonzero(scan.sizes >= 3)
    rng = np.random.default_rng(81)
    queries = []
    for _ in range(40):
        j, j2 = np.sort(rng.choice(big, 2))
        if rng.random() < 0.3:
            j2 = j
        first = scan.kmer_base[j] + 1
        last = scan.kmer_base[j2] + scan.sizes[j2] - 2
        queries.append(codes[first:last + 31])
    return spss, scheme, queries


def substituted():
    """Pieces of a mutated copy of the indexed string: runs that partly
    miss, wholly miss, or hit."""
    spss = generate_spss(3000 + 30, 31, seed=82)
    scheme = MinimizerScheme(k=31, m=15, seed=5)
    rng = np.random.default_rng(82)
    mutated = mutate(spss.codes[0], rng)
    starts = rng.integers(0, mutated.size - 31, 30)
    return spss, scheme, [mutated[a:a + rng.integers(31, 600)] for a in starts]


def unitigs_m8():
    """Unitig-like strings of 20-120 k-mers at m = 8, queried as indexed:
    most of them have a run that goes to the fallback MPHF."""
    n = 4000
    whole = generate_spss(n + 30, 31, seed=83).codes[0]
    ends = np.cumsum(np.random.default_rng(83).integers(20, 121, size=n // 20))
    cuts = [0, *ends[ends < n].tolist(), n]
    pieces = [whole[a:b + 30] for a, b in zip(cuts, cuts[1:])]
    return SpssInput(k=31, codes=pieces), MinimizerScheme(k=31, m=8, seed=5), pieces


def two_words_k63():
    """k = 63 (two-word k-mers) at a small m, so that fallback runs pack
    two-word k-mers; queries are pieces of the string, some mutated."""
    spss = generate_spss(2000 + 62, 63, seed=84)
    rng = np.random.default_rng(84)
    codes = spss.codes[0]
    queries = [codes[a:a + rng.integers(63, 500)]
               for a in rng.integers(0, codes.size - 63, 20)]
    queries += [mutate(q, rng) for q in queries[:10]]
    return spss, MinimizerScheme(k=63, m=6, seed=5), queries


SHAPES = [inside_superkmers, substituted, unitigs_m8, two_words_k63]


@functools.cache
def built(shape, build):
    """(structure, its reloaded copy, queries), built once per shape."""
    spss, scheme, queries = shape()
    f = build(spss, scheme)
    return f, structure_from_bytes(structure_to_bytes(f)), queries


@AMBIG
@pytest.mark.parametrize("build", BUILDERS)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("checked", [False, True])
def test_stream_equals_lookup_words(shape, build, checked):
    f, g, queries = built(shape, build)
    for h in (f, g):
        for q in queries:
            hi, lo = kmer_words(q, h.scheme.k)
            want = h.lookup_words(hi, lo, checked=checked)
            got = h.stream_lookup(q, checked=checked)
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)


@AMBIG
@pytest.mark.parametrize("build", BUILDERS)
def test_shapes_reach_what_they_are_for(build):
    """Every shape puts its case in play: partial run misses, fallback runs
    in most unitig strings, and fallback runs at k = 63."""
    f, _, queries = built(substituted, build)
    partial = 0
    for q in queries:
        out = f.stream_lookup(q, checked=True)
        scan = scan_string(q, f.scheme)
        for a, size in zip(scan.kmer_base, scan.sizes):
            run = out[a:a + size]
            partial += bool(np.any(run < 0) and np.any(run >= 0))
    assert partial > 0
    for shape, share in ((unitigs_m8, 0.5), (two_words_k63, 0)):
        f, _, queries = built(shape, build)
        fb = [np.any(f.stream_lookup(q) >= f.n_unambiguous) for q in queries]
        assert np.mean(fb) > share
