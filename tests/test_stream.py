"""Streaming lookups against per-k-mer lookups.

`stream_lookup` derives values per run of k-mers sharing a minimizer
occurrence, checks misses per run and packs fallback k-mers from the query
codes; `lookup_words` does each per k-mer. The two must agree elementwise,
checked and unchecked, on query shapes that put run boundaries, partial
misses, fallback runs and two-word k-mers in play, each with queries on
both sides of the run count at which `stream_lookup` switches from scalar
to vector slot decoding, and on queries of exactly that many runs and one
more, and of exactly `_DIRECT_ARGMIN` windows and one more, where the
minimizer scan switches kernels. A random batch is runs of one k-mer each,
so it switches at the same count of k-mers; on both sides of it,
`lookup_words` must equal the scalar `lookup`.
"""

import functools

import numpy as np
import pytest

from lpmphf import MinimizerScheme, SpssInput, generate_spss
from lpmphf._lookup import _SCALAR_RUNS
from lpmphf.errors import (DefiniteMiss, InvalidBase, KMismatch,
                           QueryShorterThanK)
from lpmphf.kmers import decode_bases, kmer_words
from lpmphf.minimizers import _DIRECT_ARGMIN, scan_string
from lpmphf.storage import structure_from_bytes, structure_to_bytes

from conftest import BUILDERS, SCALAR_SHAPES

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
    """Unitig-like strings of 20-120 k-mers at m = 8, queried as indexed
    (most of them have a run that goes to the fallback MPHF), and ten
    300-k-mer stretches across several of them."""
    n = 4000
    whole = generate_spss(n + 30, 31, seed=83).codes[0]
    rng = np.random.default_rng(83)
    ends = np.cumsum(rng.integers(20, 121, size=n // 20))
    cuts = [0, *ends[ends < n].tolist(), n]
    pieces = [whole[a:b + 30] for a, b in zip(cuts, cuts[1:])]
    stretches = [whole[a:a + 330] for a in rng.integers(0, n - 300, 10)]
    return (SpssInput(k=31, codes=pieces), MinimizerScheme(k=31, m=8, seed=5),
            pieces + stretches)


def two_words_k63():
    """k = 63 (two-word k-mers) at a small m, so that fallback runs pack
    two-word k-mers; queries are pieces of the string, some mutated, and
    two pieces of 1500 bases."""
    spss = generate_spss(2000 + 62, 63, seed=84)
    rng = np.random.default_rng(84)
    codes = spss.codes[0]
    queries = [codes[a:a + rng.integers(63, 500)]
               for a in rng.integers(0, codes.size - 63, 20)]
    queries += [mutate(q, rng) for q in queries[:10]]
    queries += [codes[:1500], mutate(codes[400:1900], rng)]
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
    """Every shape puts its case in play on both sides of the switch from
    run-by-run to vector slot decoding (at most, and more than, _SCALAR_RUNS
    runs): partial run misses, fallback runs in most unitig strings, and
    fallback runs at k = 63."""
    def by_side(shape, case):
        f, _, queries = built(shape, build)
        side = [scan_string(q, f.scheme).sizes.size > _SCALAR_RUNS
                for q in queries]
        return [[case(f, q) for q, s in zip(queries, side) if s == vec]
                for vec in (False, True)]

    def partial(f, q):
        out = f.stream_lookup(q, checked=True)
        scan = scan_string(q, f.scheme)
        return any(np.any(out[a:a + size] < 0) and np.any(out[a:a + size] >= 0)
                   for a, size in zip(scan.kmer_base, scan.sizes))

    def fallback(f, q):
        return np.any(f.stream_lookup(q) >= f.n_unambiguous)

    for side in by_side(substituted, partial):
        assert any(side)
    for shape, share in ((unitigs_m8, 0.5), (two_words_k63, 0)):
        for side in by_side(shape, fallback):
            assert np.mean(side) > share


def with_runs(codes, scheme, runs):
    """The shortest prefix of `codes` that has `runs` runs: a base more adds
    one k-mer, which starts one run or none, so it has exactly that many."""
    lo, hi = scheme.k, codes.size
    while lo < hi:
        mid = (lo + hi) // 2
        if scan_string(codes[:mid], scheme).sizes.size >= runs:
            hi = mid
        else:
            lo = mid + 1
    return codes[:lo]


@functools.cache
def switch_case(k, build):
    """(structure, its reloaded copy, queries) at m = 6, where many
    minimizers are ambiguous: from the indexed string and from a copy with
    about one base in 80 substituted, at three starts each, queries of
    exactly _SCALAR_RUNS runs and one more, and of exactly _DIRECT_ARGMIN
    windows (k-mers) and one more."""
    spss = generate_spss(4000 + k - 1, k, seed=86 + k)
    scheme = MinimizerScheme(k=k, m=6, seed=5)
    rng = np.random.default_rng(k)
    codes, queries = spss.codes[0], []
    for src in (codes, mutate(codes, rng, every=80)):
        for a in rng.integers(0, 1000, 3):
            queries += [with_runs(src[a:], scheme, runs)
                        for runs in (_SCALAR_RUNS, _SCALAR_RUNS + 1)]
            queries += [src[a:a + windows + k - 1]
                        for windows in (_DIRECT_ARGMIN, _DIRECT_ARGMIN + 1)]
    f = build(spss, scheme)
    return f, structure_from_bytes(structure_to_bytes(f)), queries


@AMBIG
@pytest.mark.parametrize("build", BUILDERS)
@pytest.mark.parametrize("k", [31, 33, 63])
@pytest.mark.parametrize("checked", [False, True])
def test_stream_equals_lookup_words_at_the_switch_points(k, build, checked):
    """At exactly the run count up to which slots decode run by run and
    one more, and at exactly the window count up to which the scan takes
    one direct argmin and one more, `stream_lookup` equals `lookup_words`;
    fallback runs, and in checked mode runs that partly miss, are among
    them."""
    f, g, queries = switch_case(k, build)
    runs = [scan_string(q, f.scheme).sizes.size for q in queries]
    windows = [q.size - k + 1 for q in queries]
    assert {_SCALAR_RUNS, _SCALAR_RUNS + 1} <= set(runs)
    assert {_DIRECT_ARGMIN, _DIRECT_ARGMIN + 1} <= set(windows)
    fallback = partial = 0
    for h in (f, g):
        for q in queries:
            hi, lo = kmer_words(q, k)
            want = h.lookup_words(hi, lo, checked=checked)
            got = h.stream_lookup(q, checked=checked)
            assert got.dtype == np.int64 and np.array_equal(got, want)
            fallback += np.any(got >= h.n_unambiguous)
            scan = scan_string(q, h.scheme)
            partial += any(np.any(got[a:a + n] < 0) and np.any(got[a:a + n] >= 0)
                           for a, n in zip(scan.kmer_base, scan.sizes))
    assert fallback and (partial or not checked)


BATCH_SHAPES = SCALAR_SHAPES + [substituted, unitigs_m8, two_words_k63]
BATCH_SIZES = [0, 1, _SCALAR_RUNS, _SCALAR_RUNS + 1]


@functools.cache
def batch_case(shape, build):
    """(structure, its reloaded copy, keys): 150 member k-mers, up to 150
    k-mers of the shape's queries and 150 random k-mers, shuffled."""
    spss, scheme, *queries = shape()
    f = build(spss, scheme)
    k, rng = scheme.k, np.random.default_rng(85)

    def ints(strings):
        return [(int(h) << 64) | int(x) for c in strings
                for h, x in zip(*kmer_words(c, k))]

    members = ints(spss.codes)
    near = ints(queries[0]) if queries else []
    keys = [*rng.choice(members, 150), *rng.choice(near, min(150, len(near)))]
    keys += [int.from_bytes(rng.bytes(16), "little") % 4 ** k for _ in range(150)]
    rng.shuffle(keys)
    return f, structure_from_bytes(structure_to_bytes(f)), [int(x) for x in keys]


def words(keys):
    return (np.array([x >> 64 for x in keys], dtype=np.uint64),
            np.array([x & (2 ** 64 - 1) for x in keys], dtype=np.uint64))


@AMBIG
@pytest.mark.parametrize("build", BUILDERS)
@pytest.mark.parametrize("shape", BATCH_SHAPES, ids=lambda s: s.__name__)
def test_small_random_batches_equal_lookup(shape, build):
    """Batches of 0, 1, _SCALAR_RUNS and _SCALAR_RUNS + 1 k-mers, members
    and not, equal per-key `lookup`: checked, -1 exactly where `lookup`
    raises DefiniteMiss."""
    f, g, keys = batch_case(shape, build)
    misses = 0
    for h in (f, g):
        for size in BATCH_SIZES:
            for a in range(0, min(len(keys), 20 * size + 1), max(size, 1)):
                batch = keys[a:a + size]
                unchecked = h.lookup_words(*words(batch))
                checked = h.lookup_words(*words(batch), checked=True)
                assert unchecked.dtype == checked.dtype == np.int64
                assert unchecked.tolist() == [h.lookup(x) for x in batch]
                for x, c in zip(batch, checked.tolist()):
                    if c < 0:
                        with pytest.raises(DefiniteMiss):
                            h.lookup(x, checked=True)
                    else:
                        assert h.lookup(x, checked=True) == c
                misses += int(np.count_nonzero(checked < 0))
    assert misses > 0


@AMBIG
@pytest.mark.parametrize("build", BUILDERS)
def test_random_batch_slot_decode_switches_at_scalar_runs(build, monkeypatch):
    """A random batch of at most _SCALAR_RUNS k-mers decodes its slots one
    at a time (`_slot_param`), a larger one in one vector pass
    (`_slot_params`), never both."""
    f, g, keys = batch_case(substituted, build)
    calls = {}
    for name in ("_slot_param", "_slot_params"):
        def counted(self, slot, _name=name, _raw=getattr(type(f), name)):
            calls[_name] += 1
            return _raw(self, slot)
        monkeypatch.setattr(type(f), name, counted)
    for h in (f, g):
        for size in BATCH_SIZES + [5 * _SCALAR_RUNS]:
            for checked in (False, True):
                calls.update({"_slot_param": 0, "_slot_params": 0})
                h.lookup_words(*words(keys[:size]), checked=checked)
                if size <= _SCALAR_RUNS:
                    assert calls == {"_slot_param": size, "_slot_params": 0}
                else:
                    assert calls == {"_slot_param": 0, "_slot_params": 1}


@AMBIG
@pytest.mark.parametrize("build", BUILDERS)
@pytest.mark.parametrize("shape", [substituted, two_words_k63])
def test_stream_lookup_takes_bases_or_codes_in_0_3(shape, build):
    """A query is its bases as str or bytes, or integer codes in [0, 3] of
    any integer type; any other code raises InvalidBase, and fewer than k
    bases raise QueryShorterThanK."""
    f, _, queries = built(shape, build)
    for q in queries[:5]:
        want = f.stream_lookup(decode_bases(q))
        for same in (q, decode_bases(q).encode(), q.tolist(), q.astype(np.int64),
                     q.astype(np.uint64)):
            assert np.array_equal(f.stream_lookup(same), want)
    q = queries[0]
    for bad in (np.where(np.arange(q.size) == 7, 4, q),
                np.where(np.arange(q.size) == 7, -1, q.astype(np.int64)),
                q.astype(np.float64), q.reshape(1, -1), decode_bases(q) + "N"):
        with pytest.raises(InvalidBase):
            f.stream_lookup(bad)
    k = f.scheme.k
    for short in (decode_bases(q[:k - 1]), q[:k - 1], []):
        with pytest.raises(QueryShorterThanK):
            f.stream_lookup(short)


@AMBIG
@pytest.mark.parametrize("build", BUILDERS)
@pytest.mark.parametrize("shape", [substituted, two_words_k63])
def test_lookup_words_takes_integer_words_below_4_to_the_k(shape, build):
    """`lookup_words` takes 1-D integer word arrays of one shape that pack
    values below 4^k, as `lookup` takes packed ints in [0, 4^k); anything
    else raises KMismatch."""
    f, _, keys = batch_case(shape, build)
    hi, lo = words(keys)
    k, want = f.scheme.k, f.lookup_words(hi, lo)
    assert np.array_equal(f.lookup_words(hi.astype(np.int64), lo), want)
    if k < 32:   # lo < 2^62: int64 arrays and lists of ints hold it
        assert np.array_equal(f.lookup_words(hi.tolist(), lo.tolist()), want)
        assert np.array_equal(f.lookup_words(hi, lo.astype(np.int64)), want)

    def at0(a, v):
        a = a.copy()
        a[0] = v
        return a
    big = 4 ** k   # the smallest packed value out of range
    bad = [(at0(hi, big >> 64), at0(lo, big & (2 ** 64 - 1))),
           (at0(hi.astype(np.int64), -1), lo), (hi, at0(lo.astype(np.int64), -1)),
           (hi.astype(np.float64), lo), (hi[:-1], lo), (hi[None], lo[None])]
    if k < 32:
        bad += [(at0(hi, 1), lo), (hi, at0(lo, 2 ** 63))]
    for h, x in bad:
        with pytest.raises(KMismatch):
            f.lookup_words(h, x)
