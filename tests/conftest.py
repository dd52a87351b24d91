import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from lpmphf import (EliasFanoSeq, MinimizerScheme, SpssInput, build_basic,
                    build_partitioned, generate_spss)
from lpmphf.kmers import encode_bases
from lpmphf.minimizers import scan_string
from lpmphf.succinct import IntVector

from oracles import random_dna


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture(scope="session")
def small_spss():
    """~10^4 k-mers, k=31, m=15; distinct by construction."""
    return generate_spss(10_000 + 30, 31, seed=101)


@pytest.fixture(scope="session")
def medium_spss():
    """~10^5 k-mers, used where statistics need some mass."""
    return generate_spss(100_000 + 30, 31, seed=202)


def find_single_superkmer(k, m, size, seed=0, tries=5000):
    """Deterministically search for a string that is one super-k-mer of the
    requested size under scheme seed `seed`."""
    scheme = MinimizerScheme(k=k, m=m, seed=seed)
    rng = np.random.default_rng(1234)
    length = k + size - 1
    for _ in range(tries):
        s = random_dna(rng, length)
        scan = scan_string(encode_bases(s), scheme)
        if scan.num_superkmers == 1 and scan.sizes[0] == size:
            return s, scheme
    raise AssertionError(f"no single super-k-mer of size {size} found")


BUILDERS = [build_basic, build_partitioned]


# Inputs on which one-key lookup is checked against the vector path: one
# long string, a cut-up input with most k-mers in the fallback MPHF, and
# two-word (k > 32) keys.
def one_string_k31():
    return generate_spss(2000 + 30, 31, seed=61), MinimizerScheme(k=31, m=15, seed=3)


def pieces_k31_m5():
    """One string cut into pieces overlapping by k-1 bases; at m=5 most
    k-mers go to the fallback MPHF."""
    whole = generate_spss(2000 + 30, 31, seed=62).codes[0]
    cuts = [0, 150, 400, 430, 900, 1300, whole.size]
    pieces = [whole[a:b + 30] for a, b in zip(cuts, cuts[1:])]
    return SpssInput(k=31, codes=pieces), MinimizerScheme(k=31, m=5, seed=3)


def one_string_k63():
    return generate_spss(2000 + 62, 63, seed=63), MinimizerScheme(k=63, m=21, seed=3)


SCALAR_SHAPES = [one_string_k31, pieces_k31_m5, one_string_k63]


# Structure file layout: a 48-byte header (magic b"LPH1", u16 version, u8
# variant, a pad byte, u32 k and m, then u64 seed, n, |M| and n_unambiguous),
# its CRC-32 as a u32, then sections to the end of the file, each framed as
# (u64 payload length, u32 CRC-32 of the payload, payload).
FILE_MAGIC = b"LPH1"
HEADER_BYTES = 48
FRAME_BYTES = 12


def reseal(blob):
    """`blob`, a structure file, with the header's and every section's
    CRC-32 recomputed, so that a patch reaches the checks behind them."""
    out = bytearray(blob)
    crc = zlib.crc32(out[:HEADER_BYTES])
    out[HEADER_BYTES:HEADER_BYTES + 4] = crc.to_bytes(4, "little")
    at = HEADER_BYTES + 4
    while at + FRAME_BYTES <= len(out):
        size = int.from_bytes(out[at:at + 8], "little")
        crc = zlib.crc32(out[at + FRAME_BYTES:at + FRAME_BYTES + size])
        out[at + 8:at + FRAME_BYTES] = crc.to_bytes(4, "little")
        at += FRAME_BYTES + size
    return bytes(out)


def ef_header_patches(blob, ef):
    """Copies of `blob` with one header field of the Elias-Fano sequence `ef`
    (serialized somewhere inside it) altered, as (field name, bytes) pairs,
    checksums recomputed.

    Fields in file order: length, universe and low width; the low part's
    length and width; after the low words, the high bitvector's nbits.
    """
    at = blob.find(ef.to_bytes())
    assert at >= 0
    low_words = (ef.length * ef.low_width + 63) // 64
    offsets = dict(zip(("length", "universe", "low_width", "low.length",
                        "low.width"), range(at, at + 40, 8)))
    offsets["high.nbits"] = at + 40 + 8 * low_words
    for name, off in offsets.items():
        value = int.from_bytes(blob[off:off + 8], "little")
        # universe + 1 may round to the same low width and high length
        deltas = (1 << 40,) if name == "universe" else (1 << 40, 1)
        for delta in deltas:
            out = bytearray(blob)
            out[off:off + 8] = ((value + delta) % (1 << 64)).to_bytes(8, "little")
            yield name, reseal(out)


def mphf_header_patches(blob, f):
    """Copies of `blob` with the header of the GeneralMphf `f` (serialized
    somewhere inside it, or all of it) made inconsistent, as (field name,
    bytes) pairs, checksums recomputed: level 0's nbits off the 64-bit grid
    with the same word count, level 0's nbits 0, and the key count one above
    the levels' set bits."""
    at = blob.find(f.to_bytes())
    assert at >= 0
    nbits_at = at + 28   # after n_keys, seed, gamma and the level count
    nbits = int.from_bytes(blob[nbits_at:nbits_at + 8], "little")
    for name, off, value in (("nbits", nbits_at, nbits - 63),
                             ("nbits", nbits_at, 0),
                             ("n_keys", at, f.n_keys + 1)):
        out = bytearray(blob)
        out[off:off + 8] = value.to_bytes(8, "little")
        yield name, reseal(out) if blob[:4] == FILE_MAGIC else bytes(out)


def _add(blob, edits):
    """`blob` with each (offset, delta) edit added to the u64 at offset,
    checksums recomputed."""
    out = bytearray(blob)
    for off, delta in edits:
        value = int.from_bytes(out[off:off + 8], "little")
        out[off:off + 8] = ((value + delta) % (1 << 64)).to_bytes(8, "little")
    return reseal(out)


def _flip(blob, at, bit):
    """`blob` with bit `bit` of the words starting at `at` flipped,
    checksums recomputed."""
    out = bytearray(blob)
    out[at + bit // 8] ^= 1 << (bit % 8)
    return reseal(out)


def layout_patches(blob, f):
    """Copies of `blob`, the file of the partitioned structure `f`, with the
    lengths and counts its slot decode relies on made inconsistent, as
    (name, bytes) pairs, checksums recomputed. Each copy keeps every word
    count, so it parses as far as the layout checks.

    The type sequence R is serialized as length, count0, then b1 and b2,
    each as nbits and words; b2 holds the low symbol bits of R's symbols 0
    and 1 (its first count0 bits), then of 2 and 3. type_counts is four
    u64; P_n is length, width and words. The header holds n at 24 and
    n_unambiguous at 40. One copy replaces the P_n section by P_n's values
    one bit wider, which changes the section's length.
    """
    r = blob.find(f.R.to_bytes())
    counts = blob.find(f.type_counts.to_bytes())
    p_n = blob.find(f.P_n.to_bytes())
    assert min(r, counts, p_n) >= 0
    b1, b2 = r + 16, r + 16 + len(f.R._b1.to_bytes())
    m, count0 = f.R.length, f.R._count0
    other = 1 if m % 64 else -1   # a length with the same word count
    width = f.P_n.width
    words = (len(f.P_n) * width + 63) // 64
    p_delta = -1 if ((len(f.P_n) - 1) * width + 63) // 64 == words else 1
    yield "R.length", _add(blob, [(r, 1)])
    yield "R.count0", _add(blob, [(r + 8, 1)])
    yield "R.b2.nbits", _add(blob, [(b2, other)])
    yield "R.length and |M|", _add(blob, [(r, other), (r + 8, other),
                                          (b1, other), (b2, other)])
    # one symbol changed within R's left group (0 <-> 1) and right group
    # (2 <-> 3): the type counts no longer match R
    b2_bits = [f.R._b2.probe(i)[0] for i in range(m)]
    yield "R symbol 0 -> 1", _flip(blob, b2 + 8, b2_bits.index(0))
    yield "R symbol 3 -> 2", _flip(blob, b2 + 8, b2_bits.index(1, count0))
    for i, name in enumerate(("n_lr", "n_l", "n_r", "n_n")):
        if name != "n_r":   # only reported, never read by a lookup
            yield f"type_counts.{name}", _add(blob, [(counts + 8 * i, 1)])
    # K_lr = n_lr * w: too large for int64 here, it raised OverflowError
    yield "type_counts.n_lr + 2^60", _add(blob, [(counts, 1 << 60)])
    yield "P_n.length", _add(blob, [(p_n, p_delta)])
    yield "n and n_unambiguous", _add(blob, [(24, 1), (40, 1)])
    yield "P_n.width", _replace_section(blob, f.P_n, _wider(f.P_n))


def _wider(iv):
    """The values of the IntVector `iv`, stored one bit wider."""
    return IntVector.from_values(iv.get_many(np.arange(len(iv))), iv.width + 1)


def _replace_section(blob, old, new):
    """`blob` with the section whose payload is `old.to_bytes()` replaced by
    `new.to_bytes()`, reframed, checksums recomputed."""
    old, new = old.to_bytes(), new.to_bytes()
    at = blob.find(old)
    assert at >= 0 and blob[at - FRAME_BYTES:at - 4] == len(old).to_bytes(8, "little")
    frame = len(new).to_bytes(8, "little") + bytes(4)
    return reseal(blob[:at - FRAME_BYTES] + frame + new + blob[at + len(old):])


def basic_layout_patches(blob, f):
    """Copies of `blob`, the file of the basic structure `f`, whose L or P
    disagrees with |M|, n_unambiguous or w, as (name, bytes) pairs, checksums
    recomputed: P one element shorter or longer with the same word count,
    L's section replaced by a well-formed Elias-Fano sequence that is one
    element short, or whose last prefix sum is one less, and P's section by
    P's values one bit wider."""
    p = blob.find(f.P.to_bytes())
    assert p >= 0
    words = (len(f.P) * f.P.width + 63) // 64
    p_delta = -1 if ((len(f.P) - 1) * f.P.width + 63) // 64 == words else 1
    yield "P.length", _add(blob, [(p, p_delta)])
    prefix = f.L.access_many(np.arange(len(f.L)))
    for name, values in (("L.length", prefix[:-1]),
                         ("L last value", np.minimum(prefix, prefix[-1] - 1))):
        new = EliasFanoSeq.from_values(values, universe=f.L.universe)
        yield name, _replace_section(blob, f.L, new)
    yield "P.width", _replace_section(blob, f.P, _wider(f.P))
