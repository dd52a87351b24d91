"""Naive reference implementations the production code is checked against.

Everything here recomputes per k-mer from the string, using only the scalar
hash and the alphabet definition; no sliding-window machinery, no succinct
structures.
"""

import struct

import numpy as np

from lpmphf.kmers import BASES, mix64, seed_key


def random_dna(rng, length):
    return "".join(BASES[i] for i in rng.integers(0, 4, size=length))


def pack_mmer(s):
    v = 0
    for ch in s:
        v = (v << 2) | BASES.index(ch)
    return v


def brute_minimizer(kmer, m, seed):
    """(value, 1-based pos) of the minimum-hash m-mer, leftmost on ties."""
    best = None
    for p in range(len(kmer) - m + 1):
        v = pack_mmer(kmer[p:p + m])
        h = mix64(v ^ seed_key(seed))
        if best is None or h < best[0]:
            best = (h, v, p + 1)
    return best[1], best[2]


def brute_occurrences(s, k, m, seed):
    """Absolute minimizer occurrence offset for every k-mer of s."""
    occ = []
    for i in range(len(s) - k + 1):
        _, pos = brute_minimizer(s[i:i + k], m, seed)
        occ.append(i + pos - 1)
    return occ


def brute_split(s, k, m, seed):
    """(minimizer value, size, p1, start) per super-k-mer, by per-k-mer
    recomputation and occurrence grouping."""
    occ = brute_occurrences(s, k, m, seed)
    out = []
    start = 0
    for i in range(1, len(occ) + 1):
        if i == len(occ) or occ[i] != occ[start]:
            val = pack_mmer(s[occ[start]:occ[start] + m])
            out.append((val, i - start, occ[start] - start + 1, start))
            start = i
    return out


def brute_window_argmin(values, w):
    """Leftmost argmin offset of every length-w window, window by window."""
    values = [int(v) for v in values]
    out = []
    for i in range(len(values) - w + 1):
        window = values[i:i + w]
        out.append(window.index(min(window)))
    return out


def brute_window_runs(values, w):
    """(start, position) pairs of the windows where the leftmost argmin
    position j + offset (`brute_window_argmin`) changes, window 0 included."""
    out = []
    for j, offset in enumerate(brute_window_argmin(values, w)):
        if not out or out[-1][1] != j + offset:
            out.append((j, j + offset))
    return out


def brute_select(bits, j):
    """Position of the (j+1)-th set bit."""
    return int(np.flatnonzero(bits)[j])


def all_kmers(s, k):
    return [s[i:i + k] for i in range(len(s) - k + 1)]


def packed_int_words(values, width):
    """The 64-bit words of `values` (Python ints, each cut to its low `width`
    bits) laid end to end from bit 0, value i at bits [i*width, (i+1)*width),
    built as one Python int."""
    big = 0
    for i, v in enumerate(values):
        big |= (v & ((1 << width) - 1)) << (i * width)
    return _words_of(big, len(values) * width)


def packed_bit_words(nbits, positions):
    """The 64-bit words of an nbits-long bitvector with `positions` set."""
    big = 0
    for p in positions:
        big |= 1 << p
    return _words_of(big, nbits)


def _words_of(big, nbits):
    return [big >> (64 * j) & 0xFFFFFFFFFFFFFFFF for j in range((nbits + 63) // 64)]


def naive_rank(bits, i):
    return int(np.sum(bits[:i]))


def naive_symbol_rank(symbols, t, i):
    return int(np.sum(np.asarray(symbols[:i]) == t))


MPHF_LEVEL_SALT = 0x9E3779B97F4A7C15   # level l hashes under mix64(seed + (l+1) * salt)


def mphf_levels_from_bytes(blob):
    """(n_keys, seed, [(bits as a Python int, nbits), ...]) read from a
    serialized GeneralMphf: its header (n_keys, seed, gamma, a u32 level
    count), then per level nbits and the payload words."""
    n_keys, seed, _gamma, n_levels = struct.unpack_from("<QQdI", blob)
    at, levels = 28, []
    for _ in range(n_levels):
        (nbits,) = struct.unpack_from("<Q", blob, at)
        nwords = (nbits + 63) // 64
        payload = blob[at + 8:at + 8 + 8 * nwords]
        levels.append((int.from_bytes(payload, "little"), nbits))
        at += 8 + 8 * nwords
    assert at == len(blob)
    return n_keys, seed, levels


def brute_mphf_value(n_keys, seed, levels, key):
    """A BBHash-style cascade evaluated level by level on Python ints: the
    first level whose bit at the key's hash is set places the key, at the
    count of set bits before it in that level and all earlier ones; a key
    that sets no bit gets its seeded hash modulo n_keys."""
    hi, lo = key >> 64, key & 0xFFFFFFFFFFFFFFFF
    before = 0
    for level, (bits, nbits) in enumerate(levels):
        level_key = seed_key(mix64(seed + (level + 1) * MPHF_LEVEL_SALT))
        pos = mix64(mix64(lo ^ level_key) ^ hi) % nbits
        if bits >> pos & 1:
            return before + (bits & ((1 << pos) - 1)).bit_count()
        before += bits.bit_count()
    return mix64(mix64(lo ^ seed_key(seed)) ^ hi) % n_keys


def brute_spss_records(codes, k):
    """A draw cut at repeated k-mers, walked k-mer by k-mer with a set: a
    k-mer seen before ends the current record and is dropped, the next new
    k-mer opens a record with its k bases, and later new k-mers add a base."""
    codes = [int(c) for c in codes]
    seen, records, cur = set(), [], None
    for i in range(len(codes) - k + 1):
        kmer = tuple(codes[i:i + k])
        if kmer in seen:
            cur = None
        elif cur is None:
            seen.add(kmer)
            cur = list(kmer)
            records.append(cur)
        else:
            seen.add(kmer)
            cur.append(kmer[-1])
    return records
