"""Structure file format.

Little-endian container: magic "LPH1", format version, variant code, the
scheme parameters (k, m, seed) and global counts, then one length-framed
section per component: the inner MPHF, the layout's `SECTIONS` in order,
and the fallback MPHF. Loading rejects unknown magic, version or variant,
and header counts the inner and fallback MPHFs' key counts disagree with.
"""

import struct

from ._binio import Reader, Writer
from .basic import LpMphfBasic
from .errors import CorruptFile
from .minimizers import MinimizerScheme
from .mphf import GeneralMphf
from .partitioned import LpMphfPartitioned

MAGIC = b"LPH1"
VERSION = 1
_CLASS_BY_CODE = {cls.variant_code: cls
                  for cls in (LpMphfBasic, LpMphfPartitioned)}
_HEADER = struct.Struct("<4sHBBIIQQQQ")

__all__ = ["MAGIC", "VERSION", "structure_to_bytes", "save_structure",
           "load_structure"]


def _write_section(w, payload):
    w.u64(len(payload))
    w.raw(payload)


def _read_section(r):
    return r.raw(r.u64())


def structure_to_bytes(f):
    w = Writer()
    w.raw(_HEADER.pack(MAGIC, VERSION, f.variant_code, 0,
                       f.scheme.k, f.scheme.m, f.scheme.seed,
                       f.n, f.num_minimizers, f.n_unambiguous))
    _write_section(w, f.fm.to_bytes())
    for name, _ in f.SECTIONS:
        _write_section(w, getattr(f, name).to_bytes())
    _write_section(w, f.fallback.to_bytes())
    return w.getvalue()


def structure_from_bytes(buf):
    if len(buf) < _HEADER.size:
        raise CorruptFile("file too short for header")
    magic, version, variant, _, k, m, seed, n, n_min, n_unamb = \
        _HEADER.unpack(buf[:_HEADER.size])
    if magic != MAGIC:
        raise CorruptFile(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise CorruptFile(f"unsupported format version {version}")
    cls = _CLASS_BY_CODE.get(variant)
    if cls is None:
        raise CorruptFile(f"unknown variant code {variant}")
    r = Reader(buf)
    r.raw(_HEADER.size)
    fm = GeneralMphf.from_bytes(_read_section(r))
    if fm.n_keys != n_min:
        raise CorruptFile("minimizer count mismatch")
    sections = {name: kind.from_bytes(_read_section(r))
                for name, kind in cls.SECTIONS}
    fallback = GeneralMphf.from_bytes(_read_section(r))
    r.done()
    if fallback.n_keys != n - n_unamb:
        raise CorruptFile("fallback key count mismatch")
    return cls(MinimizerScheme(k=k, m=m, seed=seed), n, n_unamb, fm,
               fallback, **sections)


def save_structure(f, path):
    with open(path, "wb") as fh:
        fh.write(structure_to_bytes(f))


def load_structure(path):
    with open(path, "rb") as fh:
        return structure_from_bytes(fh.read())
