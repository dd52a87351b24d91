"""Little-endian binary writer/reader used by every serializable structure."""

import struct

import numpy as np

from .errors import CorruptFile


class Writer:
    def __init__(self):
        self._parts = []

    def u32(self, v):
        self._parts.append(struct.pack("<I", v))

    def u64(self, v):
        self._parts.append(struct.pack("<Q", v))

    def f64(self, v):
        self._parts.append(struct.pack("<d", v))

    def raw(self, b):
        self._parts.append(bytes(b))

    def array(self, arr):
        """Write a numpy array as raw little-endian words (length not included)."""
        self._parts.append(np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<")).tobytes())

    def getvalue(self):
        return b"".join(self._parts)


class Reader:
    def __init__(self, buf):
        self._buf = memoryview(buf)
        self._pos = 0

    def _take(self, n):
        if self._pos + n > len(self._buf):
            raise CorruptFile("truncated structure data")
        out = self._buf[self._pos:self._pos + n]
        self._pos += n
        return out

    def u32(self):
        return struct.unpack("<I", self._take(4))[0]

    def u64(self):
        return struct.unpack("<Q", self._take(8))[0]

    def f64(self):
        return struct.unpack("<d", self._take(8))[0]

    def raw(self, n):
        return bytes(self._take(n))

    def array(self, dtype, count):
        dt = np.dtype(dtype).newbyteorder("<")
        return np.frombuffer(self._take(dt.itemsize * count), dtype=dt).copy()

    def done(self):
        if self._pos != len(self._buf):
            raise CorruptFile("trailing bytes in structure data")
