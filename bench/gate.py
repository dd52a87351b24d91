"""Correctness gate: counts checked operations and the ones that failed.

Every check compares against a value computed independently of the timed
call: the build-side table `assigned_values`, a bincount bijection test, or
byte equality of serialized structures. A check that raises counts as a
failure, like a mismatch.
"""

import sys
import traceback

import numpy as np


class Gate:
    def __init__(self, out=sys.stderr, max_reports=10):
        self.attempted = 0
        self.failed = 0
        self._out = out
        self._reports_left = max_reports

    def record(self, ok, what, count=1, failures=None):
        """Count `count` operations, of which `failures` failed (all of them
        when `ok` is false and `failures` is not given)."""
        self.attempted += count
        bad = (0 if ok else count) if failures is None else failures
        self.failed += bad
        if bad:
            self._report(f"check failed: {what} ({bad}/{count})")
        return bad == 0

    def run(self, what, fn, count=1):
        """Run a check function returning a bool, counting an exception as
        a failure of all `count` operations it covers."""
        try:
            ok = bool(fn())
        except Exception:  # a crash of a checked operation is a failure
            self._report(traceback.format_exc())
            ok = False
        return self.record(ok, what, count)

    @property
    def correct(self):
        return self.failed == 0

    def _report(self, msg):
        if self._reports_left > 0:
            self._reports_left -= 1
            print(msg, file=self._out)


def is_bijection(values, n):
    """True when `values` is a permutation of range(n)."""
    values = np.asarray(values)
    if values.shape != (n,) or n == 0:
        return False
    if int(values.min()) < 0 or int(values.max()) >= n:
        return False
    return bool(np.all(np.bincount(values, minlength=n) == 1))


def same(a, b):
    """Elementwise equality of two arrays, shapes included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(np.array_equal(a, b))


def split_mismatches(parts, expected):
    """Number of parts that differ from their slice of `expected`, where the
    parts tile `expected` in order."""
    bad, pos = 0, 0
    for p in parts:
        if not same(p, expected[pos:pos + len(p)]):
            bad += 1
        pos += len(p)
    return bad + (pos != len(expected))
