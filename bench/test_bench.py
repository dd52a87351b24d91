"""Tests of the benchmark's own logic: span self-time arithmetic, the
correctness gate, and the wrappers the traced run installs.

Run from the repository root: python3 -m pytest bench
"""

import io
import sys
from pathlib import Path

import numpy as np
import pytest

from gate import Gate, is_bijection, split_mismatches
from tracing import Span, Tracer, installed, self_times, subtree_sums_ok

SRC = Path(__file__).resolve().parent.parent / "src"


def spans(*rows):
    return [Span(name, parent, start, end) for name, parent, start, end in rows]


def test_self_time_subtracts_nested_children():
    sp = spans(("root", -1, 0, 100), ("a", 0, 10, 40), ("a1", 1, 20, 30),
               ("b", 0, 50, 90))
    assert self_times(sp) == [30, 20, 10, 40]
    assert subtree_sums_ok(sp) == [True] * 4


def test_overlapping_children_fail_the_sum_check():
    sp = spans(("root", -1, 0, 100), ("a", 0, 10, 60), ("b", 0, 50, 90))
    assert self_times(sp)[0] == 20          # the union [10, 90) is covered
    assert subtree_sums_ok(sp)[0] is False


def test_child_outside_its_parent_fails_the_sum_check():
    sp = spans(("root", -1, 0, 100), ("a", 0, 90, 120))
    assert self_times(sp) == [90, 30]
    assert subtree_sums_ok(sp) == [False, True]


@pytest.fixture(scope="module")
def lp():
    sys.path.insert(0, str(SRC))
    import lpmphf
    return lpmphf


@pytest.fixture(scope="module")
def small(lp):
    """Short strings overlapping by k-1 bases, so per-string paths run too."""
    codes = lp.generate_spss(4000, 21, seed=3).codes[0]
    pieces = [codes[i:i + 120] for i in range(0, codes.size - 20, 100)]
    return lp.SpssInput(k=21, codes=pieces), lp.MinimizerScheme(k=21, m=8, seed=3)


def test_gate_passes_true_values_and_fails_wrong_ones(lp, small):
    spss, scheme = small
    f = lp.build_partitioned(spss, scheme)
    values = f.assigned_values(spss)
    parts = [f.stream_lookup(c) for c in spss.codes]
    gate = Gate(out=io.StringIO())
    gate.record(is_bijection(values, spss.n), "bijection")
    gate.record(True, "stream", len(parts), failures=split_mismatches(parts, values))
    assert gate.correct and gate.attempted == 1 + len(parts)

    wrong = values.copy()
    wrong[1] = wrong[0]                      # a collision: not a bijection
    gate.record(is_bijection(wrong, spss.n), "bijection of a wrong array")
    wrong = values.copy()
    wrong[len(parts[0]) + 2] += 1            # one value off in the second string
    gate.record(True, "stream vs wrong", len(parts),
                failures=split_mismatches(parts, wrong))
    assert gate.failed == 2 and not gate.correct


def test_gate_counts_an_exception_as_a_failure():
    gate = Gate(out=io.StringIO())
    assert not gate.run("raises", lambda: 1 // 0, count=3)
    assert (gate.attempted, gate.failed) == (3, 3)


def test_traced_calls_agree_and_wrappers_come_off(lp, small):
    spss, scheme = small
    originals = (lp.basic.scan_spss, lp.mphf.GeneralMphf.__dict__["build"],
                 lp.succinct.IntVector.get_many)
    tracer = Tracer()
    with installed(tracer):
        tracer.enabled = True
        with tracer.root("build"):
            f = lp.build_partitioned(spss, scheme)
        tracer.register(f.fm, "fm")
        tracer.register(f.fallback, "fallback")
        got = []
        for c in spss.codes:
            with tracer.root("stream_lookup"):
                got.append(f.stream_lookup(c))
        tracer.enabled = False
    assert (lp.basic.scan_spss, lp.mphf.GeneralMphf.__dict__["build"],
            lp.succinct.IntVector.get_many) == originals
    assert np.array_equal(np.concatenate(got), f.assigned_values(spss))
    names = {s.name for s in tracer.spans}
    assert {"mphf.build.fm", "mphf.build.fallback", "mphf.eval.fm",
            "layout.slot_params.partitioned", "minimizers.scan",
            "succinct.typeseq"} <= names
    assert not any(n.endswith(".other") for n in names)
    assert all(subtree_sums_ok(tracer.spans))
