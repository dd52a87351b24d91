"""Span tracing of lpmphf's module boundaries, from outside the package.

The traced run replaces the functions and methods listed in `BOUNDARIES`
with wrappers that record one span per call while a `Tracer` is enabled.
Wrappers are installed on the names callers actually look up (for example
`basic.scan_spss`, which `basic.py` imported into its own namespace), so no
file under `src/` changes. Spans are kept in memory; per-layer metrics are
derived from them afterwards as self time (a span's duration minus the part
of it covered by its child spans) plus call and work counts.

Timestamps are integer nanoseconds, so the identity "the self times of a
subtree add up to its root's duration" holds exactly whenever child spans
are disjoint and nested inside their parent; `subtree_sums_ok` checks it.
"""

import functools
import importlib
import time
from contextlib import contextmanager

# Span names of the traced boundaries. A name ending in ".{role}" is
# completed at call time: inner MPHFs are told apart by identity (fm or
# fallback), layouts by their variant.
BOUNDARIES = [
    # (module or class path, attribute, span name)
    ("lpmphf", "generate_spss", "spss.generate"),
    ("lpmphf.spss", "generate_spss", "spss.generate"),
    ("lpmphf", "load_spss", "spss.load"),
    ("lpmphf.spss", "load_spss", "spss.load"),
    ("lpmphf.basic", "scan_spss", "minimizers.scan_spss"),
    ("lpmphf.partitioned", "scan_spss", "minimizers.scan_spss"),
    ("lpmphf.minimizers", "scan_string", "minimizers.scan"),
    ("lpmphf._lookup", "scan_string", "minimizers.scan"),
    ("lpmphf._build", "census_from_scan", "minimizers.census"),
    ("lpmphf.basic", "assemble_slots", "build.assemble_slots"),
    ("lpmphf.partitioned", "assemble_slots", "build.assemble_slots"),
    ("lpmphf.basic", "build_fallback", "build.fallback"),
    ("lpmphf.partitioned", "build_fallback", "build.fallback"),
    ("lpmphf._build", "ambiguous_kmer_words", "build.fallback_words"),
    ("lpmphf.basic", "finish_lookup", "build.finish_lookup"),
    ("lpmphf.partitioned", "finish_lookup", "build.finish_lookup"),
    ("lpmphf._lookup", "finish_lookup", "build.finish_lookup"),
    ("lpmphf.basic", "kmer_minimizers", "lookup.kmer_minimizers"),
    ("lpmphf.partitioned", "kmer_minimizers", "lookup.kmer_minimizers"),
    ("lpmphf.basic", "stream_plan", "lookup.stream_plan"),
    ("lpmphf.partitioned", "stream_plan", "lookup.stream_plan"),
    ("lpmphf._lookup:StreamPlan", "expand", "lookup.expand"),
    ("lpmphf.mphf:GeneralMphf", "build", "mphf.build.{role}"),
    ("lpmphf.mphf:GeneralMphf", "evaluate_many", "mphf.eval.{role}"),
    ("lpmphf.succinct:EliasFanoSeq", "access_many", "succinct.ef_access"),
    ("lpmphf.succinct:RankBitvector", "select1_many", "succinct.select"),
    ("lpmphf.succinct:TypeSequence", "access_many", "succinct.typeseq"),
    ("lpmphf.succinct:TypeSequence", "rank_many", "succinct.typeseq"),
    ("lpmphf.succinct:IntVector", "get_many", "succinct.intvec_get"),
    ("lpmphf.basic:LpMphfBasic", "_slot_params", "layout.slot_params.{role}"),
    ("lpmphf.partitioned:LpMphfPartitioned", "_slot_params",
     "layout.slot_params.{role}"),
    ("lpmphf.storage", "structure_from_bytes", "storage.from_bytes"),
]

# Which inner MPHF a GeneralMphf.build call makes, by its caller's span.
_BUILD_ROLE_BY_PARENT = {"build.assemble_slots": "fm",
                         "build.fallback": "fallback"}


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs")

    def __init__(self, name, parent, start, end=0, attrs=None):
        self.name = name
        self.parent = parent      # index of the parent span, -1 for a root
        self.start = start
        self.end = end
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory span recorder; wrappers are pass-through while disabled."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.enabled = False
        self.spans = []
        self.roles = {}       # id(obj) -> (obj, role); keeps obj alive
        self._stack = []

    def register(self, obj, role):
        self.roles[id(obj)] = (obj, role)

    def role_of(self, obj):
        return self.roles.get(id(obj), (None, "other"))[1]

    def current_name(self):
        return self.spans[self._stack[-1]].name if self._stack else ""

    def open(self, name, **attrs):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, self.clock(), attrs=attrs))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def close(self):
        self.spans[self._stack.pop()].end = self.clock()

    def root(self, name, **attrs):
        """Context manager for a root span opened by the benchmark itself."""
        return _SpanContext(self, name, attrs)

    def wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer.open(tracer._complete(name, args))
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close()
            _count_work(span, args, out)
            if span.name.startswith("mphf.build."):
                tracer.register(out, span.name.rsplit(".", 1)[1])
            return out
        return traced

    def _complete(self, name, args):
        if not name.endswith("{role}"):
            return name
        if name.startswith("mphf.build."):
            role = _BUILD_ROLE_BY_PARENT.get(self.current_name(), "other")
        elif name.startswith("mphf.eval."):
            role = self.role_of(args[0])
        else:
            role = args[0].variant
        return name.replace("{role}", role)


class _SpanContext:
    def __init__(self, tracer, name, attrs):
        self.tracer, self.name, self.attrs = tracer, name, attrs

    def __enter__(self):
        return self.tracer.open(self.name, **self.attrs)

    def __exit__(self, *exc):
        self.tracer.close()
        return False


def _count_work(span, args, out):
    """Work counts recorded at the boundary, beside the span."""
    name = span.name
    if name.startswith("mphf.eval."):
        span.attrs["keys"] = len(args[1])
    elif name == "minimizers.scan_spss":
        span.attrs["superkmers"] = int(out.num_superkmers)
        span.attrs["n"] = int(out.n)
    elif name == "minimizers.census":
        span.attrs["distinct"] = int(out.num_minimizers)
        span.attrs["xi"] = float(out.xi)


def _resolve(path):
    mod_name, _, cls_name = path.partition(":")
    obj = importlib.import_module(mod_name)
    return getattr(obj, cls_name) if cls_name else obj


@contextmanager
def installed(tracer):
    """Wrap every boundary for the duration of the block."""
    undo = []
    try:
        for path, attr, name in BOUNDARIES:
            owner = _resolve(path)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(raw.__func__, name))
            else:
                wrapped = tracer.wrap(raw, name)
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, raw))
        yield tracer
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)


# --- analysis -----------------------------------------------------------------

def _children(spans):
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    return kids


def self_times(spans):
    """Per span: duration minus the union of its children's intervals,
    clipped to the span itself (integer nanoseconds)."""
    kids = _children(spans)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0, s.start
        for c in sorted(kids[i], key=lambda j: spans[j].start):
            lo = max(spans[c].start, reach)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def roots_of(spans):
    """Index of the root span above every span (parents precede children)."""
    root = []
    for i, s in enumerate(spans):
        root.append(i if s.parent < 0 else root[s.parent])
    return root


def subtree_sums_ok(spans, selfs=None):
    """Per span: do the self times of its subtree add up to its duration?
    True exactly when, throughout the subtree, children are disjoint and
    lie inside their parent."""
    selfs = self_times(spans) if selfs is None else selfs
    total = list(selfs)
    for i in range(len(spans) - 1, -1, -1):
        if spans[i].parent >= 0:
            total[spans[i].parent] += total[i]
    return [total[i] == s.duration for i, s in enumerate(spans)]
