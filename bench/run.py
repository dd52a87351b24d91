#!/usr/bin/env python3
"""Benchmark of lpmphf: build, streaming, random, scalar and load speed and
bits/k-mer on two SPSS shapes, with a traced per-module split.

Run from the repository root:

    python3 bench/run.py --workload long-k31 --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload, in turn
    python3 -m pytest bench                          # the benchmark's own tests

Each workload runs in its own single-threaded process: one caller in a closed
loop, since lpmphf is a library with no server. The program is imported from
`src/` of the checkout this file sits in, never from an installed copy. Its
public calls are timed from outside and every answer is checked outside the
timed regions (gate.py); the last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`, and the line before it
(`meta`) records the machine, versions, seed, thread settings, sample counts
and medians. The exit code is non-zero when a check fails or the program
cannot be imported.

With `--trace 0` the metrics are the `end_to_end` list of BENCHMARK.json.
Every timing but set-up is sampled in rounds spread over the whole run, each
round running every operation on both variants, and is reported as the
minimum of its samples (streaming: the minimum of each string's call, summed
over the strings). On a shared 2-vCPU Xeon virtual machine the interpreter's
speed swings by up to 2x for stretches of seconds to minutes: over 25-second
windows of one loop, the median of scalar lookup times spread by 28%
(interquartile range over median) against 2% for the minimum, and batch
lookups by 17% against 5%, so the minimum is the steadiest statistic to
bound a regression with. It is steadier the shorter the operation (for a
10^6 k-mer build, 0.3 s, it spread by 30% between windows; for a 2.5*10^5
k-mer one, by 13%), which sets the input sizes and batch lengths. Set-up is
timed once before the rounds and for STEP_SECONDS in each round, and
reported as the median: set-ups timed back to back at the start gave
medians of 0.055 s in some runs and 0.085 s in others.

With `--trace 1` every operation runs once plain and, right after, once with
every module boundary wrapped in spans (tracing.py). The metrics are the
`per_layer` list: self time per module over one traced round (per variant:
one build, one streaming pass, one random batch, SCALAR_PER_STEP scalar
calls; `storage.from_bytes_s` per load), work counts, the space of
each serialized component next to the closed-form bound, and the tracing
overhead as the traced minus the plain result of each end-to-end timing.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)  # before numpy is imported

import numpy as np  # noqa: E402

from gate import Gate, is_bijection, same, split_mismatches  # noqa: E402
from tracing import Tracer, installed, roots_of, self_times, subtree_sums_ok  # noqa: E402

VARIANTS = ("basic", "partitioned")
OPS = ("build", "stream", "random", "scalar", "load")
RANDOM_BATCH = 10_000
WARM_BATCH = 1024
# Rounds go on while --seconds last. Each step of a round runs on both
# variants and is followed by LOADS_PER_STEP loads; a step times
# SCALAR_PER_STEP scalar calls, or builds, random batches or streaming passes
# (each call on its own) for STEP_SECONDS (one when traced). The minimum
# gets steadier with more samples, so the long operations repeat in a round.
ROUND = ("build", "stream", "build", "random", "build", "stream", "scalar")
TRACED_ROUND = ("build", "stream", "random", "scalar")
MIN_ROUNDS, MAX_ROUNDS = 3, 50
STEP_SECONDS = 0.3
SCALAR_PER_STEP = 250
SCALAR_KEYS = 20_000      # distinct k-mers the scalar calls cycle through
LOADS_PER_STEP = 3


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    m: int
    n: int                    # k-mers in the input
    mean_string_kmers: int    # 0: one long string


# Why each workload (also in BENCHMARK.json):
# long-k31     the paper's setting (w=17, xi~0.001): per-minimizer layers do
#              their largest share; fallback and per-string overhead stay out.
# unitigs-k31  strings of near-geometric length (mean 70 k-mers) like compacted
#              de Bruijn graph unitigs, at m=8, the default_minimizer_length
#              at this size (xi~0.4): per-call overhead, per-string loops and
#              the fallback MPHF dominate.
WORKLOADS = {w.name: w for w in (
    Workload("long-k31", k=31, m=15, n=250_000, mean_string_kmers=0),
    Workload("unitigs-k31", k=31, m=8, n=20_000, mean_string_kmers=70),
)}


def import_program():
    """Import lpmphf from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import lpmphf
    if not Path(lpmphf.__file__).resolve().is_relative_to(src):
        raise ImportError(f"lpmphf imported from {lpmphf.__file__}, not {src}")
    return lpmphf


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# --- input -----------------------------------------------------------------------

def cut_strings(codes_list, wl, seed):
    """Cut each string at random k-mer boundaries into pieces overlapping by
    k-1 bases, so the pieces hold every k-mer exactly once. The number of
    pieces is fixed (k-mers / mean_string_kmers) so that the per-call cost
    of streaming does not vary with the seed; the gaps between uniformly
    drawn cut points give the pieces a near-geometric k-mer count."""
    if not wl.mean_string_kmers:
        return list(codes_list)
    rng = np.random.default_rng([seed, 1])
    pieces = []
    for codes in codes_list:
        n_kmers = codes.size - wl.k + 1
        cuts = max(1, round(n_kmers / wl.mean_string_kmers)) - 1
        ends = np.sort(rng.choice(np.arange(1, n_kmers), size=cuts, replace=False))
        bounds = [0, *ends.tolist(), n_kmers]
        for start, end in zip(bounds[:-1], bounds[1:]):
            pieces.append(codes[start:end + wl.k - 1])
    return pieces


def make_input(lp, wl, seed, path):
    """The set-up that setup_s times: seed -> SpssInput ready to build."""
    base = lp.generate_spss(wl.n + wl.k - 1, wl.k, seed=seed)
    codes = cut_strings(base.codes, wl, seed)
    lp.write_fasta(lp.SpssInput(k=wl.k, codes=codes), path)
    return codes, lp.load_spss(path, wl.k)


# --- measurement -----------------------------------------------------------------

@dataclass
class Context:
    lp: object
    spss: object
    scheme: object
    gate: Gate
    work: Path
    batch_idx: np.ndarray     # positions (into the SPSS k-mer order) of the batch
    hi_b: np.ndarray          # packed words of the random batch
    lo_b: np.ndarray
    keys: list                # the first SCALAR_KEYS of them as ints


def root_span(tracer, op, **attrs):
    return tracer.root(op, **attrs) if tracer else nullcontext()


def timed(fn, tracer=None):
    """Wall time of fn(), with the tracer (if any) recording meanwhile."""
    gc.collect()
    if tracer:
        tracer.enabled = True
    try:
        t0 = time.perf_counter()
        out = fn()
        return time.perf_counter() - t0, out
    finally:
        if tracer:
            tracer.enabled = False


class VariantBench:
    """The timed operations on one variant and the checks of their answers.

    The constructor builds once untimed (the build's first-call costs stay
    out of the timings), checks that build against assigned_values, saves
    the structure and warms up every query mode with one untimed call. Each
    call of `step` then times one operation, traced or not, and checks its
    answer outside the timed region.
    """

    def __init__(self, ctx, variant):
        self.ctx, self.variant = ctx, variant
        spss, gate = ctx.spss, ctx.gate
        self.builder = getattr(ctx.lp, f"build_{variant}")
        self.f = self.builder(spss, ctx.scheme, threads=1)
        self.ref = self.f.to_bytes()
        self.values = self.f.assigned_values(spss)
        gate.record(is_bijection(self.values, spss.n),
                    f"{variant}: values not a bijection onto [0, n)")
        self.path = ctx.work / f"{variant}.lph"
        self.f.save(self.path)
        gate.record(self.path.read_bytes() == self.ref,
                    f"{variant}: saved file differs from to_bytes")
        self.f.stream_lookup(spss.codes[0])
        self.f.lookup_words(ctx.hi_b[:WARM_BATCH], ctx.lo_b[:WARM_BATCH])
        self.f.lookup(ctx.keys[0])
        ctx.lp.load_structure(self.path)
        self.stream_values = self.vector_values = None
        self.next_key = 0
        self.reload_checked = False
        self.samples = {op: [] for op in OPS}
        self.traced = {op: [] for op in OPS}
        self.tracer, self.sink = None, self.samples

    def step(self, op, tracer=None):
        """Time `op` once; with a tracer, record spans and keep the sample
        apart from the untraced ones."""
        self.tracer = tracer
        self.sink = self.traced if tracer else self.samples
        try:
            getattr(self, f"_{op}")()
        finally:
            self.tracer = None

    def _timed(self, op, fn):
        def call():
            with root_span(self.tracer, op, variant=self.variant):
                return fn()
        t, out = timed(call, self.tracer)
        self.sink[op].append(t)
        return out

    def _repeat(self, op, fn, check):
        """Time fn() until STEP_SECONDS have passed (once when traced),
        checking each answer."""
        start = time.perf_counter()
        while True:
            check(self._timed(op, fn))
            if self.tracer or time.perf_counter() - start >= STEP_SECONDS:
                return

    def _build(self):
        ctx = self.ctx
        self._repeat("build", lambda: self.builder(ctx.spss, ctx.scheme, threads=1),
                     lambda g: ctx.gate.record(g.to_bytes() == self.ref,
                                               f"{self.variant}: rebuild not byte-identical"))

    def _stream(self):
        """Streaming passes until STEP_SECONDS have passed (once when
        traced)."""
        start = time.perf_counter()
        while True:
            self._stream_pass()
            if self.tracer or time.perf_counter() - start >= STEP_SECONDS:
                return

    def _stream_pass(self):
        ctx, f = self.ctx, self.f
        parts, ns = [], []

        def stream():
            for c in ctx.spss.codes:
                t0 = time.perf_counter_ns()
                with root_span(self.tracer, "stream_lookup", variant=self.variant):
                    parts.append(f.stream_lookup(c))
                ns.append(time.perf_counter_ns() - t0)
        timed(stream, self.tracer)
        self.sink["stream"].append([t / 1e9 for t in ns])
        ctx.gate.record(True, f"{self.variant}: stream != assigned_values",
                        len(parts), failures=split_mismatches(parts, self.values))
        self.stream_values = np.concatenate(parts)

    def _random(self):
        ctx = self.ctx

        def check(got):
            ctx.gate.record(same(got, self.stream_values[ctx.batch_idx]),
                            f"{self.variant}: random != stream")
            self.vector_values = got
        self._repeat("random", lambda: self.f.lookup_words(ctx.hi_b, ctx.lo_b), check)

    def _scalar(self):
        ctx, f = self.ctx, self.f
        idx = (self.next_key + np.arange(SCALAR_PER_STEP)) % len(ctx.keys)
        self.next_key = int(idx[-1]) + 1
        ns, got = [], []

        def scalar():
            for i in idx:
                t0 = time.perf_counter_ns()
                with root_span(self.tracer, "lookup", variant=self.variant):
                    v = f.lookup(ctx.keys[i])
                ns.append(time.perf_counter_ns() - t0)
                got.append(v)
        timed(scalar, self.tracer)
        self.sink["scalar"].extend(t / 1e9 for t in ns)
        bad = int(np.count_nonzero(np.asarray(got) != self.vector_values[idx]))
        ctx.gate.record(True, f"{self.variant}: scalar != vector", len(got),
                        failures=bad)

    def _load(self):
        ctx = self.ctx
        for _ in range(LOADS_PER_STEP):
            g = self._timed("load", lambda: ctx.lp.load_structure(self.path))
            ctx.gate.record(g.to_bytes() == self.ref,
                            f"{self.variant}: reload not byte-identical")
        if not self.reload_checked:
            self.reload_checked = True
            ctx.gate.run(f"{self.variant}: reloaded structure gives other values",
                         lambda: same(g.lookup_words(ctx.hi_b, ctx.lo_b),
                                      self.values[ctx.batch_idx]))

    def metrics(self, samples, stat=min):
        """End-to-end metrics of this variant: `stat` of each operation's
        samples (for streaming, of each string's call, summed over the
        strings), scaled to the metric's unit."""
        v, n = self.variant, self.ctx.spss.n
        out = {}
        for op, (name, scale) in self.scaled(n).items():
            if op == "stream":
                value = sum(stat(group) for group in zip(*samples[op]))
            else:
                value = stat(samples[op])
            out[f"{name}.{v}"] = scale * value
        out[f"bits_per_kmer.{v}"] = 8 * len(self.ref) / n
        return out

    def scaled(self, n):
        return {"build": ("build_s", 1.0),
                "stream": ("stream_ns_per_kmer", 1e9 / n),
                "random": ("random_ns_per_kmer", 1e9 / len(self.ctx.batch_idx)),
                "scalar": ("lookup_us_per_call", 1e6),
                "load": ("load_ms", 1e3)}

    def details(self):
        """Sample counts, medians and the scalar p99, for the meta line."""
        v, out = self.variant, {}
        medians = self.metrics(self.samples, statistics.median)
        for op, (name, _) in self.scaled(self.ctx.spss.n).items():
            out[f"{name}.{v}"] = {"samples": len(self.samples[op]),
                                  "median": medians[f"{name}.{v}"]}
        out[f"lookup_us_per_call.{v}"]["p99"] = 1e6 * percentile(self.samples["scalar"], 99)
        return out


def percentile(xs, q):
    return float(np.percentile(np.asarray(xs, dtype=np.float64), q))


def run_round(benches, ops, tracer=None):
    """Each of `ops` on every variant, loads spread between them. With a
    tracer, each step runs once plain and once traced. Callers alternate the
    order of `benches`, since an operation runs faster when the one before
    it left freed memory to reuse."""
    for op in ops:
        for b in benches:
            for step in (op, "load"):
                b.step(step)
                if tracer:
                    with installed(tracer):
                        b.step(step, tracer)


def time_setup(lp, wl, seed, gate, work, tracer=None):
    """One timed set-up, its result checked against the generated strings."""
    def setup():
        with root_span(tracer, "setup"):
            return make_input(lp, wl, seed, work / "input.fa")
    t, (codes, spss) = timed(setup, tracer)
    gate.record(len(codes) == spss.num_strings
                and all(same(a, b) for a, b in zip(codes, spss.codes)),
                "loaded SPSS differs from the generated strings")
    return t, spss


def setup_step(lp, wl, seed, gate, work):
    """Set-up times for STEP_SECONDS (at least one)."""
    times, start = [], time.perf_counter()
    while not times or time.perf_counter() - start < STEP_SECONDS:
        times.append(time_setup(lp, wl, seed, gate, work)[0])
    return times


def make_context(lp, wl, seed, gate, work, tracer=None):
    """Set up once, then pack the query batches."""
    t, spss = time_setup(lp, wl, seed, gate, work, tracer)
    hi, lo = spss.kmer_word_arrays()
    rng = np.random.default_rng([seed, 2])
    idx = rng.permutation(spss.n)[:RANDOM_BATCH]
    hi_b, lo_b = hi[idx], lo[idx]
    keys = [(int(h) << 64) | int(x) for h, x in zip(hi_b[:SCALAR_KEYS], lo_b)]
    ctx = Context(lp=lp, spss=spss,
                  scheme=lp.MinimizerScheme(k=wl.k, m=wl.m, seed=seed),
                  gate=gate, work=work, batch_idx=idx, hi_b=hi_b, lo_b=lo_b,
                  keys=keys)
    return ctx, [t]


def run_untraced(lp, wl, seed, seconds, gate, work):
    ctx, setup_times = make_context(lp, wl, seed, gate, work)
    benches = [VariantBench(ctx, v) for v in VARIANTS]
    start = last = time.perf_counter()
    rounds, longest = 0, 0.0
    # stop before a round that would likely end after `seconds`
    while rounds < MIN_ROUNDS or (rounds < MAX_ROUNDS and
                                  last + longest - start <= seconds):
        setup_times += setup_step(lp, wl, seed, gate, work)
        run_round(benches[::-1] if rounds % 2 else benches, ROUND)
        rounds += 1
        now = time.perf_counter()
        longest, last = max(longest, now - last), now
    metrics = {"setup_s": statistics.median(setup_times), "peak_rss_mib": peak_rss_mib()}
    details = {"rounds": rounds, "setup_s": {"samples": len(setup_times),
                                             "min": min(setup_times)}}
    for b in benches:
        metrics.update(b.metrics(b.samples))
        details.update(b.details())
    return metrics, details, ctx


def run_traced(lp, wl, seed, gate, work):
    """Every operation once untraced and, right after it, once traced, so
    the overhead compares neighbouring samples."""
    tracer = Tracer()
    with installed(tracer):
        ctx, _ = make_context(lp, wl, seed, gate, work, tracer)
    benches = [VariantBench(ctx, v) for v in VARIANTS]
    for b in benches:
        tracer.register(b.f.fm, "fm")
        tracer.register(b.f.fallback, "fallback")
    run_round(benches, TRACED_ROUND, tracer)
    metrics = layer_metrics(lp, wl, tracer, {b.variant: b.f for b in benches}, gate)
    for b in benches:
        untraced = b.metrics(b.samples)
        for name, value in b.metrics(b.traced).items():
            if not name.startswith("bits_per_kmer"):
                metrics[f"trace.overhead.{name}"] = value - untraced[name]
    return metrics, ctx


def layer_metrics(lp, wl, tracer, structs, gate):
    """Per-layer metrics from the recorded spans and the built structures;
    checks on the way that span self times add up."""
    spans = tracer.spans
    selfs = self_times(spans)
    roots = roots_of(spans)
    ok = subtree_sums_ok(spans, selfs)
    checked = [i for i, s in enumerate(spans) if s.name in ("build", "stream_lookup")]
    gate.record(True, "span self times do not add up to the span", len(checked),
                failures=sum(not ok[i] for i in checked))
    unknown = sorted({s.name for s in spans if s.name.endswith(".other")})
    gate.record(not unknown, f"spans without a role: {unknown}")

    self_s, calls, keys = {}, {}, {}
    for i, s in enumerate(spans):
        name = s.name
        if name.startswith("layout.slot_params."):
            op = "stream" if spans[roots[i]].name == "stream_lookup" else "lookup"
            name = f"layout.{op}_self_s.{name.rsplit('.', 1)[1]}"
        self_s[name] = self_s.get(name, 0) + selfs[i] / 1e9
        calls[name] = calls.get(name, 0) + 1
        keys[name] = keys.get(name, 0) + s.attrs.get("keys", 0)
    last = {s.name: s.attrs for s in spans if s.attrs}
    S = lambda name: self_s.get(name, 0.0)
    scan, cen = last["minimizers.scan_spss"], last["minimizers.census"]

    m = {
        "spss.generate_s": S("spss.generate"),
        "spss.load_s": S("spss.load"),
        "minimizers.scan_s": S("minimizers.scan") + S("minimizers.scan_spss"),
        "minimizers.scan_calls": calls.get("minimizers.scan", 0),
        "minimizers.census_s": S("minimizers.census"),
        "minimizers.superkmers": scan["superkmers"],
        "minimizers.distinct": cen["distinct"],
        "minimizers.xi": cen["xi"],
        "minimizers.density": scan["superkmers"] / scan["n"],
        "theory.density": lp.density(wl.k - wl.m + 1),
        "storage.from_bytes_s": S("storage.from_bytes")
        / max(1, calls.get("storage.from_bytes", 0)),
        "trace.roots_checked": len(checked),
    }
    for role in ("fm", "fallback"):
        m[f"mphf.build_s.{role}"] = S(f"mphf.build.{role}")
        m[f"mphf.eval_s.{role}"] = S(f"mphf.eval.{role}")
        m[f"mphf.eval_keys.{role}"] = keys.get(f"mphf.eval.{role}", 0)
    m["mphf.eval_calls.fm"] = calls.get("mphf.eval.fm", 0)
    for name in ("succinct.ef_access", "succinct.select", "succinct.typeseq",
                 "succinct.intvec_get", "lookup.kmer_minimizers",
                 "lookup.stream_plan", "lookup.expand", "build.assemble_slots",
                 "build.fallback_words", "build.finish_lookup"):
        m[f"{name}_s"] = S(name)
    for v, f in structs.items():
        for op in ("stream", "lookup"):
            m[f"layout.{op}_self_s.{v}"] = S(f"layout.{op}_self_s.{v}")
        m.update(space_split(lp, wl, f, cen["xi"]))
    fp = structs["partitioned"]
    m["mphf.bits_per_key.fm"] = fp.fm.bits_per_key
    m["mphf.levels.fm"] = fp.fm.num_levels
    m["mphf.residual.fm"] = fp.fm.num_residual
    m["mphf.bits_per_key.fallback"] = fp.fallback.bits_per_key
    return m


def space_split(lp, wl, f, xi):
    """Bits/k-mer of every serialized section (with its length frame), the
    header taking the rest, next to the closed-form bound."""
    v, n = f.variant, f.n
    parts = (("fm", "L", "P", "fallback") if v == "basic" else
             ("fm", "R", "L_l", "L_r", "L_n", "P_n", "fallback"))
    bits = {p: 8 * (8 + len(getattr(f, p).to_bytes())) for p in parts}
    if v == "partitioned":
        bits["counts"] = 8 * (8 + 8 * len(f.type_counts))
    bits["header"] = 8 * len(f.to_bytes()) - sum(bits.values())
    out = {f"space.{p}_bits_per_kmer.{v}": b / n for p, b in bits.items()}
    params = lp.TheoryParams(k=wl.k, m=wl.m,
                             b=max(f.fm.bits_per_key, lp.theory.LOG2_E + 1e-9))
    bound = getattr(lp, f"space_bound_{v}")(n, params, xi=xi)
    out[f"theory.bound_bits_per_kmer.{v}"] = bound / n
    return out


# --- report ----------------------------------------------------------------------

def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def machine():
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model}


def run_workload(args):
    lp = import_program()
    e2e_units, layer_units = load_spec()
    wl = WORKLOADS[args.workload]
    gate = Gate()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=work_root))
    try:
        if args.trace:
            values, ctx = run_traced(lp, wl, args.seed, gate, work)
            units, details = layer_units, {}
        else:
            values, details, ctx = run_untraced(lp, wl, args.seed, args.seconds,
                                                gate, work)
            units = e2e_units
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    missing = [k for k in units if k not in values]
    unlisted = [k for k in values if k not in units]
    if missing or unlisted:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing "
                           f"{missing}, unlisted {unlisted}")
    for name, unit in units.items():
        line = f"{name} {values[name]:.6g} {unit}"
        if name in details:
            line += " (" + ", ".join(f"{k} {v:.6g}" for k, v in details[name].items()) + ")"
        print(line)
    frac = gate.failed / max(1, gate.attempted)
    print(f"ops_failed_frac {frac:.6g} ({gate.failed}/{gate.attempted})")
    meta = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "k": wl.k, "m": wl.m, "n": ctx.spss.n,
        "strings": ctx.spss.num_strings, "machine": machine(),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "timings": details, "ops_failed_frac": frac,
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": gate.correct, "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if gate.correct else 1


def run_all(args):
    """Every workload in its own process, one after the other."""
    code = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], check=False)
        code = code or proc.returncode
    return code


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
