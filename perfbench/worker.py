"""One benchmark process: set up a workload, signal READY, run it, report JSON.

Started by run.py as ``python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE
MODE`` from the root of a checkout, with ``src`` on PYTHONPATH.  In mode
``setup`` the process exits right after READY, so run.py can time set-up
several times.  In mode ``run`` it runs one closed loop (one client, the next
op starts when the previous one and its check are done) for SECONDS and, with
TRACE 1, a traced phase after it.  The last stdout line is a JSON summary.
"""

import copy
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg as sla

import tracegeo
import tracing
import workloads as wl
from tracegeo import verify as tg_verify
from tracegeo.errors import TraceGeoError

OUT_DIR = Path(".bench_out")
TRACE_PASSES = 5
IMPORT_LINE = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)")


class Tally:
    """Outcome of every op of one phase, kept per pool slot.

    A slot's time is the fastest of its repeats: a shared VM can switch
    between a fast and a ~70% slower speed on sub-second scales, so a slot's
    minimum measures the program while its mean also measures the neighbours.
    Outcomes are counted per slot too: a slot is attempted once it ran and
    failed once any repeat of it failed.  The counts then depend on the seed
    alone, not on how many rounds the host's speed allowed.
    """

    def __init__(self, pool_size):
        self.runs = 0  # ops run, repeats included
        self.worst_ratio = 0.0  # over the ops whose check gave a finite ratio
        self.best_ns = [None] * pool_size
        self.failing = set()  # slots whose op failed at least once
        self.wrong = set()  # slots that returned a wrong output or raised an untyped error

    @property
    def attempted(self):
        return sum(ns is not None for ns in self.best_ns)

    @property
    def failed(self):
        return len(self.failing)

    @property
    def incorrect(self):
        return len(self.wrong)

    def record(self, slot, ns, ratio):
        self.runs += 1
        if ratio is None or not ratio <= 1.0:  # a NaN ratio fails too
            self.failing.add(slot)
            if ratio is not None:
                self.wrong.add(slot)
        if ratio is not None and math.isfinite(ratio):
            self.worst_ratio = max(self.worst_ratio, ratio)
        best = self.best_ns[slot]
        self.best_ns[slot] = ns if best is None else min(best, ns)

    def slots(self):
        """(slot, best ms) of every slot that ran and always passed."""
        return [(i, ns * 1e-6) for i, ns in enumerate(self.best_ns)
                if ns is not None and i not in self.failing]

    def ops_per_s(self):
        """Passing ops over the summed best time of every slot that ran, failing ones too."""
        ran = [ns for ns in self.best_ns if ns is not None]
        return len(self.slots()) / (sum(ran) * 1e-9) if ran else 0.0

    def scaled(self, factor):
        out = copy.copy(self)
        out.best_ns = [None if ns is None else ns * factor for ns in self.best_ns]
        return out


class Reference:
    """Fixed work that never calls tracegeo; its times say how fast the machine ran.

    Op times are scaled to the speed at which the work takes ``nominal_ms``,
    so that a slow or fast spell of the host does not read as a change of the
    program.  The factor is taken once per run and applied to every op of it.
    A change to tracegeo cannot move the work, so a gain or a loss of the
    program still shows in full.
    """

    def __init__(self, work, nominal_ms, every_s=0.25):
        self._work = work
        self.nominal_ms = nominal_ms
        self.every_s = every_s
        self.times_ns = []
        self._next = 0.0

    def run(self):
        t0 = time.perf_counter_ns()
        self._work()
        self.times_ns.append(time.perf_counter_ns() - t0)

    def tick(self):
        """Run the work if ``every_s`` has passed since it last ran; call between ops."""
        if time.perf_counter() >= self._next:
            self.run()
            self._next = time.perf_counter() + self.every_s

    def factor(self, repeats):
        """Nominal over the work's time at the quantile of an op's fastest of ``repeats`` runs.

        The fastest of k runs sits at about the 1/(k+1) quantile of an op's
        times, so reading the work at that quantile compares the two at the
        same luck with the host's speed spells.  Multiply a time by the
        factor, divide a rate by it.
        """
        times = sorted(self.times_ns)
        return self.nominal_ms / (times[int(len(times) / (repeats + 1.0))] * 1e-6)


def compute_reference():
    """numpy, scipy and interpreter work on fixed matrices: the yardstick of arcs and verify ops.

    Read every 0.05 s rather than every 0.25 s, its factor tracked the ops
    better: over the same six runs each, spreads of 0.02-0.06 against
    0.06-0.16 on arcs and 0.02-0.07 against 0.08-0.12 on verify.
    """
    rng = np.random.default_rng(0)
    mats = [rng.uniform(-1.0, 1.0, (n, n)) + n * np.eye(n) for n in (2, 3, 4, 6)]

    def work():
        for M in mats:
            np.linalg.svd(M, compute_uv=False)
            np.linalg.solve(M, M.T)
            np.linalg.eigvals(M)
            sla.expm(0.1 * M)
            sla.logm(M)
        total = 0
        for i in range(5000):
            total += i * i

    return Reference(work, 10.0, every_s=0.05)


def start_reference(env):
    """A bare ``python -c pass``: the yardstick of CLI ops, which are mostly process start.

    The compute mix tracks process start poorly: in one slow spell of the host
    the mix slowed by ~40% and the start and imports of set-up by ~15%.
    """
    return Reference(lambda: subprocess.run([sys.executable, "-c", "pass"], env=env, check=True),
                     50.0)


def micro_reference():
    """A 3x3 inverse and product, read every 5 ms: the yardstick of fields ops.

    ``fields`` ops take 17 us to 1.8 ms, so their fastest repeats catch brief
    fast spells of the host that the 10 ms compute mix cannot; scaled by the
    mix, their spread widened.  Work as short as the ops, read as often,
    tracks them: over five runs, one of them through a spell 1.7x slower than
    the rest, it narrowed the spread of ``p50_ms`` from 0.42 to 0.04.
    """
    rng = np.random.default_rng(0)
    M = rng.uniform(-1.0, 1.0, (3, 3)) + 3.0 * np.eye(3)

    def work():
        np.linalg.inv(M)
        np.trace(M @ M)

    return Reference(work, 0.012, every_s=0.005)


def make_reference(workload, env):
    if workload == "cli":
        return start_reference(env)
    return micro_reference() if workload == "fields" else compute_reference()


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def run_one(op, call=None):
    """Time one op, then check it. Returns (ns, ratio); ratio None when it raised."""
    t0 = time.perf_counter_ns()
    try:
        out = (call or op.call)()
    except TraceGeoError:
        return time.perf_counter_ns() - t0, None
    except Exception as exc:  # an untyped failure is a wrong output, not a refusal
        print(f"untyped failure in {op.label}: {exc!r}", file=sys.stderr)
        return time.perf_counter_ns() - t0, math.inf
    ns = time.perf_counter_ns() - t0
    try:
        return ns, op.check(out)
    except Exception as exc:  # an output its check cannot read is a wrong output
        print(f"unreadable output of {op.label}: {exc!r}", file=sys.stderr)
        return ns, math.inf


def closed_loop(ops, seconds, reference):
    """Run whole rounds of the pool until ``seconds`` have passed; returns the unscaled tally.

    The round in progress at the deadline is finished, so every slot runs at
    least once, and as often as every other.  ``reference`` ticks between ops.
    """
    tally = Tally(len(ops))
    deadline = time.perf_counter() + seconds
    while True:
        for slot, op in enumerate(ops):
            reference.tick()
            ns, ratio = run_one(op)
            tally.record(slot, ns, ratio)
        if time.perf_counter() >= deadline:
            return tally


def build(workload, seed, workdir, runner):
    if workload == "arcs":
        return wl.build_arcs(seed)
    if workload == "fields":
        return wl.build_fields(seed)
    if workload == "verify":
        return wl.build_verify(seed)
    return wl.build_cli(seed, workdir, runner)


def warm(ops):
    """Run the first op of each label once, so lazy imports and caches fill before timing."""
    seen = set()
    for op in ops:
        if op.label not in seen:
            seen.add(op.label)
            run_one(op)


def end_to_end(workload, tally):
    lat = sorted(ms for _, ms in tally.slots())
    usage = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "incorrect": tally.incorrect,
        "worst_ratio": tally.worst_ratio,
        "samples": len(lat),
        "ops_per_s": tally.ops_per_s(),
        "p50_ms": statistics.median(lat) if lat else 0.0,
        "tail_ms": percentile(lat, wl.TAIL_PERCENTILE[workload]) if lat else 0.0,
        "tail_percentile": wl.TAIL_PERCENTILE[workload],
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
    }


def label_p50(ops, tally, labels):
    by_label = {label: [] for label in labels}
    for i, ms in tally.slots():
        by_label[ops[i].label].append(ms)
    return {label: statistics.median(ms) if ms else 0.0 for label, ms in by_label.items()}


def suite_totals(ops, tally):
    """Per suite, the summed best time of its pool ops: ms per pass."""
    totals = dict.fromkeys(tg_verify.SUITES, 0.0)
    for i, ms in tally.slots():
        totals[ops[i].label] += ms
    return totals


def traced_in_process(ops, tracer, reference):
    """TRACE_PASSES traced passes over the pool, with ``reference`` ticking between ops.

    Returns per-pass layer stats, the unscaled tally, and the number of
    verify checks in one pass.
    """
    tally = Tally(len(ops))
    bounds = []
    cases = []  # verify reports of the first pass: the number of suite checks

    def call(op):
        out = tracer.run_op(op.label, op.call)
        if isinstance(out, dict) and not bounds:
            cases.append(out["cases"])
        return out

    tracer.install()
    try:
        for _ in range(TRACE_PASSES):
            lo = len(tracer.spans)
            for slot, op in enumerate(ops):
                reference.tick()  # outside any op span, so not recorded
                ns, ratio = run_one(op, lambda op=op: call(op))
                tally.record(slot, ns, ratio)
            bounds.append((lo, len(tracer.spans)))
    finally:
        tracer.uninstall()
    stats = [tracing.layer_stats(tracer.spans, lo, hi) for lo, hi in bounds]
    return stats, tally, sum(cases)


def parse_importtime(stderr):
    """Cumulative import ms of numpy, scipy.linalg and tracegeo (net of the first two)."""
    first = {}
    for m in IMPORT_LINE.finditer(stderr):
        first.setdefault(m.group(2), int(m.group(1)) * 1e-3)
    numpy_ms = first.get("numpy", 0.0)
    scipy_ms = first.get("scipy.linalg", 0.0)
    return numpy_ms, scipy_ms, max(0.0, first.get("tracegeo", 0.0) - numpy_ms - scipy_ms)


def traced_cli(ops, runner, tracer, start):
    """One pass with ``-X importtime`` children, the ``start`` reference ticking between them.

    Returns the unscaled tally, the fastest bare interpreter start of the
    run, the median import times, and the median time outside interpreter
    start and imports.
    """
    tally = Tally(len(ops))
    imports, ns_ok = [], []
    runner.flags = ("-X", "importtime")
    try:
        for slot, op in enumerate(ops):
            holder = {}

            def call(op=op, holder=holder):
                holder["out"] = tracer.run_op(op.label, op.call)
                return holder["out"]

            start.tick()
            ns, ratio = run_one(op, call)
            tally.record(slot, ns, ratio)
            if "out" in holder:
                imports.append(parse_importtime(holder["out"][2]))
                ns_ok.append(ns)
    finally:
        runner.flags = ()
    interp_ms = min(start.times_ns) * 1e-6
    work = [ns * 1e-6 - interp_ms - sum(parts) for ns, parts in zip(ns_ok, imports)]
    columns = [statistics.median(c) for c in zip(*imports)] or [0.0] * 3
    return tally, interp_ms, columns, statistics.median(work) if work else 0.0


def layer_metrics(workload, ops, raw, scaled, traced, stats, checks, cli_parts, factor):
    """Per-layer metrics; ``raw`` is the untraced tally unscaled, ``scaled`` and ``traced`` are scaled."""
    m = {}
    per_pass = len(ops)
    for name in tracing.TRACED_NAMES:
        if name == "verify.run_suite":
            continue
        calls = [s[0][name] for s in stats] or [0]
        self_ms = [s[1][name] * 1e-6 for s in stats] or [0.0]
        m[f"{name}.calls"] = (statistics.median(calls), "count")
        m[f"{name}.self_ms"] = (statistics.median(self_ms), "ms")
    for name in ("logm", "svd"):
        m[f"L0.{name}.calls_per_op"] = (m[f"L0.{name}.calls"][0] / per_pass, "count/op")
    classify = m["geodesy.classify_arc.calls"][0]
    profiles = statistics.median([s[2] for s in stats]) if stats else 0
    m["geodesy.classify_arc.profiles_per_call"] = (profiles / classify if classify else 0.0,
                                                    "count/call")
    p50 = label_p50(ops, raw, wl.ARC_CLASSES) if workload == "arcs" else {}
    for cls in wl.ARC_CLASSES:
        m[f"arcs.{cls}.p50_ms"] = (p50.get(cls, 0.0), "ms")
    totals = suite_totals(ops, raw) if workload == "verify" else {}
    for suite in tg_verify.SUITES:
        m[f"verify.{suite}.total_ms"] = (totals.get(suite, 0.0), "ms")
    m["verify.checks"] = (checks, "count")
    interp, (numpy_ms, scipy_ms, tracegeo_ms), work = cli_parts
    m["cli.interp_ms"] = (interp, "ms")
    m["cli.import.numpy_ms"] = (numpy_ms, "ms")
    m["cli.import.scipy_linalg_ms"] = (scipy_ms, "ms")
    m["cli.import.tracegeo_ms"] = (tracegeo_ms, "ms")
    m["cli.work_ms"] = (work, "ms")
    m["check.worst_err_ratio"] = (max(raw.worst_ratio, traced.worst_ratio), "ratio")
    m["trace.untraced_ops_per_s"] = (scaled.ops_per_s(), "1/s")
    m["trace.traced_ops_per_s"] = (traced.ops_per_s(), "1/s")
    m["trace.speed_factor"] = (factor, "ratio")  # per-layer times are unscaled
    return m


def blas_version():
    try:
        deps = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{deps['name']} {deps['version']}"
    except (AttributeError, KeyError):
        return "unknown"


def main(argv):
    workload, seed, seconds, trace, mode = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    warnings.simplefilter("ignore")  # e.g. logm's accuracy warning; checks judge the output
    env = dict(os.environ)
    runner = wl.CliRunner(env)
    workdir = OUT_DIR / f"cli-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ops = build(workload, seed, workdir, runner)
        if workload != "cli":
            warm(ops)
        print("READY", flush=True)
        if mode == "setup":
            return
        reference = make_reference(workload, env)
        raw = closed_loop(ops, seconds, reference)
        if trace:
            tracer = tracing.Tracer()
            if workload == "cli":
                traced, *cli_parts = traced_cli(ops, runner, tracer, reference)
                stats, checks = [], 0
            else:
                stats, traced, checks = traced_in_process(ops, tracer, reference)
                cli_parts = (0.0, (0.0, 0.0, 0.0), 0.0)
        factor = reference.factor(raw.runs / len(ops))
        scaled = raw.scaled(factor)
        result = end_to_end(workload, scaled)
        result["factor"] = factor
        result["repeats"] = raw.runs // len(ops)
        result["raw"] = end_to_end(workload, raw)
        result["provenance"] = {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": blas_version(),
            "tracegeo": tracegeo.__version__,
        }
        failing = raw.failing | traced.failing if trace else raw.failing
        result["failing"] = [f"{ops[i].label}#{i}" for i in sorted(failing)]
        if trace:
            traced = traced.scaled(factor)
            result["failed"] = len(failing)
            result["incorrect"] = len(raw.wrong | traced.wrong)
            result["layers"] = layer_metrics(workload, ops, raw, scaled, traced, stats,
                                             checks, cli_parts, factor)
            spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
            tracer.write(spans_path, {"workload": workload, "seed": seed})
            result["spans_path"] = str(spans_path)
            result["spans"] = len(tracer.spans)
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
