"""Closed-loop timing, tracing, output digests and run context.

One client runs a workload's fixed round of operations in order, each
call only after the previous one returned.  Every operation checks its
own output exactly and renders it canonically; the renderings of one
round hash to the round digest that `golden.json` pins per seed.

Spans are recorded only at the benchmark's own call sites into the
library (see `Tracer.call`), never inside the library.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# op_tail_ms is read at a percentile fixed per workload (TAIL_PERCENTILE
# in its module); a run goes on until at least this many samples lie
# beyond it, so the percentile never changes between runs.
TAIL_MIN_BEYOND = 10

# CPU speed on the shared host drifts by tens of percent within seconds.
# Timings are scaled to a CPU that runs the calibration loop (CAL_LOOP
# iterations) in CAL_REF_S; the loop is rerun every CAL_EVERY_S.
CAL_LOOP = 1000
CAL_REF_S = 0.005
CAL_EVERY_S = 0.1


class NullTracer:
    """Untraced mode: calls go straight through."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, n=1):
        pass


class Tracer:
    """Keeps spans and counters in memory until the run ends.

    A span is (name, start, end, parent index, operation id, raised
    exception class or None); parents come from the call stack, so spans
    nest exactly as the benchmark's calls do.
    """

    enabled = True

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op_id = -1
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        raised = None
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            raised = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op_id, raised)

    def count(self, name, n=1):
        self.counts[name] += n

    def self_times(self):
        """Per-span self time: duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _, _), c in zip(self.spans, child)]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\top\traised\n")
            for k, (name, start, end, parent, op, raised) in enumerate(self.spans):
                fh.write(f"{k}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\t{raised or ''}\n")


class RoundLog:
    """Checks that every round renders identically and hashes the first."""

    def __init__(self, size):
        self.size = size
        self.first = []
        self.digest = None
        self.mismatches = 0
        self.rounds = 0
        self._pos = 0

    def add(self, text):
        if self.rounds == 0:
            self.first.append(text)
        elif text != self.first[self._pos]:
            self.mismatches += 1
        self._pos += 1
        if self._pos == self.size:
            if self.rounds == 0:
                h = hashlib.sha256()
                for t in self.first:
                    h.update(t.encode())
                    h.update(b"\n")
                self.digest = h.hexdigest()[:16]
            self.rounds += 1
            self._pos = 0


def run_op(tracer, op, fault=None):
    """Run one operation; an unexpected exception is a failed check."""
    kind, fn, args = op
    try:
        if tracer.enabled:
            return tracer.call("op:" + kind, fn, tracer, fault, *args)
        return fn(tracer, fault, *args)
    except Exception as exc:  # the op's own expected outcomes never get here
        return False, f"error:{type(exc).__name__}"


def min_ops(pct):
    return math.ceil(TAIL_MIN_BEYOND / (1.0 - pct / 100.0))


def calibrate():
    """Wall time of a fixed pure-Python loop that no library change can
    affect; it tracks the speed the CPU is running at right now.

    The loop does the kind of work the library does (Fraction arithmetic
    and comparisons, small tuples and dicts), so contention for caches
    and memory slows it about as much as it slows the workloads; a tight
    integer loop slowed less and left fiber-sweep under-corrected."""
    t = time.perf_counter()
    acc = Fraction(0)
    seen = {}
    for k in range(CAL_LOOP):
        f = Fraction(k % 13 - 6, k % 4 + 1)
        acc = acc + f if f < acc else f - acc
        seen[k % 50, f] = (acc, k)
    return time.perf_counter() - t


def interpreter_state():
    """Settings through which code can slow the whole interpreter, and
    so the calibration loop with it: scaling would hide such a slowdown."""
    return {
        "trace": sys.gettrace() is not None,
        "profile": sys.getprofile() is not None,
        "switch_interval_s": sys.getswitchinterval(),
        "threads": threading.active_count(),
        "gc_enabled": gc.isenabled(),
        "gc_threshold": gc.get_threshold(),
    }


def timed_loop(ops, seconds, log, at_least):
    """Untraced closed loop over whole rounds until `seconds` have passed
    and `at_least` operations are done, so every run measures the same
    mix of operations.

    The calibration loop runs between operations every CAL_EVERY_S.  Each
    latency is returned as measured and scaled by CAL_REF_S over the mean
    of the two calibrations around it: the time the operation would take
    on a CPU running the calibration loop in CAL_REF_S.
    """
    tracer = NullTracer()
    lat, segment, round_ends = array("d"), array("l"), []
    cals = [calibrate()]
    failed = 0
    clock = time.perf_counter
    cpu0 = time.process_time()
    t0 = clock()
    next_cal = t0 + CAL_EVERY_S
    while True:
        for op in ops:
            s = clock()
            if s >= next_cal:
                cals.append(calibrate())
                s = clock()
                next_cal = s + CAL_EVERY_S
            ok, text = run_op(tracer, op)
            lat.append(clock() - s)
            segment.append(len(cals) - 1)
            if not ok:
                failed += 1
            log.add(text)
        round_ends.append(len(lat))
        if clock() - t0 >= seconds and len(lat) >= at_least:
            break
    cpu_over_wall = (time.process_time() - cpu0) / (clock() - t0)
    rss = peak_rss_mb()
    cals.append(calibrate())
    scale = [CAL_REF_S / ((a + b) / 2.0) for a, b in zip(cals, cals[1:])]
    return {
        "latency": list(lat),
        "scaled": [x * scale[g] for x, g in zip(lat, segment)],
        "round_ends": round_ends,
        "failed": failed,
        "cpu_over_wall": cpu_over_wall,
        "calibrations": cals,
        "peak_rss_mb": rss,
    }


def round_sums(values, round_ends):
    out, start = [], 0
    for end in round_ends:
        out.append(sum(values[start:end]))
        start = end
    return out


def run_round(tracer, ops, log, fault=None, first_id=0):
    """One pass over the round; returns the number of failed checks."""
    failed = 0
    for k, op in enumerate(ops):
        tracer.op_id = first_id + k
        ok, text = run_op(tracer, op, fault)
        if not ok:
            failed += 1
        if log is not None:
            log.add(text)
    return failed


def traced_loop(ops, seconds, log):
    """Alternate one untraced and one traced round until `seconds` have
    passed (at least one pair); the untraced rounds price the tracing."""
    tracer = Tracer()
    untraced = traced = 0.0
    failed = attempted = rounds = 0
    t0 = time.perf_counter()
    while True:
        s = time.perf_counter()
        failed += run_round(NullTracer(), ops, log)
        m = time.perf_counter()
        failed += run_round(tracer, ops, log, first_id=rounds * len(ops))
        e = time.perf_counter()
        untraced += m - s
        traced += e - m
        attempted += 2 * len(ops)
        rounds += 1
        if e - t0 >= seconds:
            break
    return tracer, rounds, failed, attempted, traced / untraced - 1.0


def tail(sorted_vals, pct):
    """(nearest-rank value, samples beyond it) at percentile `pct` of an
    ascending list."""
    rank = math.ceil(pct / 100.0 * len(sorted_vals))
    return sorted_vals[max(rank, 1) - 1], len(sorted_vals) - rank


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def src_lines():
    pkg = os.path.join(ROOT, "src", "tropibary")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def context(seed, workload_name, size):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines(),
        "commit": _commit(),
        "seed": seed,
        "workload": workload_name,
        "input_size": size,
        "loop": "closed, 1 client, 1 thread, 1 process",
        "argv": sys.argv[1:],
    }


def _timed(*names):
    spec = {}
    for name in names:
        spec[name + ".calls"] = "count"
        spec[name + ".self_s"] = "s"
    return spec


CLI_SUBCOMMANDS = ("eval", "combine", "pushforward", "barycenter", "member", "approx", "lift", "ext", "counterexample")

# Per-layer metrics of a traced run, per round of the workload.  Every
# traced run reports all of them; a layer a workload never calls reads 0,
# and so does a ratio whose base is 0.
LAYER_METRICS = {
    **_timed("measures.from_weights", "measures.combine", "measures.pushforward", "measures.measure_dist"),
    "measures.atoms_built": "count",
    **_timed("core.s_point", "core.scalar", "barycenter.barycenter_point"),
    **_timed("lifting.lift_merge_fiber", "lifting.lift_s_finite", "lifting.lift_s_interval",
             "lifting.lift_s_box", "lifting.lift_beta", "lifting.witness_distance", "lifting.oracle"),
    "lifting.oracle.found_ratio": "ratio",
    "lifting.accept_ratio": "ratio",
    "lifting.rejected.self_s": "s",
    **_timed("geometry.hull_membership", "geometry.extremal_points", "geometry.certify", "geometry.recheck"),
    "geometry.hull_member_ratio": "ratio",
    "geometry.y_feasible_ratio": "ratio",
    **_timed("approximation.cover_approximation", "approximation.refinement_sweep"),
    "approximation.atoms_out_per_in": "ratio",
    **_timed("io.read_document", "io.validate_document", "io.decode", "io.encode", "io.dump_document"),
    "io.bytes_read": "B",
    "io.bytes_written": "B",
    **_timed("cli.main"),
    **{f"cli.{sub}.p50_ms": "ms" for sub in CLI_SUBCOMMANDS},
    "bench.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Ratio metrics as (numerator, denominator) counters.
RATIOS = {
    "lifting.accept_ratio": ("lifting.accepted", "lifting.attempted"),
    "lifting.oracle.found_ratio": ("lifting.oracle.found", "lifting.oracle.tried"),
    "geometry.hull_member_ratio": ("geometry.hull_members", "geometry.hull_tests"),
    "geometry.y_feasible_ratio": ("geometry.y_feasible", "geometry.y_attempted"),
    "approximation.atoms_out_per_in": ("approximation.atoms_out", "approximation.atoms_in"),
}

_REJECTIONS = {"Rejection", "OutsideValidityRegion", "InconsistentFiber", "InfeasibleBarycenter"}


def layer_metrics(tracer, rounds, overhead):
    """Every metric of LAYER_METRICS, per round, from the spans and
    counters of `rounds` traced rounds."""
    calls = Counter()
    self_s = defaultdict(float)
    rejected_self = 0.0
    op_kind = {}
    for (name, _, _, _, op, raised), st in zip(tracer.spans, tracer.self_times()):
        calls[name] += 1
        self_s[name] += st
        if name.startswith("op:"):
            op_kind[op] = name[3:]
        elif name.startswith("lifting.lift_") and raised in _REJECTIONS:
            rejected_self += st
    self_s["lifting.rejected"] = rejected_self
    self_s["bench"] = sum(v for k, v in self_s.items() if k.startswith("op:"))
    cli_lat = defaultdict(list)
    for name, start, end, _, op, _ in tracer.spans:
        if name == "cli.main":
            cli_lat[op_kind[op].split("/")[0]].append(end - start)
    c = tracer.counts
    out = {}
    for metric, unit in LAYER_METRICS.items():
        if metric == "trace.overhead_ratio":
            value = overhead
        elif metric.endswith(".calls"):
            value = calls[metric[: -len(".calls")]] // rounds
        elif metric.endswith(".self_s"):
            value = self_s[metric[: -len(".self_s")]] / rounds
        elif metric.endswith(".p50_ms"):
            lat = cli_lat["cli-" + metric.split(".")[1]]
            value = statistics.median(lat) * 1e3 if lat else 0.0
        elif metric in RATIOS:
            num, den = RATIOS[metric]
            value = c[num] / c[den] if c[den] else 0.0
        else:
            value = c[metric] // rounds
        out[metric] = {"value": value, "unit": unit}
    return out
