"""Benchmark of the tropibary library: four seeded closed-loop workloads.

    python3 bench/run.py --workload fiber-sweep --seed 7 --seconds 15 --trace 0
    python3 bench/run.py --workload all            # every workload, one table
    python3 bench/run.py --selftest                # fault injection proves the checks
    python3 bench/run.py --write-golden            # re-record golden.json

Untraced runs (--trace 0) report the end-to-end metrics; traced runs
(--trace 1) report per-layer metrics per round of the workload, plus the
tracing overhead.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  Everything the run writes
goes under bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import harness  # noqa: E402  (standard library only)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
GOLDEN = os.path.join(HERE, "golden.json")

WORKLOADS = {
    "fiber-sweep": "fiber_sweep",
    "lift-mix": "lift_mix",
    "certify-geometry": "certify_geometry",
    "cli-docs": "cli_docs",
}
DEFAULT_SEED = 7
# golden.json pins the round digest of seeds 0..GOLDEN_SEEDS-1.
GOLDEN_SEEDS = 40
# Operations run before the clock starts: loads schemas, fills caches.
WARMUP_OPS = 8
# Set-up is measured this many times per run (this process plus fresh
# child processes that stop after set-up); the median is reported.
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120
# Calibrations taken before the library is imported; the timed phase's
# median over their median goes into the context.
CAL_BEFORE_IMPORT = 5
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB"}


def _fail(message):
    sys.stderr.write(f"bench: {message}\n")
    sys.exit(2)


def _import_workload(name):
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        return __import__(WORKLOADS[name])
    except ImportError as exc:
        _fail(f"cannot import the library: {exc}")


def _setup(name, seed, workdir):
    """Import, seeded input generation and warm-up.  Returns what the
    timed phase needs, the interpreter state and calibration time before
    the import, and the set-up time from process start with the
    calibration time measured right after it."""
    state = harness.interpreter_state()
    before_import = statistics.median(harness.calibrate() for _ in range(CAL_BEFORE_IMPORT))
    module = _import_workload(name)
    ops, size = module.build(seed, workdir)
    warm = harness.NullTracer()
    for op in ops[:WARMUP_OPS]:
        harness.run_op(warm, op)
    setup = time.perf_counter() - _STARTED
    return module, ops, size, (state, before_import), (setup, harness.calibrate())


def _child_setups(args):
    """(set-up, calibration) times of fresh processes that stop after set-up."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            _fail(f"set-up child failed: {proc.stderr.strip()}")
        times.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])))
    return times


def _golden(name, seed):
    try:
        with open(GOLDEN, encoding="utf-8") as fh:
            return json.load(fh).get(name, {}).get(str(seed))
    except FileNotFoundError:
        return None


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(timing, setups, per_round, pct, before_import, ctx):
    """End-to-end metrics from the scaled times, and the samples beyond
    the tail percentile; the unscaled values go into the context."""

    def summary(lat, setup):
        ordered = sorted(lat)
        tail, beyond = harness.tail(ordered, pct)
        return {
            "setup_s": setup,
            "ops_per_s": per_round / statistics.median(harness.round_sums(lat, timing["round_ends"])),
            "op_p50_ms": statistics.median(ordered) * 1e3,
            "op_tail_ms": tail * 1e3,
        }, beyond

    scaled_setup = statistics.median(s * harness.CAL_REF_S / c for s, c in setups)
    values, beyond = summary(timing["scaled"], scaled_setup)
    ctx["unscaled"], _ = summary(timing["latency"], statistics.median(s for s, _ in setups))
    cals = timing["calibrations"]
    ctx["calibration_ms"] = {
        "reference": harness.CAL_REF_S * 1e3,
        "before_import": before_import * 1e3,
        "median_over_before_import": statistics.median(cals) / before_import,
        "median": statistics.median(cals) * 1e3,
        "min": min(cals) * 1e3,
        "max": max(cals) * 1e3,
        "count": len(cals),
    }
    ctx["cpu_over_wall"] = timing["cpu_over_wall"]
    ctx["round_s"] = harness.round_sums(timing["latency"], timing["round_ends"])
    values["peak_rss_mb"] = timing["peak_rss_mb"]
    return {name: _metric(value, UNITS[name]) for name, value in values.items()}, beyond


def run_workload(args):
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=OUT_DIR) as workdir:
        module, ops, size, (state, before_import), setup_main = _setup(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps(setup_main))
            return 0
        setups = [setup_main] + _child_setups(args)
        # The generated inputs live for the whole run; keep the cyclic
        # collector from rescanning them in the timed phase.
        gc.collect()
        gc.freeze()
        log = harness.RoundLog(len(ops))
        if args.trace:
            tracer, rounds, failed, attempted, overhead = harness.traced_loop(ops, args.seconds, log)
        else:
            pct = module.TAIL_PERCENTILE
            timing = harness.timed_loop(ops, args.seconds, log, harness.min_ops(pct))
            if harness.interpreter_state() != state:
                # Scaled times would hide this slowdown: it slows the calibration loop too.
                _fail(f"the library changed the interpreter's settings from {state} to "
                      f"{harness.interpreter_state()}; scaled times would hide the slowdown")
            failed = timing["failed"]
            attempted = len(timing["latency"])

    golden = _golden(args.workload, args.seed)
    digest_ok = log.mismatches == 0 and (golden is None or golden == log.digest)
    ctx = harness.context(args.seed, args.workload, size)
    ctx["digest"] = {
        "round": log.digest,
        "golden": golden or "not recorded for this seed",
        "matches": digest_ok,
        "rounds_compared": log.rounds,
        "round_mismatches": log.mismatches,
    }
    ctx["setup_s_each"] = [s for s, _ in setups]
    ctx["fail_ratio"] = failed / attempted
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
             f"({len(ops)} ops per round, closed loop, 1 client)"]

    if args.trace:
        metrics = harness.layer_metrics(tracer, rounds, overhead)
        ctx["traced_rounds"] = rounds
        spans_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.spans.tsv")
        tracer.write(spans_path)
        ctx["spans_file"] = os.path.relpath(spans_path, ROOT)
        ctx["spans"] = len(tracer.spans)
        for name, m in metrics.items():
            lines.append(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    else:
        metrics, beyond = _end_to_end(timing, setups, len(ops), pct, before_import, ctx)
        ctx["op_tail"] = {"percentile": pct, "samples_beyond": beyond, "samples": attempted}
        for name, m in metrics.items():
            note = f"  (p{pct:g}, {beyond} of {attempted} samples beyond)" if name == "op_tail_ms" else ""
            lines.append(f"  {name:12s} {m['value']:.6g} {m['unit']}{note}")
        lines.append(f"  {'fail_ratio':12s} {failed / attempted:.6g} ratio  ({failed} of {attempted} checks failed)")
    lines.append(f"  digest {log.digest}  golden {golden or 'not recorded'}  "
                 f"{'ok' if digest_ok else 'MISMATCH'}  ({log.rounds} rounds, {log.mismatches} op mismatches)")

    result = {
        "correct": failed == 0 and digest_ok,
        "attempted": attempted,
        "failed": failed + (0 if digest_ok else 1),
        "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"context": ctx, **result}, fh, indent=2, sort_keys=True)
    print("\n".join(lines))
    print("context " + json.dumps(ctx, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in a fresh process, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=180, check=False,
        )
        if proc.returncode != 0:
            _fail(f"{name} failed: {proc.stderr.strip()}")
        out = proc.stdout.strip().splitlines()
        print("\n".join(line for line in out[:-1] if not line.startswith("context ")))
        result = json.loads(out[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def selftest():
    """Lower one weight of each lifted measure by 1/16 before the checks.

    The checks must then fail (fail_ratio above 0) and must not fail
    without the nudge.  A nudge of a weight that the recombination never
    sees (dominated in a max) leaves an exact witness, which rightly
    passes, so failures can be fewer than nudges."""
    _import_workload("fiber-sweep")
    from common import Fault

    ok = True
    for name in ("fiber-sweep", "lift-mix"):
        module = _import_workload(name)
        ops, _ = module.build(DEFAULT_SEED, None)
        ops = ops[:400]
        clean = harness.run_round(harness.NullTracer(), ops, None)
        fault = Fault()
        broken = harness.run_round(harness.NullTracer(), ops, None, fault)
        passed = clean == 0 and 0 < broken <= fault.nudged
        ok = ok and passed
        print(f"selftest {name}: {fault.nudged} witnesses nudged by -1/16, {broken} failed checks "
              f"(fail_ratio {broken / len(ops):.4f}), {clean} without the fault -> {'ok' if passed else 'FAILED'}")
    return 0 if ok else 1


def write_golden():
    """Record the round digest of seeds 0..GOLDEN_SEEDS-1 (and the default seed)."""
    golden = {}
    seeds = sorted(set(range(GOLDEN_SEEDS)) | {DEFAULT_SEED})
    for name in WORKLOADS:
        module = _import_workload(name)
        golden[name] = {}
        for seed in seeds:
            os.makedirs(OUT_DIR, exist_ok=True)
            with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=OUT_DIR) as workdir:
                ops, _ = module.build(seed, workdir)
                log = harness.RoundLog(len(ops))
                failed = harness.run_round(harness.NullTracer(), ops, log)
            if failed:
                _fail(f"{name} seed {seed}: {failed} failed checks; not recording")
            golden[name][str(seed)] = log.digest
        print(f"{name}: {len(seeds)} seeds recorded")
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "tropibary")):
        _fail(f"no library sources at {SRC}; run from a full checkout")
    if args.selftest:
        return selftest()
    if args.write_golden:
        return write_golden()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
