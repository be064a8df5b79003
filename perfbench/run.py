#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of discjet.

Run from the repository root (discjet is imported from ``src/``, never from
an installed copy):

    python3 perfbench/run.py --workload group-law --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload cli-batch --seed 1 --seconds 25 --trace 1

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` runs a fixed number of rounds three times (warm-up, untraced,
traced with per-layer spans) and reports the layer metrics.  Either way every
op is checked exactly after the timed phase.  The last line of standard
output is one JSON object; the full record, with the Python version, nproc,
seed, run length and the unscaled times, is also written to
``.bench_out/<workload>-seed<seed>-trace<t>.json``.

Times are reported at a fixed machine speed.  The speed of a shared core
drifts by up to a factor of two over minutes (another tenant's load), far
more than the regressions worth catching.  So a fixed calibration kernel --
a sparse composition over Q[e1, e2]/(e1^2, e2^2) run by ``reference``, no
discjet code, with a working set of the same order as an op's -- is timed
between ops, and each op's latency is scaled by ``CAL_NOMINAL_S`` over the
median kernel time within ``CAL_SPAN_S`` of the op.  An optimisation of
discjet leaves the kernel unchanged, so it shows in the scaled times in full.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import reference
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: set-up (fresh import plus input generation) is repeated and its median kept
SETUP_REPEATS = 3
#: reported times are those of a machine on which the kernel takes this long
CAL_NOMINAL_S = 0.004
#: the kernel runs before an op when this long has passed since its last run
CAL_EVERY_S = 0.1
#: an op's speed is the median kernel time within this many seconds of it
CAL_SPAN_S = 1.0

MODULES = ("base_ring", "series", "jet_group", "sampling", "hopf", "lie", "etale", "rep",
           "jsonio", "acceptance", "cli")


class Fatal(Exception):
    """The benchmark cannot produce a result (missing source, dead layer)."""


# -- calibration -------------------------------------------------------------------------


def _kernel_input():
    rng = random.Random(1)

    def element():
        return {
            (rng.randrange(2), rng.randrange(2)): Fraction(rng.randint(1, 9), rng.randint(1, 4))
            for _ in range(2)
        }

    def series():
        return {(rng.randint(0, 2), rng.randint(0, 2)): element() for _ in range(8)}

    return [series(), series()], [series(), series()]


_KERNEL = _kernel_input()


def calibrate() -> float:
    """Seconds one run of the fixed calibration kernel takes right now."""
    start = perf_counter()
    reference.compose(_KERNEL[0], _KERNEL[1], (2, 2), 4)
    return perf_counter() - start


def scaled(seconds: float, kernel_samples) -> float:
    return seconds * CAL_NOMINAL_S / statistics.median(kernel_samples)


def scaled_latencies(records, kernel):
    """Each op's latency at nominal speed, from the kernel samples around it.

    The kernel runs at most ``CAL_EVERY_S`` before each op and right after
    the last one, so every window holds a sample on each side of its op.
    """
    at = [t for t, _ in kernel]
    took = [k for _, k in kernel]
    out = []
    for _, _, _, latency, start in records:
        lo = bisect.bisect_left(at, start - CAL_EVERY_S - CAL_SPAN_S)
        hi = bisect.bisect_right(at, start + latency + CAL_SPAN_S)
        out.append(scaled(latency, took[lo:hi]))
    return out


# -- set-up ------------------------------------------------------------------------------


def use_source():
    """Put the checkout's ``src/`` first on the import path."""
    if not (SRC / "discjet" / "__init__.py").is_file():
        raise Fatal(f"no discjet source under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))


def load_discjet():
    """Import every discjet module afresh from ``src/`` and return them by name."""
    for key in [k for k in sys.modules if k == "discjet" or k.startswith("discjet.")]:
        del sys.modules[key]
    mods = {name: importlib.import_module(f"discjet.{name}") for name in MODULES}
    where = Path(mods["base_ring"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise Fatal(f"discjet was imported from {where}, not from {SRC}")
    return argparse.Namespace(**mods)


def set_up(workload_cls, seed: int, seconds: int):
    """Repeat import + generation; return the last workload, the median raw and
    scaled set-up times, and the scratch directory holding generated files."""
    scratch = OUT / f"work-{os.getpid()}"
    raw, scaled_times = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        kernel = [calibrate() for _ in range(3)]
        start = perf_counter()
        dj = load_discjet()
        workload = workload_cls(dj, seed, seconds, ROOT, scratch)
        took = perf_counter() - start
        kernel += [calibrate() for _ in range(3)]
        raw.append(took)
        scaled_times.append(scaled(took, kernel))
    return workload, statistics.median(raw), statistics.median(scaled_times), scratch


# -- the closed loop ---------------------------------------------------------------------


def schedule(workload):
    """Rounds in order, cycling when a fast program outruns the generated pool."""
    while True:
        yield from workload.rounds


def run_ops(workload, stop):
    """The closed loop: one caller, the next op starts when the last returns.

    ``stop(rounds_done, elapsed)`` is asked at each round boundary.  Returns
    one (op, output, error, latency, start) record per op and the kernel
    samples as (time, seconds), taken between ops at most ``CAL_EVERY_S``
    apart and once after the last op.
    """
    records, kernel = [], []
    rounds_done = 0
    start = perf_counter()
    for rnd in schedule(workload):
        for op in rnd:
            if not kernel or perf_counter() - kernel[-1][0] >= CAL_EVERY_S:
                kernel.append((perf_counter(), calibrate()))
            t0 = perf_counter()
            try:
                out, err = workload.run(op), None
            except Exception as exc:  # a failing op is counted, the run goes on
                out, err = None, exc
            records.append((op, out, err, perf_counter() - t0, t0))
        rounds_done += 1
        if stop(rounds_done, perf_counter() - start):
            break
    kernel.append((perf_counter(), calibrate()))
    return records, kernel


def verify(workload, records) -> int:
    """Check every op's output exactly; return the number of failed ops."""
    failed = 0
    for op, out, err, *_ in records:
        if err is None:
            try:
                workload.verify(op, out)
            except AssertionError as exc:
                err = exc
        if err is not None:
            if not failed:
                print(f"first failing op {op[:3]}:", file=sys.stderr)
                traceback.print_exception(type(err), err, err.__traceback__, file=sys.stderr)
            failed += 1
    return failed


def percentile(sorted_values, pct: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = pct / 100 * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def latency_metrics(latencies, tail_pct: float) -> dict:
    ordered = sorted(latencies)
    return {
        "ops_per_s": len(ordered) / sum(ordered),
        "op_p50_ms": 1000 * percentile(ordered, 50),
        "op_tail_ms": 1000 * percentile(ordered, tail_pct),
    }


def measure(workload, seconds: int):
    """The untraced timed phase and its end-to-end metrics.

    The memory peak is read after the first round: set-up plus one op of
    every kind.  Later rounds only add the outputs kept for checking, whose
    number follows the machine's speed.
    """
    peak_kb = []

    def stop(done, took):
        if done == 1:
            peak_kb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        return done >= workload.min_rounds and took >= seconds

    records, kernel = run_ops(workload, stop)
    beyond = len(records) * (1 - workload.tail_pct / 100)
    if beyond < 10:
        raise Fatal(f"only {beyond:.1f} samples beyond p{workload.tail_pct}")
    raw = [r[3] for r in records]
    adjusted = scaled_latencies(records, kernel)
    units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms"}
    metrics = {k: (v, units[k]) for k, v in latency_metrics(adjusted, workload.tail_pct).items()}
    metrics["peak_rss_mb"] = (peak_kb[0] / 1024, "MB")
    extra = {
        "ops": len(records),
        "tail_pct": workload.tail_pct,
        "op_s": sum(raw),
        "kernel_median_s": statistics.median(k for _, k in kernel),
        "unscaled": latency_metrics(raw, workload.tail_pct),
    }
    return records, metrics, extra


def measure_traced(workload, rounds: int):
    """The same ``rounds`` three times: warm-up, untraced, traced.

    The warm-up pays first-call costs (lazy caches, allocator growth) so that
    the untraced and traced passes differ only by the tracing.  A layer in
    the workload's ``carriers`` that records no calls means the trace is
    broken, and the run fails.
    """

    def fixed(done, took):
        return done >= rounds

    warm, _ = run_ops(workload, fixed)
    plain, plain_kernel = run_ops(workload, fixed)
    with tracing.Tracer() as tracer:
        traced, traced_kernel = run_ops(workload, fixed)
    untraced_s = sum(scaled_latencies(plain, plain_kernel))
    traced_s = sum(scaled_latencies(traced, traced_kernel))
    values = tracer.metrics(sum(r[3] for r in traced), traced_s / untraced_s)
    dead = [name for name in workload.carriers if values[f"{name}.calls"] == 0]
    if dead:
        raise Fatal(f"layers meant to carry {workload.name} recorded no calls: {dead}")
    units = {name: unit for name, unit, _ in tracing.metric_names()}
    metrics = {name: (value, units[name]) for name, value in values.items()}
    extra = {"ops": len(traced), "untraced_scaled_s": untraced_s, "traced_scaled_s": traced_s}
    return warm + plain + traced, metrics, extra


# -- the command -------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    scratch = None
    try:
        use_source()
        workload, setup_raw, setup_s, scratch = set_up(
            WORKLOADS[args.workload], args.seed, args.seconds
        )
        if args.trace:
            records, metrics, extra = measure_traced(workload, workload.trace_rounds)
        else:
            records, metrics, extra = measure(workload, args.seconds)
            metrics["setup_s"] = (setup_s, "s")
            extra["unscaled"]["setup_s"] = setup_raw
        failed = verify(workload, records)
    except Fatal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)

    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "fail_ratio": failed / len(records),
        **extra,
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    print(" ".join(
        f"{k}={json.dumps(v)}" for k, v in record.items() if k != "result"
    ))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
