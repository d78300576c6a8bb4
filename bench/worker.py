"""One workload run in a fresh interpreter: set-up, timed rounds, checks.

Started by :mod:`bench.cli` with one BLAS/OpenMP thread; prints its
record as one JSON object on the last line of standard output and
human-readable notes on standard error.

Phases:

* **set-up** (imports once, then ``SETUPS`` repetitions of the
  workload's ``setup``): ``setup_s`` is the import time plus the median
  set-up.
* **timed rounds** for ``--seconds``, with no wrappers installed: every
  host metric comes from here.  Each operation of a round is timed on
  its own; ``gc.collect()`` runs between rounds, outside the timing, so
  each round starts from the same heap.
* with ``--trace 1``, the first ``MIN_ROUNDS`` inputs again with the
  per-layer wrappers of :mod:`bench.spans` installed.  The traced work is
  the same on every run, so call counts repeat and self times compare
  across commits; its time per item against the untraced rounds is
  ``trace_overhead_x``.
* **checks** (untimed): correctness, one profiler pass, the report.

Host times are scaled to a reference machine speed.  The machine this
runs on is shared, and its speed drifts by tens of percent over minutes
as other tenants load it.  Between operations (outside their timing) the
worker runs a fixed interpreter loop, the speed probe, for about 5% of
the time spent in operations; ``speed`` is the probe's mean duration over
its nominal duration, and host rates are multiplied by it (times divided
by it).  A change to the simulator does not touch the probe, so a real
speed-up or slow-down passes through unchanged while a slower machine
cancels out.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

#: Set-up repetitions per run (the median is reported).
SETUPS = 3

#: Iterations of one speed-probe chunk, and the chunk's duration on a
#: quiet 2-core x86-64 container with Python 3.11: the reference speed.
PROBE_ITERATIONS = 40_000
PROBE_NOMINAL_S = 0.0022
#: One probe chunk per this many seconds of operations (about 5%).
PROBE_EVERY_S = 0.04

#: End-to-end metrics and their units (``BENCHMARK.json`` names them too).
E2E_UNITS = {
    "setup_s": "s",
    "host_items_s": "items/s",
    "peak_rss_mb": "MB",
    "sim_cycles_per_item": "cycles",
}

#: Per-layer metrics that are not span aggregates, with their units.
COUNT_UNITS = {
    "runtime.plan.traces": "count",
    "runtime.plan.replays": "count",
    "models.rows_per_weight_pass": "rows",
    "perf.prepared.hit_ratio": "ratio",
    "cost.memo_hit_ratio": "ratio",
    "serve.dispatches": "count",
    "serve.mean_batch_size": "items",
    "serve.utilization": "ratio",
    "serve.mean_queue_depth": "items",
    "cluster.affinity_hit_rate": "ratio",
    "cluster.interconnect_share": "ratio",
    "cluster.scale_events": "count",
    "obs.spans": "count",
    "obs.incidents": "count",
    **{f"sim_cycles.{k}": "cycles" for k in (
        "matmul", "softmax", "gelu", "layernorm", "rmsnorm", "swiglu",
        "bfp8", "fp32")},
    "unattributed_ms": "ms",
    "trace_overhead_x": "x",
}

#: The span counted as ``runtime.plan.traces`` instead of reported itself.
PLAN_TRACE_SPAN = "runtime.DecodePlan._trace"

OUT_DIR = Path(__file__).resolve().parent / "out"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    from bench.spans import TARGETS, span_name

    units = {}
    for module, qualname in TARGETS:
        name = span_name(module, qualname)
        if name != PLAN_TRACE_SPAN:
            units[f"{name}.calls"] = "count"
            units[f"{name}.self_ms"] = "ms"
    units.update(COUNT_UNITS)
    return units


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe(busy_seconds: float, samples: list[float]) -> None:
    """Speed-probe chunks in proportion to ``busy_seconds`` of work.

    A chunk is pure interpreter arithmetic on a few objects: its time
    does not depend on what the workload left in the caches, only on how
    fast the machine runs Python right now.
    """
    for _ in range(max(1, round(busy_seconds / PROBE_EVERY_S))):
        t0 = perf_counter()
        s = 0
        for i in range(PROBE_ITERATIONS):
            s += i * i
        samples.append(perf_counter() - t0)


def speed(samples: list[float]) -> float:
    """Reference speed over this machine's speed (>1 when slower)."""
    return statistics.fmean(samples) / PROBE_NOMINAL_S


def _advance(gen) -> StopIteration | None:
    """One operation of a round generator; the StopIteration at its end."""
    try:
        next(gen)
    except StopIteration as stop:
        return stop
    return None


def _clock(fn, *args):
    t0 = perf_counter()
    result = fn(*args)
    return result, perf_counter() - t0


def run_rounds(wl, seconds: float, samples: list[float],
               timer=_clock) -> tuple[list, int]:
    """Timed rounds until ``seconds`` have passed (at least ``MIN_ROUNDS``).

    ``timer`` times each operation: a bare clock, or
    :meth:`bench.spans.SpanRecorder.root` in the traced phase.  Probe
    samples go to ``samples``.  Returns ``(rounds, raised)``.
    """
    from bench.workloads import MIN_ROUNDS

    rounds = []
    start = perf_counter()
    i = 0
    while i < MIN_ROUNDS or perf_counter() - start < seconds:
        inp = wl.make_input(i)
        gc.collect()
        gen = wl.run_round(inp)
        op_seconds: list[float] = []
        try:
            while True:
                stop, dt = timer(_advance, gen)
                if stop is not None:
                    break
                op_seconds.append(dt)
                probe(dt, samples)
        except Exception:  # noqa: BLE001 - a raising op is a counted failure
            traceback.print_exc()
            return rounds, 1
        op_seconds[-1] += dt  # the tail after the last operation
        r = stop.value
        r.op_seconds = op_seconds
        if i >= MIN_ROUNDS:
            r.outputs = wl.light(r.outputs)
        rounds.append(r)
        i += 1
    return rounds, 0


def _rate(rounds: list) -> float:
    return sum(r.items for r in rounds) / sum(r.seconds for r in rounds)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _global_counters() -> dict[str, float]:
    from repro.obs.metrics import get_registry
    from repro.perf.latency import decoder_batch_unit_cycles, vit_batch_unit_cycles

    reg = get_registry()
    memo = [f.cache_info() for f in (vit_batch_unit_cycles,
                                     decoder_batch_unit_cycles)]
    return {
        "prepared_hits": reg.counter("prepared.cache.hits").value,
        "prepared_misses": reg.counter("prepared.cache.misses").value,
        "memo_hits": sum(m.hits for m in memo),
        "memo_misses": sum(m.misses for m in memo),
    }


def traced_phase(wl, untraced_rate: float):
    """``MIN_ROUNDS`` rounds with every layer wrapped.

    Returns ``(metrics, recorder, raised)``; ``untraced_rate`` is the
    speed-scaled rate of the untraced rounds.
    """
    from bench.spans import SpanRecorder

    before = {**wl.traced_state(), **_global_counters()}
    rec = SpanRecorder()
    samples: list[float] = []
    rec.install()
    try:
        rounds, raised = run_rounds(wl, 0.0, samples, timer=rec.root)
    finally:
        rec.uninstall()
    after = {**wl.traced_state(), **_global_counters()}
    delta = {k: after[k] - before.get(k, 0) for k in after}
    metrics: dict[str, float] = {}
    for name, (calls, _total, self_s) in rec.agg.items():
        if name != PLAN_TRACE_SPAN:
            metrics[f"{name}.calls"] = calls
            metrics[f"{name}.self_ms"] = 1e3 * self_s
    metrics["runtime.plan.traces"] = rec.agg[PLAN_TRACE_SPAN][0]
    metrics["runtime.plan.replays"] = delta.get("plan_replays", 0)
    metrics["models.rows_per_weight_pass"] = _ratio(
        delta.get("rows", 0), delta.get("matmuls", 0))
    metrics["perf.prepared.hit_ratio"] = _ratio(
        delta["prepared_hits"], delta["prepared_hits"] + delta["prepared_misses"])
    metrics["cost.memo_hit_ratio"] = _ratio(
        delta["memo_hits"], delta["memo_hits"] + delta["memo_misses"])
    metrics["unattributed_ms"] = 1e3 * rec.unattributed
    metrics["trace_overhead_x"] = (
        _ratio(untraced_rate, _rate(rounds) * speed(samples)) if rounds else 0.0)
    return metrics, rec, raised


def provenance(args) -> dict:
    import numpy

    return {
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "blas_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    t_import = perf_counter()
    parser = argparse.ArgumentParser(prog="python -m bench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--fail-check", action="store_true",
                        help="force one failed check (tests the failure path)")
    args = parser.parse_args(argv)

    from bench import workloads

    import_s = perf_counter() - t_import
    setup_samples: list[float] = []
    probe(import_s, setup_samples)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    setups = []
    for _ in range(1 if args.trace else SETUPS):
        t0 = perf_counter()
        wl.setup()
        setups.append(perf_counter() - t0)
        probe(setups[-1], setup_samples)

    samples: list[float] = []
    rounds, raised = run_rounds(wl, args.seconds, samples)
    rss = _peak_rss_mb()
    run_speed = speed(samples) if samples else 1.0
    record: dict = {"workload": wl.name, "item": wl.item,
                    "provenance": provenance(args)}
    metrics: dict[str, float] = {}
    if rounds:
        metrics = {
            "setup_s": (import_s + statistics.median(setups))
            / speed(setup_samples),
            "host_items_s": _rate(rounds) * run_speed,
            "peak_rss_mb": rss,
        }
        record["speed"] = {"run": run_speed, "setup": speed(setup_samples),
                           "host_items_s_unscaled": _rate(rounds)}
    rec = None
    if args.trace:
        metrics = {}
        if not raised:
            metrics, rec, raised = traced_phase(wl, _rate(rounds) * run_speed)

    checks: list[dict] = []
    if rounds:
        try:
            done = wl.finish(rounds, run_speed)
        except Exception:  # noqa: BLE001 - reported as a failed check
            traceback.print_exc()
            checks.append({"name": "check_phase", "ok": False,
                           "detail": "raised"})
        else:
            checks = done["checks"]
            record["digest"] = done["digest"]
            record["report"] = {k: {"value": v, "unit": u}
                                for k, (v, u) in done["report"].items()}
            if args.trace:
                units = per_layer_units()
                metrics.update({k: v for k, v in done["counts"].items()
                                if k in units})
                for name in units:
                    metrics.setdefault(name, 0.0)
            else:
                metrics["sim_cycles_per_item"] = done["sim"]
    if rec is not None:
        attributed = rec.self_total() + rec.unattributed
        checks.append({
            "name": "self_time_identity",
            "ok": abs(attributed - rec.root_total) <= 0.01 * rec.root_total,
            "detail": f"{attributed:.6f} s vs {rec.root_total:.6f} s",
        })
        record["top_self"] = [
            {"name": n, "calls": c, "total_ms": t, "self_ms": s}
            for n, c, t, s in rec.top(5)
        ]
        rec.write_chrome_trace(OUT_DIR / f"{wl.name}.spans.json")
    if args.fail_check:
        checks.append({"name": "forced_failure", "ok": False,
                       "detail": "--fail-check"})

    failed = raised + sum(not c["ok"] for c in checks)
    units = per_layer_units() if args.trace else E2E_UNITS
    record.update({
        "rounds": [[r.items, r.seconds] for r in rounds],
        "correct": failed == 0,
        "attempted": sum(r.ops for r in rounds) + raised + len(checks),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "checks": checks,
    })
    for c in checks:
        if not c["ok"]:
            print(f"check failed: {c['name']} {c['detail']}", file=sys.stderr)
    print(json.dumps(record))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
