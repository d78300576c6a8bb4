"""Flight-recorder overhead bench: disabled ~0%, enabled bounded.

The recorder follows the same null-object discipline as the rest of the
observability stack: every dispatcher hook is guarded by one
``recorder.enabled`` attribute read, so :data:`NULL_RECORDER` must cost
nothing measurable.  The *enabled* steady-state path — ring appends plus
a few EWMA float ops per event, no incident firing — is the always-on
cost the tentpole budgets at a few percent; this bench measures both
against the committed artifact and proves recording never steers the
simulation (identical serving summaries).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.obs.anomaly import AnomalyConfig
from repro.obs.recorder import NULL_RECORDER, FlightRecorder, RecorderConfig
from repro.serve.dispatcher import ServeConfig, simulate
from repro.serve.request import TrafficConfig, poisson_trace

SEED = 0
N_REQUESTS = 2000
TRAFFIC = TrafficConfig(rate_rps=1500.0, vit_fraction=0.1)

#: Thresholds high enough that steady-state traffic never triggers —
#: the bench measures the always-on recording cost, not bundle writes.
QUIET = AnomalyConfig(latency_z=1e9, queue_z=1e9, burn_threshold=1e9)


def _run(trace, *, recorded: bool):
    cfg = ServeConfig()
    if recorded:
        recorder = FlightRecorder(RecorderConfig(anomaly=QUIET))
    else:
        recorder = NULL_RECORDER
    return simulate(trace, cfg, recorder=recorder), recorder


def _paired_rates(trace, *, runs: int = 5):
    """Best wall rate for each mode, *interleaved* per round.

    Consecutive same-mode runs let shared-machine load drift bias the
    comparison by more than the effect being measured; alternating
    off/on inside each round means both modes sample the same noise.
    """
    best = {False: 0.0, True: 0.0}
    reports, recorder = {}, None
    for _ in range(runs):
        for recorded in (False, True):
            t0 = time.perf_counter()
            report, rec = _run(trace, recorded=recorded)
            dt = time.perf_counter() - t0
            best[recorded] = max(best[recorded], len(trace) / dt)
            reports[recorded] = report
            if recorded:
                recorder = rec
    return best[False], best[True], reports[False], reports[True], recorder


def _core_summary(summary: dict) -> dict:
    """The simulation outcome minus recorder-only keys."""
    return {k: v for k, v in summary.items() if k != "recorder"}


def test_recorder_overhead(save_report, bench_artifact):
    """Recording must observe the hot loop, not bend it.

    Gated four ways: the recorded and unrecorded runs must produce an
    identical serving summary (recording never steers the simulation),
    steady-state recording must not fire a single incident, and the
    disabled rate must stay within a conservative margin of the
    committed artifact's previous measurement and clear an absolute
    floor.
    """
    trace = poisson_trace(N_REQUESTS, TRAFFIC, seed=SEED)
    _run(trace, recorded=False)  # warm numpy + allocator
    _run(trace, recorded=True)

    off_rate, on_rate, off_report, on_report, recorder = _paired_rates(trace)
    overhead = off_rate / on_rate - 1.0

    assert _core_summary(off_report.summary) == \
        _core_summary(on_report.summary), (
            "flight recording changed the simulation outcome"
        )
    assert not recorder.incidents, (
        "steady-state traffic fired an incident at quiet thresholds"
    )
    rs = on_report.summary["recorder"]

    baseline_path = (Path(__file__).parent.parent / "results"
                     / "BENCH_recorder_overhead.json")
    base_rate = vs_baseline = None
    if baseline_path.exists():
        base = json.loads(baseline_path.read_text())
        base_rate = base["summary"].get("requests_per_sec_disabled")
        if base_rate:
            vs_baseline = off_rate / base_rate - 1.0

    lines = [
        f"serving sim, {N_REQUESTS} requests @ {TRAFFIC.rate_rps:g} req/s "
        f"(seed {SEED}), best of 5 interleaved rounds:",
        f"recorder disabled: {off_rate:10.1f} requests/sec (wall)",
        f"recorder enabled:  {on_rate:10.1f} requests/sec "
        f"({overhead * 100:+.1f}% slower; rings "
        f"{rs['ring_sizes']['requests']}/{rs['ring_sizes']['metrics']}/"
        f"{rs['ring_sizes']['decisions']} entries, 0 incidents)",
        "identical serving summaries: True",
    ]
    if base_rate is not None:
        lines.append(
            f"disabled vs committed baseline: {off_rate:.1f} vs "
            f"{base_rate:.1f} requests/sec ({vs_baseline * 100:+.1f}%)"
        )
    save_report("recorder_overhead", "\n".join(lines))
    bench_artifact("recorder_overhead", {
        "n_requests": N_REQUESTS,
        "rate_rps": TRAFFIC.rate_rps,
        "requests_per_sec_disabled": off_rate,
        "requests_per_sec_enabled": on_rate,
        "enabled_overhead_fraction": overhead,
        "baseline_requests_per_sec_disabled": base_rate,
        "disabled_vs_baseline_fraction": vs_baseline,
    }, seed=SEED)

    # Same conservative 20% margin as the obs-overhead gate: wall-clock
    # rates on a shared machine swing +-15% run to run.
    if base_rate is not None:
        assert off_rate > base_rate * 0.80, (
            f"disabled recorder cost {-vs_baseline * 100:.1f}% serving "
            "throughput vs committed baseline"
        )
    # Absolute floor: 0.9 x 8,000 req/s, ~3x below the dev reference
    # (~23k), so only a disabled path gone hot trips it.
    assert off_rate >= 8000.0 * 0.9, (
        f"recorder-disabled serving at {off_rate:.0f} req/s, floor 7200")
