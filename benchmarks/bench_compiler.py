"""Compiler/system bench: full DeiT-Small schedule and multi-unit dispatch."""

import pytest

from repro.hw.system import Job, MultiUnitSystem
from repro.models.configs import DEIT_SMALL
from repro.perf.latency import measured_bfp_stream_cycles, measured_bfp_throughput_ops
from repro.runtime.scheduler import compile_vit


def test_compile_deit_small(benchmark, save_report, bench_artifact):
    model = benchmark(compile_vit, DEIT_SMALL)
    lines = [
        f"stages: {len(model.stages)}",
        f"latency (15 units): {model.latency_seconds() * 1e3:.3f} ms",
        f"fp32 latency share: {model.fp32_latency_share():.3f}",
    ]
    for r in model.workload_split():
        lines.append(
            f"  {r['name']:20s} ops={r['ops'] / 1e6:9.1f}M "
            f"({r['ops_pct']:6.2f}%) lat={r['latency_s'] * 1e3:8.3f}ms "
            f"({r['latency_pct']:6.2f}%)"
        )
    save_report("compiled_deit_small", "\n".join(lines))
    bench_artifact("compiled_deit_small", {
        "stages": len(model.stages),
        "latency_s_15_units": model.latency_seconds(),
        "fp32_latency_share": model.fp32_latency_share(),
        "workload_split": model.workload_split(),
    })
    # The compiled schedule preserves the Table IV headline.
    split = {r["name"]: r for r in model.workload_split()}
    assert split["bfp8 matmul"]["ops_pct"] > 90.0
    assert model.fp32_latency_share() > 0.5


def test_unit_scaling(benchmark):
    model = compile_vit(DEIT_SMALL)
    lat = benchmark(model.latency_cycles, 15)
    assert model.latency_cycles(1) > lat > model.latency_cycles(60)


def test_system_dispatch_throughput(benchmark):
    sys = MultiUnitSystem()
    # One N_X = 64 bfp8 stream per job: 2 packed MACs x 64 blocks x 8^3.
    cycles = measured_bfp_stream_cycles(64)
    jobs = [Job(f"j{i}", "bfp8", cycles, 2.0 * 2 * 64 * 512) for i in range(150)]
    report = benchmark(sys.schedule, jobs)
    assert report.utilization() > 0.95
    # Aggregate throughput approaches 15x the single-unit measured rate.
    assert report.throughput_ops("bfp8") == pytest.approx(
        15 * measured_bfp_throughput_ops(64), rel=0.05
    )
