"""Roofline bench: locate the paper's workloads against the memory wall."""

from repro.perf.roofline import bfp_point, fp32_point, machine_balance, roofline_series
from repro.perf.throughput import bfp_peak_ops, fp32_peak_flops


def test_roofline_series(benchmark, save_report, bench_artifact):
    pts = benchmark(roofline_series)
    lines = [
        f"machine balance: bfp8 {machine_balance(bfp_peak_ops()):.2f} ops/B, "
        f"fp32 {machine_balance(fp32_peak_flops()):.2f} FLOPs/B",
        f"{'workload':12s} {'ops/byte':>9} {'attainable':>11} {'bound':>8}",
    ]
    for p in pts:
        lines.append(
            f"{p.name:12s} {p.intensity_ops_per_byte:9.2f} "
            f"{p.attainable_ops / 1e9:10.2f}G "
            f"{'memory' if p.memory_bound else 'compute':>8}"
        )
    save_report("roofline", "\n".join(lines))
    bench_artifact("roofline", {
        "points": [
            {"name": p.name,
             "intensity_ops_per_byte": p.intensity_ops_per_byte,
             "attainable_ops": p.attainable_ops,
             "memory_bound": p.memory_bound}
            for p in pts
        ],
    })
    # Fig. 7's structure: fp32 memory-bound everywhere, bfp8 compute-bound
    # once the stream amortizes the Y reuse.
    assert fp32_point(128).memory_bound
    assert not bfp_point(64).memory_bound


def test_decode_vs_prefill_efficiency(benchmark, save_report):
    from repro.runtime.scheduler import compile_decoder

    ctx = 128

    def build():
        pre = compile_decoder(vocab=1000, dim=128, depth=4, n_heads=4,
                              context=ctx, phase="prefill")
        dec = compile_decoder(vocab=1000, dim=128, depth=4, n_heads=4,
                              context=ctx, phase="decode")
        return pre, dec

    pre, dec = benchmark(build)
    per_tok_pre = pre.latency_seconds() / ctx * 1e6
    per_tok_dec = dec.latency_seconds() * 1e6
    save_report(
        "decoder_prefill_vs_decode",
        f"prefill: {per_tok_pre:.1f} us/token (amortized over {ctx})\n"
        f"decode:  {per_tok_dec:.1f} us/token (KV-cache, N_X=1 streams)\n"
        f"ratio:   {per_tok_dec / per_tok_pre:.1f}x",
    )
    assert per_tok_dec > 3 * per_tok_pre
