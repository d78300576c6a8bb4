"""Kernel microbenchmarks: the hot paths of the emulation itself.

These do not reproduce a paper artifact; they track the performance of the
reproduction's own vectorized kernels (quantization, bfp matmul emulation,
sliced fp32 multiply, align-add) so regressions are visible.

The headline number is the cached-vs-uncached decode comparison: the
prepared-operand cache (:mod:`repro.perf.prepared`) quantizes each weight
once — the emulation analogue of the hardware's Y-stationary weight
residency — and its tokens/sec advantage over a ``capacity=0`` cache
(requantize every call) is recorded in ``results/BENCH_kernels.json``,
next to the bfp kernel's time on each encode matmul shape.
Timing uses ``perf_counter`` directly so the numbers exist even under
``pytest --benchmark-disable`` (the CI perf-smoke job).
"""

import json
import time

import numpy as np

from repro.arith.bfp_matmul import (
    BfpWeight,
    _emulate_blocks,
    activation_blocks,
    bfp_batched_tiles,
    bfp_matmul_emulate,
    bfp_matmul_from_tiles,
    bfp_matmul_prepared,
)
from repro.arith.fp_align_add import aligned_add
from repro.arith.fp_sliced import sliced_multiply
from repro.formats.bfp8 import quantize_tiles
from repro.formats.blocking import BfpMatrix
from repro.models.backend import get_backend
from repro.models.decoder import TinyLM
from repro.perf.prepared import PreparedOperandCache, get_cache, set_cache

RNG = np.random.default_rng(0)

# The decode workload: DeiT-Small width (the paper's Table IV model is
# d=384), two blocks — large enough that per-call weight quantization
# dominates the uncached path, as it would on any real model.
DECODE_SEED = 7
DECODE_DIM = 384
DECODE_DEPTH = 2
DECODE_TOKENS = 24

# The encode workload's weight matmuls, (M, K, N): DeiT-Tiny (dim 192,
# MLP 768) over its 197 tokens, and the qkv projection of a 128-token
# TinyLM (dim 384) prefill.
ENCODE_SHAPES = {
    "deit_tiny_qkv": (197, 192, 576),
    "deit_tiny_fc1": (197, 192, 768),
    "deit_tiny_fc2": (197, 768, 192),
    "tinylm_prefill_qkv": (128, 384, 1152),
}


def test_quantize_tiles_throughput(benchmark):
    tiles = RNG.normal(size=(64, 64, 8, 8))
    man, exp = benchmark(quantize_tiles, tiles)
    assert man.shape == tiles.shape


def test_bfp_matrix_from_dense(benchmark):
    x = RNG.normal(size=(512, 512))
    bm = benchmark(BfpMatrix.from_dense, x)
    assert bm.block_grid == (64, 64)


def test_bfp_matmul_emulate_256(benchmark):
    a = RNG.normal(size=(256, 256))
    b = RNG.normal(size=(256, 256))
    out = benchmark(bfp_matmul_emulate, a, b)
    assert out.shape == (256, 256)


def test_bfp_matmul_emulate_batched_heads(benchmark):
    # The per-head attention shape: one fused kernel for the whole stack.
    a = RNG.normal(size=(8, 64, 64))
    b = RNG.normal(size=(8, 64, 64))
    out = benchmark(lambda: bfp_matmul_from_tiles(*bfp_batched_tiles(a, b)))
    assert out.shape == (8, 64, 64)


def test_sliced_multiply_vectorized(benchmark):
    x = RNG.normal(size=100_000).astype(np.float32)
    y = RNG.normal(size=100_000).astype(np.float32)
    out = benchmark(sliced_multiply, x, y)
    assert out.shape == x.shape


def test_aligned_add_vectorized(benchmark):
    x = RNG.normal(size=100_000).astype(np.float32)
    y = RNG.normal(size=100_000).astype(np.float32)
    out = benchmark(aligned_add, x, y)
    assert out.shape == x.shape


def _decode_tokens_per_sec(
    model: TinyLM, n_tokens: int, *, compiled: bool = False
) -> tuple[float, np.ndarray]:
    """Greedy KV-cache decode; returns (tokens/sec, final logits).

    ``compiled=False`` pins the eager per-layer path (the historical
    baseline every committed number was measured on); ``compiled=True``
    replays a traced decode plan (:mod:`repro.runtime.plan`).  The first
    step — where the compiled path traces its plan — runs before the
    clock starts, matching the trace-once/replay-many deployment shape.
    """
    backend = get_backend("bfp8-mixed")
    caches = model.init_cache()
    logits = model.forward_step(1, 0, caches, backend, compiled=compiled)
    t0 = time.perf_counter()
    for pos in range(1, n_tokens + 1):
        tok = int(np.argmax(logits)) % model.vocab
        logits = model.forward_step(tok, pos, caches, backend, compiled=compiled)
    return n_tokens / (time.perf_counter() - t0), logits


def test_prepared_cache_decode_speedup(save_report, bench_artifact):
    """Cached vs uncached bfp8-mixed decode: the tentpole's headline.

    Uncached = a ``capacity=0`` prepared-operand cache, i.e. every weight
    requantized on every matmul (what the emulation did before the
    cache).  Outputs must be bit-identical; the committed artifact
    records the >=5x achieved on an unloaded machine, while the assert
    keeps a CI-safe margin for noisy shared runners.
    """
    model = TinyLM(
        vocab=32, seq_len=DECODE_TOKENS + 8, dim=DECODE_DIM,
        depth=DECODE_DEPTH, n_heads=4, seed=DECODE_SEED,
    )

    uncached_tps, uncached_logits = 0.0, None
    for _ in range(3):
        prev = set_cache(PreparedOperandCache(capacity=0))
        try:
            tps, uncached_logits = _decode_tokens_per_sec(model, DECODE_TOKENS)
        finally:
            set_cache(prev)
        uncached_tps = max(uncached_tps, tps)

    cached_tps, cached_logits = 0.0, None
    for _ in range(3):
        get_cache().clear()
        tps, cached_logits = _decode_tokens_per_sec(model, DECODE_TOKENS)
        cached_tps = max(cached_tps, tps)

    compiled_tps, compiled_logits = 0.0, None
    for _ in range(3):
        get_cache().clear()
        tps, compiled_logits = _decode_tokens_per_sec(
            model, DECODE_TOKENS, compiled=True
        )
        compiled_tps = max(compiled_tps, tps)

    identical = bool(np.array_equal(uncached_logits, cached_logits))
    compiled_identical = bool(np.array_equal(cached_logits, compiled_logits))
    speedup = cached_tps / uncached_tps
    compiled_speedup = compiled_tps / cached_tps

    def _sha(arr: np.ndarray) -> str:
        import hashlib

        return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()

    lines = [
        f"TinyLM dim={DECODE_DIM} depth={DECODE_DEPTH}, bfp8-mixed, "
        f"{DECODE_TOKENS} greedy KV-cache decode steps",
        f"uncached (capacity=0): {uncached_tps:8.2f} tokens/sec",
        f"cached   (default):    {cached_tps:8.2f} tokens/sec",
        f"compiled (plan replay):{compiled_tps:8.2f} tokens/sec",
        f"cache speedup: {speedup:.2f}x   bit-identical logits: {identical}",
        f"compiled speedup over cached eager: {compiled_speedup:.2f}x   "
        f"bit-identical logits: {compiled_identical}",
    ]
    save_report("kernels_prepared_cache", "\n".join(lines))
    bench_artifact("kernels", {
        "decode_model": {
            "dim": DECODE_DIM, "depth": DECODE_DEPTH,
            "n_tokens": DECODE_TOKENS, "backend": "bfp8-mixed",
        },
        "decode_tokens_per_sec_uncached": uncached_tps,
        "decode_tokens_per_sec_cached": cached_tps,
        "decode_tokens_per_sec_compiled": compiled_tps,
        "decode_speedup": speedup,
        "compiled_speedup": compiled_speedup,
        "bit_identical": identical,
        "compiled_bit_identical": compiled_identical,
        "compiled_logits_sha256": _sha(np.asarray(compiled_logits)),
        "eager_logits_sha256": _sha(np.asarray(cached_logits)),
    }, seed=DECODE_SEED)

    assert identical, "cached decode diverged from the uncached path"
    assert compiled_identical, "compiled decode diverged from the eager path"
    # Locally this runs >=5x (recorded in the artifact); shared CI
    # runners are noisy, so the hard gate is a conservative 2x.
    assert speedup > 2.0, f"prepared cache speedup only {speedup:.2f}x"
    # Compiled replay over the already-cached eager path, both on the one
    # float64 bfp kernel, so the ratio is the removed per-layer dispatch
    # alone: measured ~1.5x locally; the acceptance floor is 1.2x.
    assert compiled_speedup > 1.2, (
        f"compiled decode speedup only {compiled_speedup:.2f}x"
    )
    # Absolute floors: 0.9 x 15 and 0.9 x 33 tokens/s, ~4x below the dev
    # references (~63 cached, ~95 compiled), so only a hot-path collapse
    # trips them on a shared runner.
    assert cached_tps >= 15.0 * 0.9, f"cached decode {cached_tps:.1f} tok/s"
    assert compiled_tps >= 33.0 * 0.9, (
        f"compiled decode {compiled_tps:.1f} tok/s")


def test_encode_kernel_shapes(results_dir, bench_artifact):
    """The bfp kernel on each encode matmul shape, against the oracle.

    Times ``bfp_matmul_prepared`` (best of 5) on a prepared weight and
    compares its output byte for byte with the integer
    ``_emulate_blocks``.  Both land in ``BENCH_kernels.json``, merged into
    the decode summary the test above writes.
    """
    rng = np.random.default_rng(DECODE_SEED)
    kernel_ms, identical = {}, True
    for name, (m, k, n) in ENCODE_SHAPES.items():
        am = activation_blocks(rng.normal(size=(m, k)))
        bw = BfpWeight.from_matrix(BfpMatrix.from_dense(rng.normal(size=(k, n))))
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            out = bfp_matmul_prepared(am, bw)
            best = min(best, time.perf_counter() - t0)
        kernel_ms[name] = 1e3 * best
        want = _emulate_blocks(
            am.mantissas, am.exponents, bw.man64, bw.exp64
        )[:m, :n]
        identical &= out.tobytes() == want.tobytes()

    path = results_dir / "BENCH_kernels.json"
    summary = json.loads(path.read_text())["summary"] if path.exists() else {}
    bench_artifact("kernels", {
        **summary,
        "encode_kernel_ms": kernel_ms,
        "encode_kernel_bit_identical": identical,
    }, seed=DECODE_SEED)
    assert identical, "fast bfp kernel diverged from the integer oracle"


def test_numerics_monitor_overhead(save_report, bench_artifact):
    """The disabled numerics monitor must stay out of the decode hot path.

    The acceptance bar is <=2% decode-throughput cost with the monitor
    disabled (the default NULL_MONITOR: one ``.enabled`` attribute check
    per matmul).  Enabled-monitor throughput is measured and recorded
    too, but not gated — observation does real work (dequantize + SQNR
    accumulation) and is expected to cost real time.
    """
    from repro.obs.numerics import NULL_MONITOR, NumericsMonitor, set_monitor

    model = TinyLM(
        vocab=32, seq_len=DECODE_TOKENS + 8, dim=DECODE_DIM,
        depth=DECODE_DEPTH, n_heads=4, seed=DECODE_SEED,
    )

    def best_of(monitor, runs=5, compiled=False):
        best, logits = 0.0, None
        for _ in range(runs):
            prev = set_monitor(monitor)
            get_cache().clear()
            try:
                tps, logits = _decode_tokens_per_sec(
                    model, DECODE_TOKENS, compiled=compiled
                )
            finally:
                set_monitor(prev)
            best = max(best, tps)
        return best, logits

    best_of(NULL_MONITOR, runs=1)  # warm numpy + allocator
    off_tps, off_logits = best_of(NULL_MONITOR)
    on_tps, on_logits = best_of(NumericsMonitor())
    # Compiled replay under a live monitor: taps sample 1-in-N steps
    # (the rest replay tap-free), so observation no longer taxes every
    # token — the compiled overhead fraction is the new acceptance bar.
    c_off_tps, c_off_logits = best_of(NULL_MONITOR, compiled=True)
    c_on_tps, c_on_logits = best_of(NumericsMonitor(), compiled=True)

    identical = bool(np.array_equal(off_logits, on_logits))
    compiled_identical = bool(
        np.array_equal(off_logits, c_off_logits)
        and np.array_equal(off_logits, c_on_logits)
    )
    overhead = off_tps / on_tps - 1.0
    compiled_overhead = c_off_tps / c_on_tps - 1.0

    # The disabled path is the gate.  Its cost against the pre-monitor
    # baseline (results/BENCH_kernels.json decode_tokens_per_sec_cached)
    # is the <=2% acceptance criterion; the measured fraction is recorded
    # in the artifact.  Back-to-back best-of-5 runs on a loaded shared
    # machine swing +-15%, so the hard assert keeps a conservative 20%
    # margin — wide enough to ignore scheduler noise, tight enough to
    # catch an accidentally-hot disabled path (observation itself costs
    # ~30% when enabled).
    import json
    from pathlib import Path

    baseline_path = Path(__file__).parent.parent / "results" / "BENCH_kernels.json"
    base_tps = vs_baseline = None
    if baseline_path.exists():
        baseline = json.loads(baseline_path.read_text())
        base_tps = baseline["summary"]["decode_tokens_per_sec_cached"]
        vs_baseline = off_tps / base_tps - 1.0

    lines = [
        f"TinyLM dim={DECODE_DIM} depth={DECODE_DEPTH}, bfp8-mixed, "
        f"{DECODE_TOKENS} greedy KV-cache decode steps",
        f"monitor disabled: {off_tps:8.2f} tokens/sec",
        f"monitor enabled:  {on_tps:8.2f} tokens/sec "
        f"({overhead * 100:+.1f}% slower)",
        f"compiled, monitor disabled: {c_off_tps:8.2f} tokens/sec",
        f"compiled, monitor enabled:  {c_on_tps:8.2f} tokens/sec "
        f"({compiled_overhead * 100:+.1f}% slower, sampled taps)",
        f"bit-identical logits: {identical} (compiled: {compiled_identical})",
    ]
    if base_tps is not None:
        lines.append(
            f"disabled-monitor vs committed BENCH_kernels baseline: "
            f"{off_tps:.2f} vs {base_tps:.2f} tokens/sec "
            f"({vs_baseline * 100:+.1f}%)"
        )
    save_report("kernels_numerics_overhead", "\n".join(lines))
    bench_artifact("numerics_overhead", {
        "decode_model": {
            "dim": DECODE_DIM, "depth": DECODE_DEPTH,
            "n_tokens": DECODE_TOKENS, "backend": "bfp8-mixed",
        },
        "decode_tokens_per_sec_monitor_off": off_tps,
        "decode_tokens_per_sec_monitor_on": on_tps,
        "enabled_overhead_fraction": overhead,
        "compiled_tokens_per_sec_monitor_off": c_off_tps,
        "compiled_tokens_per_sec_monitor_on": c_on_tps,
        "compiled_enabled_overhead_fraction": compiled_overhead,
        "baseline_tokens_per_sec": base_tps,
        "disabled_vs_baseline_fraction": vs_baseline,
    }, seed=DECODE_SEED)

    assert identical, "monitored decode diverged from the unmonitored path"
    assert compiled_identical, (
        "compiled decode diverged under/without the numerics monitor"
    )
    # Sampled taps bound the live-monitor tax on the compiled path: the
    # acceptance bar is <=10% (eager pays the full observation cost every
    # step); the assert allows noise headroom on shared runners.
    assert compiled_overhead <= 0.15, (
        f"compiled monitored decode overhead {compiled_overhead * 100:.1f}% "
        f"(sampled taps should keep this under 10%)"
    )
    if base_tps is not None:
        assert off_tps > base_tps * 0.80, (
            f"disabled monitor cost {-vs_baseline * 100:.1f}% decode "
            f"throughput vs committed baseline"
        )
