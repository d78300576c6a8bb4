"""Kernel microbenchmarks: the hot paths of the emulation itself.

These do not reproduce a paper artifact; they track the performance of the
reproduction's own vectorized kernels (quantization, bfp matmul emulation,
sliced fp32 multiply, align-add) so regressions are visible.

The headline number is the cached-vs-uncached decode comparison: the
prepared-operand cache (:mod:`repro.perf.prepared`) quantizes each weight
once — the emulation analogue of the hardware's Y-stationary weight
residency — and its tokens/sec advantage over clearing the cache before
every step (requantize every weight use) is recorded in
``results/BENCH_kernels.json``,
next to the bfp kernel's time on each encode matmul shape, on one thread
and with its column blocks split across the process's CPUs, and its PSU
chain's time in float32 and in float64 on each decode and encode call.
Timing uses ``perf_counter`` directly so the numbers exist even under
``pytest --benchmark-disable`` (the CI perf-smoke job).
"""

import importlib
import json
import time
from unittest import mock

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
from repro.perf.prepared import get_cache

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
    model: TinyLM, n_tokens: int, *, compiled: bool = False,
    uncached: bool = False,
) -> tuple[float, np.ndarray]:
    """Greedy KV-cache decode; returns (tokens/sec, final logits).

    ``compiled=False`` pins the eager per-layer path (the historical
    baseline every committed number was measured on); ``compiled=True``
    replays a traced decode plan (:mod:`repro.runtime.plan`).  The first
    step — where the compiled path traces its plan — runs before the
    clock starts, matching the trace-once/replay-many deployment shape.
    ``uncached=True`` clears the prepared-operand cache before every
    step; an eager step looks each weight up once, so every weight use
    re-quantizes.
    """
    backend = get_backend("bfp8-mixed")
    caches = model.init_cache()
    logits = model.forward_step(1, 0, caches, backend, compiled=compiled)
    t0 = time.perf_counter()
    for pos in range(1, n_tokens + 1):
        tok = int(np.argmax(logits)) % model.vocab
        if uncached:
            get_cache().clear()
        logits = model.forward_step(tok, pos, caches, backend, compiled=compiled)
    return n_tokens / (time.perf_counter() - t0), logits


def test_prepared_cache_decode_speedup(save_report, bench_artifact):
    """Cached vs uncached bfp8-mixed decode: the tentpole's headline.

    Uncached = the prepared-operand cache cleared before every eager
    step, i.e. every weight requantized on every matmul (what the
    emulation did before the cache).  Outputs must be bit-identical.  On
    a shared 2-core host the speedup read 4.5-7.1x over six runs.
    """
    model = TinyLM(
        vocab=32, seq_len=DECODE_TOKENS + 8, dim=DECODE_DIM,
        depth=DECODE_DEPTH, n_heads=4, seed=DECODE_SEED,
    )

    uncached_tps, uncached_logits = 0.0, None
    for _ in range(3):
        get_cache().clear()
        tps, uncached_logits = _decode_tokens_per_sec(
            model, DECODE_TOKENS, uncached=True
        )
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
        f"uncached (cleared):    {uncached_tps:8.2f} tokens/sec",
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
    assert speedup > 2.0, f"prepared cache speedup only {speedup:.2f}x"
    # Compiled replay over the already-cached eager path, both on the one
    # float32 bfp kernel, so the ratio is the removed per-layer dispatch
    # and the arena's K/V tiles alone: 0.91-1.25x over six runs on a
    # shared 2-core host since eager lookups stopped re-reading weight
    # bytes, so this floor failed in four of them.
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

    Times ``bfp_matmul_prepared`` (best of 5) on a prepared weight twice
    in the same run: held to one part on the calling thread, and as it
    runs by default, its column blocks split across the CPUs this process
    may use.  Both outputs must equal the integer ``_emulate_blocks`` byte
    for byte.  Times land in ``BENCH_kernels.json``, merged into the
    decode summary the test above writes; none is asserted, because the
    split's gain depends on how many cores are free.
    """
    bm = importlib.import_module("repro.arith.bfp_matmul")
    rng = np.random.default_rng(DECODE_SEED)
    one_ms, split_ms, identical = {}, {}, True
    for name, (m, k, n) in ENCODE_SHAPES.items():
        am = activation_blocks(rng.normal(size=(m, k)))
        bw = BfpWeight.from_dense(rng.normal(size=(k, n)))
        want = _emulate_blocks(am.man, am.exp, bw.man, bw.exp)[:m, :n]
        for ms, threads in ((one_ms, lambda: 1), (split_ms, bm._threads)):
            best = float("inf")
            with mock.patch.object(bm, "_threads", threads):
                for _ in range(5):
                    t0 = time.perf_counter()
                    out = bfp_matmul_prepared(am, bw)
                    best = min(best, time.perf_counter() - t0)
            ms[name] = 1e3 * best
            identical &= out.tobytes() == want.tobytes()

    path = results_dir / "BENCH_kernels.json"
    summary = json.loads(path.read_text())["summary"] if path.exists() else {}
    bench_artifact("kernels", {
        **summary,
        "encode_kernel_ms": split_ms,
        "encode_kernel_one_part_ms": one_ms,
        "encode_kernel_threads": bm._threads(),
        "encode_kernel_bit_identical": identical,
    }, seed=DECODE_SEED)
    assert identical, "fast bfp kernel diverged from the integer oracle"


def _decode_kernel_calls(context: int = 40) -> list[tuple]:
    """The operands of the 13 kernel calls of one compiled batch-8 decode
    step at a ``context``-token context, on the decode benchmark's model
    (``python3 -m bench run --workload decode``)."""
    bm = importlib.import_module("repro.arith.bfp_matmul")
    model = TinyLM(vocab=32, dim=384, depth=2, n_heads=4, seq_len=264,
                   seed=DECODE_SEED)
    backend = get_backend("bfp8-mixed")
    model.prepare(backend)
    caches = [model.init_cache() for _ in range(8)]
    for pos in range(context):
        model.forward_step_batch([1] * 8, [pos] * 8, caches, backend,
                                 compiled=True)
    calls, fast = [], bm.fast_emulate_blocks

    def capture(*args):
        calls.append(args)
        return fast(*args)

    with mock.patch.object(bm, "fast_emulate_blocks", capture):
        model.forward_step_batch([1] * 8, [context] * 8, caches, backend,
                                 compiled=True)
    return calls


def test_chain_dtype_times(results_dir, bench_artifact):
    """The kernel's PSU chain in float32 and in float64 on the same calls.

    Decode's 13 calls (captured from a compiled batch-8 step) and the
    encode shapes run on their stored float32 operands, which take the
    float32 chain, and on float64 copies with the float64 chain forced,
    as every call ran before the float32 chain existed; both held to one
    part on the calling thread, best of 7 (decode) or 3 (encode).  The
    two outputs must be byte-identical; the times and their ratio land in
    ``BENCH_kernels.json`` unasserted.
    """
    bm = importlib.import_module("repro.arith.bfp_matmul")
    rng = np.random.default_rng(DECODE_SEED)
    encode = {}
    for name, (m, k, n) in ENCODE_SHAPES.items():
        am = activation_blocks(rng.normal(size=(m, k)))
        bw = BfpWeight.from_dense(rng.normal(size=(k, n)))
        encode[name] = (am.man, am.exp, bw.man, bw.exp)
    decode = {
        f"{i:02d}:{'x'.join(map(str, a[0].shape))}@"
        f"{'x'.join(map(str, a[2].shape))}": a
        for i, a in enumerate(_decode_kernel_calls())
    }

    def best_ms(args, reps):
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            out = bm.fast_emulate_blocks(*args)
            best = min(best, time.perf_counter() - t0)
        return 1e3 * best, out

    times, identical = {}, True
    with mock.patch.object(bm, "_threads", lambda: 1):
        for kind, calls, reps in (("decode", decode, 7), ("encode", encode, 3)):
            for name, (a_man, a_exp, b_man, b_exp) in calls.items():
                assert a_man.dtype == b_man.dtype == np.float32
                f32_ms, f32 = best_ms((a_man, a_exp, b_man, b_exp), reps)
                wide = (a_man.astype(np.float64), a_exp,
                        b_man.astype(np.float64), b_exp)
                with mock.patch.object(bm, "_chain_dtype",
                                       lambda depth: np.float64):
                    f64_ms, f64 = best_ms(wide, reps)
                identical &= f32.tobytes() == f64.tobytes()
                times.setdefault(kind, {})[name] = {
                    "float32_ms": f32_ms, "float64_ms": f64_ms,
                }

    def total(kind, key):
        return sum(t[key] for t in times[kind].values())

    path = results_dir / "BENCH_kernels.json"
    summary = json.loads(path.read_text())["summary"] if path.exists() else {}
    bench_artifact("kernels", {
        **summary,
        "chain_ms": times,
        "chain_f64_over_f32": {
            kind: total(kind, "float64_ms") / total(kind, "float32_ms")
            for kind in times
        },
        "chain_bit_identical": identical,
    }, seed=DECODE_SEED)
    assert len(times["decode"]) == 13
    assert identical, "float32 and float64 PSU chains disagree"


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
