"""Full-model compiler: a Transformer into a hardware schedule.

The paper's conclusion announces "an automatic compilation framework that
provides full stack acceleration of Transformer models is underway"; this
module builds that layer.  :func:`compile_vit` lowers a ViT configuration
into a dependency-ordered list of :class:`Stage` objects — bfp8 matmul
plans and fp32 vector-program invocations, including the residual adds —
each broken into unit-schedulable chunks.  :class:`CompiledModel` then
evaluates end-to-end latency on an ``n``-unit system (stages serialize on
data dependencies; chunks within a stage spread across units) and produces
the Table IV workload split *from the compiled schedule* rather than from
analytic op counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil
from typing import TYPE_CHECKING

from repro.cost.modes import (
    FP32_STREAM_LENGTH,
    ModeOptions,
    UnitMode,
    get_mode,
    resolve_unit_mode,
    vector_chunks,
)
from repro.errors import ConfigurationError
from repro.models.configs import ViTConfig
from repro.obs.metrics import get_registry
from repro.obs.tracer import Tracer
from repro.perf.latency import measured_fp32_stream_cycles
from repro.perf.memory import DEFAULT_MEMORY, MemoryModel
from repro.perf.throughput import DEFAULT_CLOCK, ClockConfig
from repro.runtime.instructions import OpCount
from repro.runtime.vector_ops import (
    build_gelu,
    build_layernorm,
    build_rmsnorm,
    build_silu,
    build_softmax,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.models.policy import PrecisionPolicy

__all__ = ["Stage", "CompiledModel", "compile_vit", "compile_decoder"]


@dataclass(frozen=True)
class Stage:
    """One dependency-ordered step of the compiled model."""

    name: str
    kind: str  # matmul | softmax | gelu | layernorm | residual_add | reconfig
    mode: str  # format label: bfp8 | fp32 | int8 | fp16 | ...
    chunks: int  # independent unit-schedulable pieces
    chunk_cycles: int  # end-to-end cycles of one chunk (compute + memory)
    ops: float  # useful ops (bfp8 ops / fp32 FLOPs, paper conventions)
    host_ops: float = 0.0  # CPU-escape operations (division, max, ...)
    unit_mode: str = ""  # executing UnitMode registry name ("" = untagged)

    def latency_cycles(self, n_units: int) -> int:
        """Stage latency with its chunks spread over ``n_units``."""
        if n_units <= 0:
            raise ConfigurationError("need at least one unit")
        waves = ceil(self.chunks / n_units)
        return waves * self.chunk_cycles


@dataclass
class CompiledModel:
    """A compiled Transformer: ordered stages + system-level evaluation."""

    name: str
    stages: list[Stage] = field(default_factory=list)
    clock: ClockConfig = DEFAULT_CLOCK

    def latency_cycles(self, n_units: int | None = None) -> int:
        n = n_units or self.clock.n_units
        return sum(s.latency_cycles(n) for s in self.stages)

    def latency_seconds(self, n_units: int | None = None) -> float:
        return self.latency_cycles(n_units) / self.clock.freq_hz

    def ops_by_mode(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.stages:
            out[s.mode] = out.get(s.mode, 0.0) + s.ops
        return out

    def latency_by_mode(self, n_units: int | None = None) -> dict[str, int]:
        """Per-format cycle attribution — the policy view of the schedule."""
        n = n_units or self.clock.n_units
        out: dict[str, int] = {}
        for s in self.stages:
            out[s.mode] = out.get(s.mode, 0) + s.latency_cycles(n)
        return out

    def latency_by_unit_mode(self, n_units: int | None = None) -> dict[str, int]:
        """Per-unit-mode cycle attribution — the hardware view.

        Groups stage latency by the :mod:`repro.cost.modes` unit that
        executes it (``bfp8_mac``, ``fp32_vector``, ``fp16_dot``, ...);
        stages with no unit mode (loads, stores, reconfig) are skipped.
        """
        n = n_units or self.clock.n_units
        out: dict[str, int] = {}
        for s in self.stages:
            if s.unit_mode:
                out[s.unit_mode] = out.get(s.unit_mode, 0) + s.latency_cycles(n)
        return out

    def fp32_latency_share(self, n_units: int | None = None) -> float:
        n = n_units or self.clock.n_units
        total = self.latency_cycles(n)
        fp32 = sum(s.latency_cycles(n) for s in self.stages if s.mode == "fp32")
        return fp32 / total if total else 0.0

    def unit_cycles_per_item(self) -> int:
        """Total unit-occupancy cycles of one input (all chunks, all stages)."""
        return sum(s.chunks * s.chunk_cycles for s in self.stages)

    def throughput_items_per_s(self, n_units: int | None = None) -> float:
        """Steady-state pipelined throughput over independent inputs.

        With many independent items in flight, chunks of different items
        fill every unit continuously: throughput is work-limited, not
        dependency-limited — the batching regime the 15-unit system targets.
        """
        n = n_units or self.clock.n_units
        occupancy = self.unit_cycles_per_item()
        return n * self.clock.freq_hz / occupancy if occupancy else 0.0

    def trace_schedule(self, tracer: Tracer, n_units: int | None = None) -> int:
        """Emit the compiled schedule as per-unit spans; returns the makespan.

        The placement mirrors :meth:`latency_cycles` exactly: stages
        serialize on data dependencies, and within a stage the chunks
        spread over the units in waves of ``n`` — so the trace's critical
        path *is* the model's reported latency.  Spans carry the stage's
        mode/kind so a Perfetto query can split bfp8 vs fp32 residency.
        """
        n = n_units or self.clock.n_units
        if n <= 0:
            raise ConfigurationError("need at least one unit")
        t = 0
        for s in self.stages:
            waves = ceil(s.chunks / n)
            for wave in range(waves):
                in_wave = min(n, s.chunks - wave * n)
                start = t + wave * s.chunk_cycles
                for u in range(in_wave):
                    tracer.span(
                        s.name,
                        track=f"unit{u}",
                        start=start,
                        end=start + s.chunk_cycles,
                        cat=s.kind,
                        args={"mode": s.mode, "wave": wave},
                    )
            t += waves * s.chunk_cycles
        return t

    def workload_split(self, n_units: int | None = None) -> list[dict]:
        """Table IV-style rows derived from the compiled schedule."""
        n = n_units or self.clock.n_units
        groups: dict[str, dict] = {}
        for s in self.stages:
            key = f"{s.mode} {s.kind}"
            g = groups.setdefault(
                key, {"name": key, "mode": s.mode, "ops": 0.0, "cycles": 0}
            )
            g["ops"] += s.ops
            g["cycles"] += s.latency_cycles(n)
        total_ops = sum(g["ops"] for g in groups.values())
        total_cycles = sum(g["cycles"] for g in groups.values())
        rows = []
        for g in groups.values():
            rows.append(
                dict(
                    g,
                    latency_s=g["cycles"] / self.clock.freq_hz,
                    ops_pct=100.0 * g["ops"] / total_ops if total_ops else 0.0,
                    latency_pct=100.0 * g["cycles"] / total_cycles
                    if total_cycles else 0.0,
                )
            )
        rows.sort(key=lambda r: -r["ops"])
        return rows


def _publish_compile(model: CompiledModel) -> CompiledModel:
    """Publish compile-time shape metrics into the process-wide registry."""
    reg = get_registry()
    if reg.enabled:
        reg.counter("runtime.compiler.models").inc()
        reg.counter("runtime.compiler.stages").inc(len(model.stages))
        for mode, ops in model.ops_by_mode().items():
            reg.counter(f"runtime.compiler.ops.{mode}").inc(ops)
        for s in model.stages:
            reg.histogram("runtime.compiler.chunk_cycles").observe(s.chunk_cycles)
    return model


def _resolve_mode(
    policy: "PrecisionPolicy | None",
    layer: str,
    role: str,
    modes: ModeOptions | None = None,
) -> tuple[str, UnitMode]:
    """``(format name, executing unit mode)`` for one scheduled matmul.

    With no policy the compiler keeps its historical behaviour — every
    matmul is a bfp8 array stage.  The layer paths mirror the functional
    backends' scope paths (``block0.attn``, ``block0.mlp``, ``head``), so
    one policy document governs both the emulation and the compiler.
    The unit mode comes from the :mod:`repro.cost.modes` registry —
    the format's registered ``array_mode``, unless ``modes`` overrides it.
    """
    name = "bfp8" if policy is None else policy.resolve_name(layer, role)
    return name, resolve_unit_mode(name, modes)


def _matmul_stage(
    name: str,
    m: int,
    k: int,
    n: int,
    *,
    copies: int,
    mem: MemoryModel,
    clock: ClockConfig = DEFAULT_CLOCK,
    fmt: str = "bfp8",
    mode: UnitMode | None = None,
    align_narrow_frac: float | None = None,
) -> Stage:
    """A (possibly head-replicated) matmul as one stage.

    The per-chunk cycles come from the unit-mode registry: array modes
    (bfp/int/single-slice minifloat on ``bfp8_mac``, fp16 on the
    dual-precision ``fp16_dot`` datapath) cost through the Eqn-9 stream
    schedule; the ``fp32_vector`` fallback executes MAC by MAC on the
    4-lane fp32 personality — the cliff the paper's bfp slicing exists
    to avoid.
    """
    if mode is None:
        mode = get_mode("bfp8_mac")
    cost = mode.matmul_cost(
        m, k, n, copies=copies, mem=mem, clock=clock,
        align_narrow_frac=align_narrow_frac if mode.kind == "array" else None,
    )
    return Stage(
        name=name,
        kind="matmul",
        mode=fmt,
        chunks=cost.chunks,
        chunk_cycles=cost.chunk_cycles,
        ops=cost.ops,
        unit_mode=mode.name,
    )


def _reconfig_stage(name: str, fmt: str, mode: UnitMode) -> Stage:
    """Datapath reconfiguration charged on a transition into ``mode``."""
    return Stage(
        name=name,
        kind="reconfig",
        mode=fmt,
        chunks=1,
        chunk_cycles=mode.reconfig_cycles,
        ops=0.0,
        unit_mode=mode.name,
    )


def _vector_stage(
    name: str,
    kind: str,
    elements: int,
    per_element: OpCount,
    *,
    mem: MemoryModel,
    reduction_ops_per_element: float = 0.0,
) -> Stage:
    """A non-linear function over ``elements`` tensor elements.

    ``per_element`` comes from the compiled vector program; reductions
    (VREDSUM) contribute ~1 extra add per element, already included in the
    program's static count.
    """
    fpu_ops = elements * per_element.fpu_total + int(
        elements * reduction_ops_per_element
    )
    return Stage(
        name=name,
        kind=kind,
        mode="fp32",
        chunks=vector_chunks(fpu_ops),
        chunk_cycles=measured_fp32_stream_cycles(FP32_STREAM_LENGTH, mem),
        ops=2.0 * fpu_ops,
        host_ops=float(elements * per_element.host),
    )


def _residual_stage(name: str, elements: int, mem: MemoryModel) -> Stage:
    return Stage(
        name=name,
        kind="residual_add",
        mode="fp32",
        chunks=vector_chunks(elements),
        chunk_cycles=measured_fp32_stream_cycles(FP32_STREAM_LENGTH, mem),
        ops=2.0 * elements,
    )


def compile_vit(
    cfg: ViTConfig,
    *,
    batch: int = 1,
    clock: ClockConfig = DEFAULT_CLOCK,
    mem: MemoryModel = DEFAULT_MEMORY,
    exp_degree: int = 6,
    include_head: bool = True,
    policy: "PrecisionPolicy | None" = None,
    modes: ModeOptions | None = None,
) -> CompiledModel:
    """Lower a ViT configuration to a hardware schedule.

    ``batch`` coalesces that many images into one schedule: the token
    matmuls see ``batch * n_tokens`` rows (longer N_X streams, Eqn-9
    efficiency) while attention score/context matmuls replicate per image
    (each image attends only to its own tokens).

    ``policy`` maps each matmul's (layer path, role) to a registry format;
    ``None`` keeps the historical all-bfp8 schedule.  ``modes``
    optionally overrides format -> unit-mode routing (and the alignment
    prediction knob); transitions into a mode with a reconfiguration
    cost insert an explicit ``reconfig`` stage.
    """
    if batch <= 0:
        raise ConfigurationError("batch must be positive")
    last_array = "bfp8_mac"  # the array's resting personality

    def mm(name, m_, k_, n_, *, copies, layer, role):
        nonlocal last_array
        fmt, mode = _resolve_mode(policy, layer, role, modes)
        if mode.kind == "array":
            if mode.reconfig_cycles and mode.name != last_array:
                st.append(_reconfig_stage(name + ".reconfig", fmt, mode))
            last_array = mode.name
        return _matmul_stage(
            name, m_, k_, n_, copies=copies, mem=mem, clock=clock,
            fmt=fmt, mode=mode,
            align_narrow_frac=modes.align_narrow_frac if modes else None,
        )

    n, d, h, m = cfg.n_tokens, cfg.dim, cfg.n_heads, cfg.mlp_hidden
    hd = cfg.head_dim
    rows = batch * n  # token rows through the shared-weight matmuls
    softmax_pe = build_softmax(exp_degree).static_op_count()
    gelu_pe = build_gelu(exp_degree).static_op_count()
    ln_pe = build_layernorm().static_op_count()

    model = CompiledModel(name=cfg.name, clock=clock)
    st = model.stages

    patch_in = cfg.patch_size**2 * cfg.in_chans
    st.append(mm("patch_embed", batch * cfg.n_patches, patch_in, d,
                 copies=1, layer="patch_embed", role="linear"))

    for layer in range(cfg.depth):
        p = f"block{layer}."
        attn, mlp = p + "attn", p + "mlp"
        st.append(_vector_stage(p + "ln1", "layernorm", rows * d, ln_pe, mem=mem))
        st.append(mm(p + "qkv", rows, d, 3 * d, copies=1,
                     layer=attn, role="linear"))
        st.append(mm(p + "scores", n, hd, n, copies=h * batch,
                     layer=attn, role="attention"))
        st.append(_vector_stage(p + "softmax", "softmax", batch * h * n * n,
                                softmax_pe, mem=mem))
        st.append(mm(p + "context", n, n, hd, copies=h * batch,
                     layer=attn, role="attention"))
        st.append(mm(p + "proj", rows, d, d, copies=1,
                     layer=attn, role="linear"))
        st.append(_residual_stage(p + "residual1", rows * d, mem))
        st.append(_vector_stage(p + "ln2", "layernorm", rows * d, ln_pe, mem=mem))
        st.append(mm(p + "fc1", rows, d, m, copies=1, layer=mlp, role="linear"))
        st.append(_vector_stage(p + "gelu", "gelu", rows * m, gelu_pe, mem=mem))
        st.append(mm(p + "fc2", rows, m, d, copies=1, layer=mlp, role="linear"))
        st.append(_residual_stage(p + "residual2", rows * d, mem))

    st.append(_vector_stage("final_ln", "layernorm", rows * d, ln_pe, mem=mem))
    if include_head:
        st.append(mm("head", batch, d, cfg.n_classes, copies=1,
                     layer="head", role="linear"))
    return _publish_compile(model)


def compile_decoder(
    *,
    vocab: int,
    dim: int,
    depth: int,
    n_heads: int,
    context: int,
    mlp_ratio: float = 8 / 3,
    phase: str = "prefill",
    batch: int = 1,
    clock: ClockConfig = DEFAULT_CLOCK,
    mem: MemoryModel = DEFAULT_MEMORY,
    exp_degree: int = 6,
    policy: "PrecisionPolicy | None" = None,
    modes: ModeOptions | None = None,
) -> CompiledModel:
    """Lower a LLaMA-family decoder to a hardware schedule.

    ``phase="prefill"`` processes the whole ``context`` at once (matmul
    shapes like the encoder); ``phase="decode"`` is one autoregressive step
    with a KV cache — every linear layer collapses to a single-row matmul
    (N_X = 1 streams, the Eqn-9 worst case), which is why per-token decode
    is dramatically less efficient on the array than prefill.

    ``batch`` coalesces that many independent sequences (sessions) into
    one schedule.  The shared-weight linear layers see ``batch * n`` rows
    — for decode, batches up to the 8-row block size ride the *same*
    streams as a single token, which is the whole economics of dynamic
    batching (weights stream once per batch, not once per token).  The
    attention score/context matmuls and their softmax replicate per
    sequence: every session has its own KV cache.
    """
    if phase not in ("prefill", "decode"):
        raise ConfigurationError(f"unknown phase {phase!r}")
    if batch <= 0:
        raise ConfigurationError("batch must be positive")
    n = context if phase == "prefill" else 1
    rows = batch * n  # rows through the shared-weight matmuls
    ctx = context
    hd = dim // n_heads
    m = int(dim * mlp_ratio)
    rms_pe = build_rmsnorm().static_op_count()
    softmax_pe = build_softmax(exp_degree).static_op_count()
    # SwiGLU per element of the hidden dim: silu(gate) + one gating mul.
    silu_pe = build_silu(exp_degree).static_op_count()
    swiglu_pe = OpCount(silu_pe.fpu_mul + 1, silu_pe.fpu_add, silu_pe.host)

    model = CompiledModel(name=f"decoder-{phase}", clock=clock)
    st = model.stages

    last_array = "bfp8_mac"  # the array's resting personality

    def mm(name, m_, k_, n_, *, copies, layer, role):
        nonlocal last_array
        fmt, mode = _resolve_mode(policy, layer, role, modes)
        if mode.kind == "array":
            if mode.reconfig_cycles and mode.name != last_array:
                st.append(_reconfig_stage(name + ".reconfig", fmt, mode))
            last_array = mode.name
        return _matmul_stage(
            name, m_, k_, n_, copies=copies, mem=mem, clock=clock,
            fmt=fmt, mode=mode,
            align_narrow_frac=modes.align_narrow_frac if modes else None,
        )

    for layer in range(depth):
        p = f"layer{layer}."
        # Policy paths use the functional model's scope names (TinyLM
        # pushes block{i}.attn / block{i}.mlp / head), so the same policy
        # document drives the emulation and the compiled schedule.
        attn, mlp = f"block{layer}.attn", f"block{layer}.mlp"
        st.append(_vector_stage(p + "rmsnorm1", "rmsnorm", rows * dim, rms_pe, mem=mem))
        st.append(mm(p + "qkv", rows, dim, 3 * dim, copies=1,
                     layer=attn, role="linear"))
        st.append(mm(p + "scores", n, hd, ctx, copies=n_heads * batch,
                     layer=attn, role="attention"))
        st.append(_vector_stage(p + "softmax", "softmax", batch * n_heads * n * ctx,
                                softmax_pe, mem=mem))
        st.append(mm(p + "context", n, ctx, hd, copies=n_heads * batch,
                     layer=attn, role="attention"))
        st.append(mm(p + "proj", rows, dim, dim, copies=1,
                     layer=attn, role="linear"))
        st.append(_residual_stage(p + "residual1", rows * dim, mem))
        st.append(_vector_stage(p + "rmsnorm2", "rmsnorm", rows * dim, rms_pe, mem=mem))
        st.append(mm(p + "gate", rows, dim, m, copies=1, layer=mlp, role="linear"))
        st.append(mm(p + "up", rows, dim, m, copies=1, layer=mlp, role="linear"))
        st.append(_vector_stage(p + "swiglu", "swiglu", rows * m, swiglu_pe, mem=mem))
        st.append(mm(p + "down", rows, m, dim, copies=1, layer=mlp, role="linear"))
        st.append(_residual_stage(p + "residual2", rows * dim, mem))
    st.append(_vector_stage("final_rmsnorm", "rmsnorm", rows * dim, rms_pe, mem=mem))
    st.append(mm("lm_head", rows, dim, vocab, copies=1, layer="head", role="linear"))
    return _publish_compile(model)
