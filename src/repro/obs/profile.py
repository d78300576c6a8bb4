"""Layer-level profiler: per-layer, per-precision cycle and op attribution.

A :class:`Profiler` attaches to a :class:`repro.models.backend.
PolicyBackend`; the model pushes named scopes (``block0``, ``block0.attn``,
...) while it runs, and every backend primitive — a linear-layer matmul, a
non-linear evaluation — lands in the current scope with the operation count
it performed and the unit cycles the hardware cost model charges for it.
Matmuls are costed by the :mod:`repro.cost.modes` unit mode they execute
under (:func:`mode_matmul_unit_cycles`):

* **bfp8 / int8 matmuls** (``bfp8_mac``) with the Eqn-9 stream schedule of
  :func:`repro.runtime.compiler.plan_matmul` plus the AXI/HBM memory model
  (the same accounting the compiler's ``_matmul_stage`` uses);
* **fp32 matmuls** (``fp32_vector``) have no array mapping — they are
  charged through the 4-lane vector personality, which is exactly the
  cliff the paper's bfp8 slicing avoids (expect the fp32 backend's matmul
  cycles to dwarf bfp8's);
* **non-linear functions** are charged per element from their compiled
  vector program's static op count (Eqn-10 streams), with host escapes
  (division, max) counted separately.

Everything is analytic and deterministic — no wall clock — so a profile is
a reproducible artifact, comparable across commits.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache

__all__ = [
    "ProfileEntry",
    "Profiler",
    "mode_matmul_unit_cycles",
    "fp32_elementwise_cycles",
    "nonlinear_op_counts",
]


@lru_cache(maxsize=4096)
def mode_matmul_unit_cycles(m: int, k: int, n: int, mode: str) -> int:
    """Unit-occupancy cycles of ``(m,k) @ (k,n)`` under a registered
    unit mode: the stream schedule and memory-inclusive per-stream cost
    of :meth:`repro.cost.modes.UnitMode.matmul_cost`, matching the
    compiler's stage costing."""
    from repro.cost.modes import get_mode

    return get_mode(mode).matmul_cost(m, k, n).total_cycles


def fp32_elementwise_cycles(n_ops: int) -> int:
    """Cycles for ``n_ops`` elementwise fp32 operations on the vector unit."""
    from repro.cost.modes import FP32_STREAM_LENGTH, vector_chunks
    from repro.perf.latency import measured_fp32_stream_cycles

    if n_ops <= 0:
        return 0
    return vector_chunks(n_ops) * measured_fp32_stream_cycles(FP32_STREAM_LENGTH)


@lru_cache(maxsize=None)
def nonlinear_op_counts(kind: str) -> tuple[int, int]:
    """``(fpu_ops, host_ops)`` per element of a non-linear function.

    Taken from the compiled vector program's static op count; unknown
    kinds fall back to one mul + one add per element.
    """
    from repro.runtime import vector_ops

    builders = {
        "softmax": vector_ops.build_softmax,
        "gelu": vector_ops.build_gelu,
        "layernorm": vector_ops.build_layernorm,
        "rmsnorm": vector_ops.build_rmsnorm,
        "silu": vector_ops.build_silu,
        "swiglu": vector_ops.build_swiglu,
    }
    builder = builders.get(kind)
    if builder is None:
        return 2, 0
    pe = builder().static_op_count()
    return pe.fpu_total, pe.host


@dataclass
class ProfileEntry:
    """Accumulated cost of one (scope, precision, kind) bucket."""

    calls: int = 0
    ops: float = 0.0
    cycles: int = 0
    host_ops: float = 0.0


@dataclass
class Profiler:
    """Scope-stacked attribution of backend operations.

    Scopes nest (``block0`` -> ``block0.attn``); costs land in the
    innermost scope only, so summing all entries never double-counts.
    """

    entries: dict[tuple[str, str, str], ProfileEntry] = field(default_factory=dict)
    _stack: list[str] = field(default_factory=list)

    @contextmanager
    def scope(self, name: str):
        self._stack.append(name)
        try:
            yield self
        finally:
            self._stack.pop()

    @property
    def current_scope(self) -> str:
        return ".".join(self._stack) if self._stack else "<root>"

    # -- recording -----------------------------------------------------------
    def record(
        self,
        *,
        kind: str,
        precision: str,
        ops: float,
        cycles: int,
        host_ops: float = 0.0,
    ) -> None:
        key = (self.current_scope, precision, kind)
        e = self.entries.get(key)
        if e is None:
            e = self.entries[key] = ProfileEntry()
        e.calls += 1
        e.ops += ops
        e.cycles += cycles
        e.host_ops += host_ops

    def record_matmul(
        self, m: int, k: int, n: int, *, precision: str, mode: str
    ) -> None:
        """One matmul under a format's precision label, costed in the
        :mod:`repro.cost.modes` unit mode it executes under (``"bfp8_mac"``,
        ``"fp16_dot"``, or ``"fp32_vector"`` — every MAC through the
        vector unit)."""
        self.record(kind="matmul", precision=precision, ops=2.0 * m * k * n,
                    cycles=mode_matmul_unit_cycles(m, k, n, mode))

    def record_quantize(self, elements: int, *, precision: str) -> None:
        """Operand quantization the *emulation* performed for a matmul.

        The modeled hardware quantizes weights offline (Y-stationary
        residency) and activations in the streaming datapath, so no unit
        cycles are charged — the bucket exists to make the emulation's
        own quantization work visible, and to show it collapsing once
        the prepared-operand cache serves weights from residency.
        """
        self.record(kind="quantize", precision=precision,
                    ops=float(elements), cycles=0)

    def record_nonlinear(self, kind: str, elements: int, *, precision: str) -> None:
        fpu_per_el, host_per_el = nonlinear_op_counts(kind)
        fpu_ops = elements * fpu_per_el
        self.record(
            kind=kind,
            precision=precision,
            ops=2.0 * fpu_ops,
            cycles=fp32_elementwise_cycles(fpu_ops),
            host_ops=float(elements * host_per_el),
        )

    # -- summaries -----------------------------------------------------------
    def total_cycles(self) -> int:
        return sum(e.cycles for e in self.entries.values())

    def by_precision(self) -> dict[str, dict]:
        out: dict[str, dict] = {}
        for (_, precision, _), e in sorted(self.entries.items()):
            g = out.setdefault(
                precision, {"calls": 0, "ops": 0.0, "cycles": 0, "host_ops": 0.0}
            )
            g["calls"] += e.calls
            g["ops"] += e.ops
            g["cycles"] += e.cycles
            g["host_ops"] += e.host_ops
        return out

    def by_scope(self, depth: int = 1) -> dict[str, dict]:
        """Aggregate to the top ``depth`` scope components (layer view)."""
        out: dict[str, dict] = {}
        for (scope, _, _), e in sorted(self.entries.items()):
            top = ".".join(scope.split(".")[:depth])
            g = out.setdefault(
                top, {"calls": 0, "ops": 0.0, "cycles": 0, "host_ops": 0.0}
            )
            g["calls"] += e.calls
            g["ops"] += e.ops
            g["cycles"] += e.cycles
            g["host_ops"] += e.host_ops
        return out

    def as_dict(self) -> dict:
        total = self.total_cycles()
        rows = []
        for (scope, precision, kind), e in sorted(
            self.entries.items(), key=lambda kv: (-kv[1].cycles, kv[0])
        ):
            rows.append(
                {
                    "scope": scope,
                    "precision": precision,
                    "kind": kind,
                    "calls": e.calls,
                    "ops": e.ops,
                    "cycles": e.cycles,
                    "host_ops": e.host_ops,
                    "cycles_pct": 100.0 * e.cycles / total if total else 0.0,
                }
            )
        return {
            "entries": rows,
            "by_precision": self.by_precision(),
            "total_cycles": total,
        }

    def table(self, title: str = "profile") -> str:
        from repro.eval.reporting import render_table

        doc = self.as_dict()
        rows = [
            (
                r["scope"], r["precision"], r["kind"], r["calls"],
                f"{r['ops']:.3g}", r["cycles"], f"{r['cycles_pct']:.1f}",
                int(r["host_ops"]),
            )
            for r in doc["entries"]
        ]
        return render_table(
            ["scope", "precision", "kind", "calls", "ops", "cycles",
             "cycles%", "host_ops"],
            rows,
            title=title,
        )
