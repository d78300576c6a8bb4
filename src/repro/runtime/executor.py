"""Vector-program executor: FPU opcodes on the simulated unit, host ops on NumPy.

The executor is the software half of the paper's mixed-precision runtime: a
program's VMUL/VADD-class instructions run through the bit-faithful fp32
datapath (sliced multiply / aligned add) with Eqn-10 cycle accounting, and
host opcodes run in IEEE double on the CPU side, exactly mirroring the
paper's division escape hatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ProgramError
from repro.hw.unit import MultiModePU
from repro.obs.metrics import get_registry
from repro.runtime.instructions import FPU_OPS, Instr, OpCode, OpCount, Program

__all__ = ["VectorExecutor", "ExecutionTrace"]


@dataclass
class ExecutionTrace:
    """What one program run did: op counts and element totals."""

    program: str
    elements: int
    counts: OpCount = field(default_factory=OpCount)
    host_ops: list[str] = field(default_factory=list)

    @property
    def fpu_flops(self) -> int:
        """FLOPs executed on the FPU (paper convention: 1 op = 2 FLOPs)."""
        return 2 * self.counts.fpu_total


@dataclass
class VectorExecutor:
    """Executes :class:`Program` objects against a :class:`MultiModePU`.

    ``faithful=True`` routes every FPU op through the simulated datapath
    (bit-accurate, slower); ``faithful=False`` uses IEEE float32 NumPy ops
    with identical cycle/op accounting — the two agree to the datapath's
    documented error bounds (property-tested), so accuracy studies may use
    the fast path.

    ``precision`` selects the vector unit's float format: ``"fp32"`` (the
    paper's), or the extension formats ``"bf16"``/``"fp16"`` (paper
    Section V future work) in which every FPU result is snapped to the
    half-precision grid and multiplies go through the half sliced
    datapath.  Half precision implies the fast execution path.
    """

    pu: MultiModePU = field(default_factory=MultiModePU)
    faithful: bool = True
    precision: str = "fp32"

    def __post_init__(self) -> None:
        if self.precision not in ("fp32", "bf16", "fp16"):
            raise ProgramError(f"unknown precision {self.precision!r}")
        if self.precision != "fp32":
            self.faithful = False
            from repro.formats.halfprec import HALF_FORMATS

            self._half = HALF_FORMATS[self.precision]
        else:
            self._half = None

    def run(
        self, program: Program, inputs: dict[str, np.ndarray]
    ) -> tuple[np.ndarray, ExecutionTrace]:
        program.validate()
        missing = [k for k in program.inputs if k not in inputs]
        if missing:
            raise ProgramError(f"missing program inputs: {missing}")
        regs: dict[str, np.ndarray] = {
            k: np.asarray(v, dtype=np.float32) for k, v in inputs.items()
        }
        base_shape = regs[program.inputs[0]].shape
        n_el = int(np.prod(base_shape)) if base_shape else 1
        trace = ExecutionTrace(program.name, n_el)

        for ins in program.instrs:
            regs[ins.dst] = self._execute(ins, regs, trace)
        out = regs[program.output]
        reg = get_registry()
        if reg.enabled:
            # Where the program's work went: FPU ops on the unit vs the
            # paper's host escapes (division, max, ...) on the CPU side.
            reg.counter("runtime.executor.programs").inc()
            reg.counter("runtime.executor.fpu_ops").inc(trace.counts.fpu_total)
            reg.counter("runtime.executor.host_ops").inc(trace.counts.host)
            for op in trace.host_ops:
                reg.counter(f"runtime.executor.host_escapes.{op}").inc()
        return out.astype(np.float32), trace

    # ------------------------------------------------------------------
    def _execute(
        self, ins: Instr, regs: dict[str, np.ndarray], trace: ExecutionTrace
    ) -> np.ndarray:
        a = regs[ins.a]
        b = regs[ins.b] if ins.b is not None else None

        if ins.op in FPU_OPS:
            return self._execute_fpu(ins, a, b, trace)

        trace.counts.host += a.size
        trace.host_ops.append(ins.op.value)
        if ins.op is OpCode.HDIV:
            assert b is not None
            return (a.astype(np.float64) / b.astype(np.float64)).astype(np.float32)
        if ins.op is OpCode.HRECIP:
            return (1.0 / a.astype(np.float64)).astype(np.float32)
        if ins.op is OpCode.HRSQRT:
            return (1.0 / np.sqrt(a.astype(np.float64))).astype(np.float32)
        if ins.op is OpCode.HMAX:
            return np.max(a, axis=-1, keepdims=True).astype(np.float32)
        if ins.op is OpCode.HFLOOR:
            return np.floor(a).astype(np.float32)
        if ins.op is OpCode.HEXP2I:
            return np.exp2(a.astype(np.float64)).astype(np.float32)
        if ins.op is OpCode.HCLAMP:
            lo, hi = ins.imm  # type: ignore[misc]
            return np.clip(a, lo, hi).astype(np.float32)
        raise ProgramError(f"unhandled opcode {ins.op}")  # pragma: no cover

    def _execute_fpu(
        self,
        ins: Instr,
        a: np.ndarray,
        b: np.ndarray | None,
        trace: ExecutionTrace,
    ) -> np.ndarray:
        op = ins.op
        if op is OpCode.VREDSUM:
            # Row-sum as a log-depth tree of FPU adds over the trailing axis.
            trace.counts.fpu_add += max(a.shape[-1] - 1, 0) * (
                a.size // max(a.shape[-1], 1)
            )
            return self._tree_sum(a)
        if op is OpCode.VMULI:
            b = np.full_like(a, np.float32(ins.imm))  # broadcast constant
            op = OpCode.VMUL
        elif op is OpCode.VADDI:
            b = np.full_like(a, np.float32(ins.imm))
            op = OpCode.VADD
        assert b is not None
        a_b, b_b = np.broadcast_arrays(a, b)
        if op is OpCode.VMUL:
            trace.counts.fpu_mul += a_b.size
            if self._half is not None:
                from repro.arith.fp_sliced_half import sliced_multiply_half

                self.pu.account_fp32("mul", a_b.size)
                return sliced_multiply_half(a_b, b_b, self._half)
            if self.faithful:
                return self.pu.fp32_multiply(a_b, b_b)
            self.pu.account_fp32("mul", a_b.size)
            return (a_b * b_b).astype(np.float32)
        if op is OpCode.VSUB:
            b_b = np.negative(b_b)  # sign flip is free in signed magnitude
            op = OpCode.VADD
        if op is OpCode.VADD:
            trace.counts.fpu_add += a_b.size
            if self._half is not None:
                from repro.formats.halfprec import quantize_half

                self.pu.account_fp32("add", a_b.size)
                return quantize_half(
                    (a_b.astype(np.float64) + b_b.astype(np.float64)).astype(np.float32),
                    self._half,
                )
            if self.faithful:
                return self.pu.fp32_add(a_b, b_b)
            self.pu.account_fp32("add", a_b.size)
            return (a_b + b_b).astype(np.float32)
        raise ProgramError(f"unhandled FPU opcode {ins.op}")  # pragma: no cover

    def _tree_sum(self, a: np.ndarray) -> np.ndarray:
        """Pairwise reduction over the trailing axis through the FPU."""
        work = a
        while work.shape[-1] > 1:
            n = work.shape[-1]
            half = n // 2
            lo, hi = work[..., :half], work[..., half : 2 * half]
            if self._half is not None:
                from repro.formats.halfprec import quantize_half

                self.pu.account_fp32("add", lo.size)
                merged = quantize_half((lo + hi).astype(np.float32), self._half)
            elif self.faithful:
                merged = self.pu.fp32_add(lo, hi)
            else:
                self.pu.account_fp32("add", lo.size)
                merged = (lo + hi).astype(np.float32)
            if n % 2:
                merged = np.concatenate([merged, work[..., -1:]], axis=-1)
            work = merged
        return work
