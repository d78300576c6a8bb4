"""The multi-mode processing unit (PU): the paper's primary contribution.

A :class:`MultiModePU` assembles the whole Fig. 2 microarchitecture — X/Y
buffers, the 8x8 systolic array, exponent unit, per-column shifters and
accumulators with PSU buffers, the fp32 layout converter, the output
quantizer and the run-time controller — and exposes the three workload
types:

* :meth:`matmul` — tiled bfp8 matrix multiplication (Y-stationary streams,
  combined MAC, aligned cross-block accumulation, output requantization);
* :meth:`fp32_multiply` — fp32 vector multiply on the reconfigured array
  (4 FPU columns, sliced mantissas);
* :meth:`fp32_add` — fp32 vector add on the shifter/ACC path (DSPs idle).

Each method supports two engines:

* ``engine="cycle"`` drives the register-accurate simulator and produces
  emergent cycle counts — the ground truth, but slow;
* ``engine="fast"`` (default) uses the bit-identical vectorized arithmetic
  from :mod:`repro.arith` and the unit-mode registry's stream cycles
  (:meth:`repro.cost.modes.UnitMode.compute_cycles`, Eqns 9/10), which
  the test suite holds equal to the cycle engine's emergent counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arith.bfp_matmul import WideBlock, accumulate
from repro.arith.fp_align_add import aligned_add
from repro.arith.fp_sliced import sliced_multiply
from repro.errors import ConfigurationError, HardwareContractError
from repro.formats import fp32bits
from repro.formats.bfp8 import BfpBlock
from repro.formats.blocking import BfpMatrix
from repro.hw.accumulator import PSU_DEPTH, ColumnAccumulator
from repro.hw.buffers import (
    FP32_LANES,
    MAX_FP32_STREAM,
    MAX_X_BLOCKS,
    XBuffer,
    YBuffer,
)
from repro.hw.controller import Controller, Mode
from repro.hw.exponent_unit import ExponentUnit
from repro.hw.layout_converter import LayoutConverter
from repro.hw.quantizer import OutputQuantizer
from repro.hw.systolic import FP32_COLS, SystolicArray
from repro.obs.metrics import get_registry

__all__ = ["MultiModePU", "PUStats"]


def _compute_cycles(mode: str, length: int) -> int:
    """Compute cycles of one stream under a registered unit mode.

    Imported on use: :mod:`repro.cost` prices matmuls through
    :mod:`repro.runtime.compiler`, which imports this module.
    """
    from repro.cost.modes import get_mode

    return get_mode(mode).compute_cycles(length)


def _fp32_streams(n: int):
    """``(start, elements, L)`` of each ``(lanes, L)`` stream, L <= 128
    (buffer capacity), that carries ``n`` elementwise operations."""
    per_stream = FP32_LANES * MAX_FP32_STREAM
    for start in range(0, n, per_stream):
        m = min(per_stream, n - start)
        yield start, m, -(-m // FP32_LANES)


@dataclass
class PUStats:
    """Cycle and operation accounting for one PU."""

    cycles_bfp: int = 0
    cycles_fp32_mul: int = 0
    cycles_fp32_add: int = 0
    cycles_reconfig: int = 0
    bfp_macs: int = 0  # useful 8-bit MACs performed
    fp32_mul_ops: int = 0
    fp32_add_ops: int = 0
    bfp_streams: int = 0
    fp32_streams: int = 0
    blocks_quantized: int = 0

    @property
    def cycles_total(self) -> int:
        return (
            self.cycles_bfp
            + self.cycles_fp32_mul
            + self.cycles_fp32_add
            + self.cycles_reconfig
        )

    def merge(self, other: "PUStats") -> "PUStats":
        out = PUStats()
        for f in self.__dataclass_fields__:
            setattr(out, f, getattr(self, f) + getattr(other, f))
        return out

    def bfp_throughput_ops(self, freq_hz: float) -> float:
        """Achieved bfp8 OPS (MAC = 2 ops) at a clock frequency."""
        if self.cycles_bfp == 0:
            return 0.0
        return 2.0 * self.bfp_macs * freq_hz / self.cycles_bfp

    def fp32_throughput_flops(self, freq_hz: float) -> float:
        """Achieved fp32 FLOPS (each mul/add = 2 FLOPs, paper convention)."""
        cycles = self.cycles_fp32_mul + self.cycles_fp32_add
        if cycles == 0:
            return 0.0
        ops = self.fp32_mul_ops + self.fp32_add_ops
        return 2.0 * ops * freq_hz / cycles


@dataclass
class MultiModePU:
    """One reconfigurable bfp8/fp32 processing unit."""

    rows: int = 8
    cols: int = 8
    array: SystolicArray = field(default_factory=SystolicArray)
    x_buffer: XBuffer = field(default_factory=XBuffer)
    y_buffer: YBuffer = field(default_factory=YBuffer)
    eu: ExponentUnit = field(default_factory=ExponentUnit)
    converter: LayoutConverter = field(default_factory=LayoutConverter)
    quantizer: OutputQuantizer = field(default_factory=OutputQuantizer)
    controller: Controller = field(default_factory=Controller)
    stats: PUStats = field(default_factory=PUStats)

    def __post_init__(self) -> None:
        # Two accumulator banks per column: one per packed Y field.
        self._acc_banks = [
            [ColumnAccumulator() for _ in range(self.cols)] for _ in range(2)
        ]

    # ------------------------------------------------------------------ bfp8
    def matmul(
        self, a: BfpMatrix, b: BfpMatrix, *, engine: str = "fast"
    ) -> BfpMatrix:
        """Tiled bfp8 MatMul ``a @ b`` with full hardware semantics.

        The schedule follows Section II-D: for each output row-block chunk
        (at most 64 X blocks, the PSU depth), for each pair of output column
        blocks, the unit iterates over the K dimension with a Y-stationary
        stream per (K block, pair).
        """
        if engine not in ("fast", "cycle"):
            raise ConfigurationError(f"unknown engine {engine!r}")
        if a.shape[1] != b.shape[0]:
            raise ConfigurationError(f"shape mismatch: {a.shape} @ {b.shape}")
        bfp0, reconfig0 = self.stats.cycles_bfp, self.stats.cycles_reconfig
        self.stats.cycles_reconfig += self.controller.set_mode(Mode.BFP_MATMUL)
        rb, kb = a.block_grid
        _, cb = b.block_grid
        r, c = self.rows, self.cols
        out_man = np.zeros((rb, cb, r, c), dtype=np.int16)
        out_exp = np.zeros((rb, cb), dtype=np.int16)

        for ib0 in range(0, rb, MAX_X_BLOCKS):
            chunk = list(range(ib0, min(ib0 + MAX_X_BLOCKS, rb)))
            for jb0 in range(0, cb, 2):
                pair = [jb0, jb0 + 1] if jb0 + 1 < cb else [jb0]
                psus = self._run_pair_streams(a, b, chunk, pair, kb, engine)
                for slot, jb in enumerate(pair):
                    for pos, ib in enumerate(chunk):
                        q = self.quantizer.quantize(
                            psus[slot][pos].mantissas, psus[slot][pos].exponent
                        )
                        out_man[ib, jb] = q.mantissas
                        out_exp[ib, jb] = q.exponent
                        self.stats.blocks_quantized += 1
        reg = get_registry()
        if reg.enabled:
            # DSP-mode occupancy, published per matmul call (cycle deltas).
            reg.counter("hw.pu.matmuls").inc()
            reg.counter("hw.pu.occupancy.bfp8").inc(self.stats.cycles_bfp - bfp0)
            reg.counter("hw.pu.occupancy.reconfig").inc(
                self.stats.cycles_reconfig - reconfig0
            )
        return BfpMatrix(out_man, out_exp, (a.shape[0], b.shape[1]))

    def _run_pair_streams(
        self,
        a: BfpMatrix,
        b: BfpMatrix,
        chunk: list[int],
        pair: list[int],
        kb: int,
        engine: str,
    ) -> list[list[WideBlock]]:
        """All K streams for one (row chunk, column pair); returns PSUs."""
        n_x = len(chunk)
        reg = get_registry()
        if reg.enabled:
            # Pressure on the per-column PSU banks and the X buffer: how
            # full the chunking left them (1.0 = at the hardware bound).
            reg.histogram("hw.pu.psu_fill").observe(n_x * self.rows / PSU_DEPTH)
            reg.histogram("hw.pu.xbuffer_fill").observe(n_x / MAX_X_BLOCKS)
        psus: list[list[WideBlock | None]] = [
            [None] * n_x for _ in range(2)
        ]
        for bk in range(kb):
            y_hi = b.block(bk, pair[0])
            y_lo = (
                b.block(bk, pair[1])
                if len(pair) > 1
                else BfpBlock(np.zeros((self.rows, self.cols), np.int8), -128)
            )
            x_blocks = [a.block(ib, bk) for ib in chunk]
            if engine == "cycle":
                self.y_buffer.load_bfp_pair(y_hi, y_lo)
                self.x_buffer.load_bfp_blocks(x_blocks)
                self.array.load_y_pair(y_hi.mantissas, y_lo.mantissas)
                x_man = np.stack([blk.mantissas for blk in x_blocks]).astype(np.int64)
                result = self.array.run_bfp8_stream(x_man)
                z = [result.z_hi, result.z_lo]
                cycles = result.cycles
            else:
                z_hi = np.stack(
                    [
                        (blk.mantissas.astype(np.int64) @ y_hi.mantissas.astype(np.int64))
                        for blk in x_blocks
                    ]
                )
                z_lo = np.stack(
                    [
                        (blk.mantissas.astype(np.int64) @ y_lo.mantissas.astype(np.int64))
                        for blk in x_blocks
                    ]
                )
                z = [z_hi, z_lo]
                cycles = _compute_cycles("bfp8_mac", n_x)
            self.stats.cycles_bfp += cycles
            self.stats.bfp_streams += 1
            self.stats.bfp_macs += 2 * n_x * self.rows * self.rows * self.cols
            for slot, y_blk in enumerate((y_hi, y_lo)):
                for pos, ib in enumerate(chunk):
                    exp = self.eu.add(x_blocks[pos].exponent, y_blk.exponent)
                    incoming = WideBlock(np.asarray(z[slot][pos]), exp)
                    psus[slot][pos] = accumulate(psus[slot][pos], incoming)
        # PSU depth contract: n_x blocks * rows addresses per column bank.
        if n_x * self.rows > PSU_DEPTH:
            raise HardwareContractError("PSU depth exceeded")  # pragma: no cover
        return [[p for p in bank if p is not None] for bank in psus]

    # ------------------------------------------------------------------ fp32
    def fp32_multiply(
        self, x: np.ndarray, y: np.ndarray, *, engine: str = "fast"
    ) -> np.ndarray:
        """Elementwise fp32 multiply of equal-shape arrays on the FPU columns."""
        return self._fp32_op(x, y, "mul", engine)

    def fp32_add(
        self, x: np.ndarray, y: np.ndarray, *, engine: str = "fast"
    ) -> np.ndarray:
        """Elementwise fp32 add on the shifter/ACC path."""
        return self._fp32_op(x, y, "add", engine)

    def _fp32_op(
        self, x: np.ndarray, y: np.ndarray, op: str, engine: str
    ) -> np.ndarray:
        if engine not in ("fast", "cycle"):
            raise ConfigurationError(f"unknown engine {engine!r}")
        x = np.asarray(x, dtype=np.float32)
        y = np.asarray(y, dtype=np.float32)
        if x.shape != y.shape:
            raise ConfigurationError("fp32 op requires equal shapes")
        n = x.size
        if n == 0:
            self._charge_fp32(op, 0, 0, 0)
            return x.copy()
        flat_x = x.reshape(-1)
        flat_y = y.reshape(-1)

        outs = []
        cycles = 0
        for s0, m, lanes_len in _fp32_streams(n):
            pad = lanes_len * FP32_LANES - m
            sx = np.pad(flat_x[s0 : s0 + m], (0, pad)).reshape(FP32_LANES, lanes_len)
            sy = np.pad(flat_y[s0 : s0 + m], (0, pad)).reshape(FP32_LANES, lanes_len)
            if engine == "cycle":
                res, c = self._fp32_stream_cycle(sx, sy, op)
            else:
                res = (
                    sliced_multiply(sx, sy) if op == "mul" else aligned_add(sx, sy)
                )
                c = _compute_cycles("fp32_vector", lanes_len)
            cycles += c
            outs.append(res.reshape(-1)[:m])
        self._charge_fp32(op, n, cycles, len(outs))
        return np.concatenate(outs).reshape(x.shape).astype(np.float32)

    def account_fp32(self, op: str, n: int) -> None:
        """Charge ``n`` elementwise fp32 ops (``op`` is ``"mul"`` or
        ``"add"``) at the fast engine's stream cycles, without computing
        them: the accounting of an IEEE stand-in for the datapath."""
        lengths = [length for _, _, length in _fp32_streams(n)]
        cycles = sum(_compute_cycles("fp32_vector", L) for L in lengths)
        self._charge_fp32(op, n, cycles, len(lengths))

    def _charge_fp32(self, op: str, n: int, cycles: int, streams: int) -> None:
        """The one place an fp32 op is charged: the mode switch, the
        stream cycles and counts, and the occupancy counters."""
        mode = Mode.FP32_MUL if op == "mul" else Mode.FP32_ADD
        self.stats.cycles_reconfig += self.controller.set_mode(mode)
        if op == "mul":
            self.stats.cycles_fp32_mul += cycles
            self.stats.fp32_mul_ops += n
        else:
            self.stats.cycles_fp32_add += cycles
            self.stats.fp32_add_ops += n
        self.stats.fp32_streams += streams
        reg = get_registry()
        if reg.enabled and streams:
            reg.counter(f"hw.pu.occupancy.fp32_{op}").inc(cycles)
            reg.counter("hw.pu.fp32_streams").inc(streams)

    def _fp32_stream_cycle(
        self, sx: np.ndarray, sy: np.ndarray, op: str
    ) -> tuple[np.ndarray, int]:
        """One stream on the cycle engine (buffers loaded, array driven)."""
        self.x_buffer.load_fp32(sx)
        self.y_buffer.load_fp32(sy)
        L = sx.shape[1]
        s_x = np.zeros((FP32_COLS, L), np.int64)
        e_x = np.zeros((FP32_COLS, L), np.int64)
        m_x = np.zeros((FP32_COLS, L), np.int64)
        s_y = np.zeros_like(s_x)
        e_y = np.zeros_like(e_x)
        m_y = np.zeros_like(m_x)
        for lane in range(FP32_COLS):
            for pos in range(L):
                s_x[lane, pos], e_x[lane, pos], m_x[lane, pos] = self.x_buffer.read_fp32(
                    lane, pos
                )
                s_y[lane, pos], e_y[lane, pos], m_y[lane, pos] = self.y_buffer.read_fp32(
                    lane, pos
                )
        if op == "mul":
            r = self.array.run_fp32_mul_stream(m_x, m_y, s_x, s_y, e_x, e_y)
            return r.results, r.cycles
        # fpadd: DSPs idle; exponent unit + shifter + ACC, one element per
        # lane per cycle.  The paper gives no stage-level add pipeline, so a
        # counting model could only restate Eqn 10: the count is the
        # registry's, the same as the fast engine's.
        out = np.zeros((FP32_COLS, L), dtype=np.float32)
        for lane in range(FP32_COLS):
            for pos in range(L):
                out[lane, pos] = self._fpadd_element(
                    (int(s_x[lane, pos]), int(e_x[lane, pos]), int(m_x[lane, pos])),
                    (int(s_y[lane, pos]), int(e_y[lane, pos]), int(m_y[lane, pos])),
                )
        return out, _compute_cycles("fp32_vector", L)

    def _fpadd_element(
        self, xa: tuple[int, int, int], yb: tuple[int, int, int]
    ) -> float:
        """One fpadd through EU + alignment shifter + 48-bit ACC + normalizer.

        Mirrors :func:`repro.arith.fp_align_add.aligned_add` element-wise
        (bit-identity asserted in tests): operands enter the wide
        accumulator with 24 guard bits, so alignment is exact within the
        48-bit window.
        """
        from repro.arith.fp_align_add import GUARD_BITS, MAX_ALIGN_SHIFT

        sx, ex, mx = xa
        sy, ey, my = yb
        if mx == 0 and my == 0:
            return 0.0
        if mx == 0:
            ex = ey
        if my == 0:
            ey = ex
        exp, d_x, d_y = self.eu.align(ex, ey)
        smx = -mx if sx else mx
        smy = -my if sy else my
        total = ((smx << GUARD_BITS) >> min(d_x, MAX_ALIGN_SHIFT)) + (
            (smy << GUARD_BITS) >> min(d_y, MAX_ALIGN_SHIFT)
        )
        if total == 0:
            return 0.0
        sign = 1 if total < 0 else 0
        man, shift = self.array._normalizer.normalize(abs(total))
        exp_out = exp + shift - GUARD_BITS
        if exp_out >= fp32bits.EXP_SPECIAL:
            raise HardwareContractError("fpadd exponent overflow")
        if exp_out < 1:
            return 0.0
        return float(
            fp32bits.compose(np.uint32(sign), np.int64(exp_out), np.int64(man))
        )
