"""Workload compiler: tile large matmuls onto the 8x8 block fabric.

The compiler plans a dense ``(M, K) @ (K, N)`` multiplication as the
hardware schedule of Section II-D — row-block chunks of at most 64 X blocks
(the PSU depth), output column-block pairs (combined MAC), and one
Y-stationary stream per K block — and reports the analytic cost (streams,
cycles from the ``bfp8_mac`` unit mode, MACs).  :meth:`MatmulPlan.run`
executes the plan on a :class:`MultiModePU`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from repro.cost.modes import get_mode
from repro.errors import ConfigurationError
from repro.formats.blocking import BfpMatrix
from repro.hw.buffers import MAX_X_BLOCKS
from repro.hw.unit import MultiModePU

__all__ = ["MatmulPlan", "plan_matmul"]


@dataclass(frozen=True)
class MatmulPlan:
    """The planned schedule and analytic cost of one tiled matmul."""

    m: int
    k: int
    n: int
    row_blocks: int
    k_blocks: int
    col_blocks: int
    chunks: int  # row-block chunks (<= 64 blocks each)
    col_pairs: int
    streams: int
    stream_len: int  # N_X of a full chunk
    compute_cycles: int
    macs: int

    @property
    def ops(self) -> int:
        """8-bit ops, MAC = 2 (paper convention)."""
        return 2 * self.macs

    @property
    def efficiency(self) -> float:
        """Achieved fraction of the array's peak MAC rate."""
        peak_macs = self.compute_cycles * 128  # 64 DSPs x 2 MACs
        return self.macs / peak_macs if peak_macs else 0.0

    def run(self, a: np.ndarray, b: np.ndarray, pu: MultiModePU | None = None,
            *, engine: str = "fast") -> np.ndarray:
        """Execute the plan; returns the dequantized dense result."""
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.shape != (self.m, self.k) or b.shape != (self.k, self.n):
            raise ConfigurationError("operands do not match the plan")
        pu = pu or MultiModePU()
        out = pu.matmul(
            BfpMatrix.from_dense(a), BfpMatrix.from_dense(b), engine=engine
        )
        return out.to_dense()


def plan_matmul(m: int, k: int, n: int) -> MatmulPlan:
    """Plan ``(m, k) @ (k, n)`` on the 8x8 fabric."""
    if min(m, k, n) <= 0:
        raise ConfigurationError("matmul dimensions must be positive")
    rb, kb, cb = ceil(m / 8), ceil(k / 8), ceil(n / 8)
    chunks = ceil(rb / MAX_X_BLOCKS)
    pairs = ceil(cb / 2)
    streams = chunks * pairs * kb
    # Cycle cost: chunks may be ragged; account exactly.
    bfp8 = get_mode("bfp8_mac")
    cycles = 0
    macs = 0
    for c in range(chunks):
        n_x = min(MAX_X_BLOCKS, rb - c * MAX_X_BLOCKS)
        cycles += bfp8.compute_cycles(n_x) * pairs * kb
        macs += 2 * n_x * 8 * 8 * 8 * pairs * kb
    return MatmulPlan(
        m=m, k=k, n=n,
        row_blocks=rb, k_blocks=kb, col_blocks=cb,
        chunks=chunks, col_pairs=pairs, streams=streams,
        stream_len=min(rb, MAX_X_BLOCKS),
        compute_cycles=cycles, macs=macs,
    )
