"""Hardware self-test: one call that cross-checks every datapath.

Mirrors the power-on self-test a deployed accelerator would run: random
workloads through (a) the vectorized cycle simulator, (b) the scalar
port-level PE co-simulation, (c) the fast functional engines and (d) the
numerical oracles, asserting bit-identity or the documented error bounds.
Returns a report; raises on any mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arith.bfp_matmul import bfp_matmul
from repro.arith.fp_sliced import sliced_multiply
from repro.errors import HardwareContractError
from repro.formats import fp32bits
from repro.formats.blocking import BfpMatrix
from repro.hw.cosim import ScalarArray
from repro.hw.systolic import SystolicArray
from repro.hw.unit import MultiModePU

__all__ = ["SelfTestReport", "run_self_test"]


@dataclass
class SelfTestReport:
    checks: list[str] = field(default_factory=list)
    seed: int = 0

    def record(self, name: str) -> None:
        self.checks.append(name)

    @property
    def passed(self) -> int:
        return len(self.checks)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"self-test: {self.passed} checks passed (seed {self.seed})"


def run_self_test(seed: int = 0) -> SelfTestReport:
    """Cross-check every datapath on randomized workloads."""
    # Imported on use: the cost registry reaches this package through the
    # matmul planner.
    from repro.cost.modes import get_mode

    rng = np.random.default_rng(seed)
    report = SelfTestReport(seed=seed)

    # 1. bfp8 stream: vectorized vs scalar co-sim vs exact integers.
    y_hi = rng.integers(-127, 128, (8, 8))
    y_lo = rng.integers(-127, 128, (8, 8))
    x = rng.integers(-127, 128, (3, 8, 8))
    arr = SystolicArray()
    arr.load_y_pair(y_hi, y_lo)
    vec = arr.run_bfp8_stream(x)
    s_hi, s_lo, s_cycles = ScalarArray().run_bfp8_stream(x, y_hi, y_lo)
    if not (
        np.array_equal(vec.z_hi, s_hi)
        and np.array_equal(vec.z_lo, s_lo)
        and vec.cycles == s_cycles == get_mode("bfp8_mac").compute_cycles(3)
    ):
        raise HardwareContractError("bfp8 co-simulation mismatch")
    for i in range(3):
        if not np.array_equal(vec.z_hi[i], x[i] @ y_hi):
            raise HardwareContractError("bfp8 product mismatch vs exact")
    report.record("bfp8 stream: vectorized == scalar co-sim == exact")

    # 2. fp32 multiply: cycle sim vs vectorized sliced multiply, and the
    #    scalar cascade accumulators.
    fx = rng.normal(size=(4, 5)).astype(np.float32)
    fy = rng.normal(size=(4, 5)).astype(np.float32)
    sx, ex, mx = fp32bits.decompose(fx)
    sy, ey, my = fp32bits.decompose(fy)
    res = arr.run_fp32_mul_stream(mx, my, sx, sy, ex, ey)
    if not np.array_equal(res.results, sliced_multiply(fx, fy)):
        raise HardwareContractError("fp32 mul cycle-vs-vectorized mismatch")
    if not np.array_equal(
        res.accumulators, ScalarArray().run_fp32_mul_accumulators(mx, my)
    ):
        raise HardwareContractError("fp32 cascade co-simulation mismatch")
    report.record("fp32 multiply: cycle == vectorized == scalar cascade")

    # 3. Full PU matmul: fast engine vs cycle engine vs oracle.
    a = BfpMatrix.from_dense(rng.normal(size=(16, 24)))
    b = BfpMatrix.from_dense(rng.normal(size=(24, 16)))
    fast = MultiModePU().matmul(a, b, engine="fast")
    cyc = MultiModePU().matmul(a, b, engine="cycle")
    oracle = bfp_matmul(a, b)
    if not (
        np.array_equal(fast.mantissas, cyc.mantissas)
        and np.array_equal(fast.mantissas, oracle.mantissas)
    ):
        raise HardwareContractError("PU matmul engines disagree")
    report.record("PU matmul: fast == cycle == oracle")

    # 4. fp32 ops through the PU within the documented error bounds.
    pu = MultiModePU()
    v = rng.normal(size=100).astype(np.float32)
    w = rng.normal(size=100).astype(np.float32)
    prod = pu.fp32_multiply(v, w)
    exact = v.astype(np.float64) * w.astype(np.float64)
    if (np.abs(prod - exact) > np.abs(exact) * 2.0**-22 + 1e-300).any():
        raise HardwareContractError("fp32 multiply error bound violated")
    total = pu.fp32_add(v, w)
    exact_sum = v.astype(np.float64) + w.astype(np.float64)
    ulp = np.spacing(np.abs(exact_sum).astype(np.float32)).astype(np.float64)
    if (np.abs(total - exact_sum) > 2 * ulp + 1e-300).any():
        raise HardwareContractError("fp32 add error bound violated")
    report.record("fp32 vector ops within documented bounds")

    return report
