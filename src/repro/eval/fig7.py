"""Fig. 7: measured vs theoretical throughput under different workloads.

Theoretical curves are Eqns 9/10; "measured" runs the cycle simulator's
compute counts through the AXI/HBM memory model (and, on request, the full
register-accurate simulator).  Shapes to match the paper: throughput rises
toward theory as the stream lengthens; bfp8 gets close at N_X = 64 while
fp32 stays well below theory (short-burst random access).
"""

from __future__ import annotations

from repro.cost.modes import get_mode
from repro.eval.reporting import header, render_series
from repro.hw.systolic import SystolicArray
from repro.perf.latency import (
    measured_bfp_throughput_ops,
    measured_fp32_throughput_flops,
)
from repro.perf.related_work import PAPER_OURS
from repro.perf.throughput import bfp_throughput_ops, fp32_throughput_flops

__all__ = ["BFP_SWEEP", "FP32_SWEEP", "bfp_series", "fp32_series", "run"]

BFP_SWEEP = (8, 16, 32, 64)
FP32_SWEEP = (16, 32, 64, 128)


def bfp_series(verify_cycles: bool = False) -> dict[str, list[float]]:
    """GOPS per unit: theoretical vs measured over the N_X sweep."""
    theo, meas = [], []
    for n_x in BFP_SWEEP:
        theo.append(bfp_throughput_ops(n_x) / 1e9)
        meas.append(measured_bfp_throughput_ops(n_x) / 1e9)
        if verify_cycles:
            import numpy as np

            arr = SystolicArray()
            rng = np.random.default_rng(n_x)
            arr.load_y_pair(
                rng.integers(-127, 128, (8, 8)), rng.integers(-127, 128, (8, 8))
            )
            res = arr.run_bfp8_stream(rng.integers(-127, 128, (n_x, 8, 8)))
            assert res.cycles == get_mode("bfp8_mac").compute_cycles(n_x), (
                "cycle model drift"
            )
    return {"theoretical_GOPS": theo, "measured_GOPS": meas,
            "measured/theoretical": [m / t for m, t in zip(meas, theo)]}


def fp32_series() -> dict[str, list[float]]:
    """GFLOPS per unit: theoretical vs measured over the L sweep."""
    theo, meas = [], []
    for L in FP32_SWEEP:
        theo.append(fp32_throughput_flops(L) / 1e9)
        meas.append(measured_fp32_throughput_flops(L) / 1e9)
    return {"theoretical_GFLOPS": theo, "measured_GFLOPS": meas,
            "measured/theoretical": [m / t for m, t in zip(meas, theo)]}


def run(verify_cycles: bool = True) -> str:
    out = [header("Fig. 7 -- Measured vs theoretical throughput (one unit)")]
    out.append(render_series(
        "bfp8 MatMul (N_X sweep)", list(BFP_SWEEP), bfp_series(verify_cycles),
        x_label="N_X",
    ))
    out.append("")
    out.append(render_series(
        "fp32 multiply (L sweep)", list(FP32_SWEEP), fp32_series(),
        x_label="L_fp32",
    ))
    out.append(
        "\nSystem scale (15 units): bfp8 measured "
        f"{15 * measured_bfp_throughput_ops(64) / 1e9:.0f} GOPS "
        f"(paper reports {PAPER_OURS.throughput_gops} GOPS; Eqn-9 theoretical ceiling "
        f"{15 * bfp_throughput_ops(64) / 1e9:.0f} GOPS -- see EXPERIMENTS.md); "
        f"fp32 measured {15 * measured_fp32_throughput_flops(128) / 1e9:.1f} "
        f"GFLOPS (paper Table IV implies 15.0; theoretical 33.88)."
    )
    return "\n".join(out)


if __name__ == "__main__":  # pragma: no cover
    print(run())
