"""Analytical throughput model: paper Eqns 7-10 and system-level figures.

Conventions (matching the paper's reporting):

* bfp8 throughput is counted in OPS with one MAC = 2 ops (Eqn 7's second
  factor of 2) and the combined-MAC optimization contributing the first
  factor of 2;
* fp32 throughput is counted in FLOPS with each vector operation counted as
  a multiply-accumulate-equivalent 2 FLOPs — this is the convention under
  which the paper's "33.88 GFLOPS" headline is consistent with Eqns 8/10
  for 15 units at L = 128:  ``15 * 4 * 2 * 300e6 * 128/136 = 33.88e9``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from repro.errors import ConfigurationError

__all__ = [
    "ClockConfig",
    "DEFAULT_CLOCK",
    "bfp_peak_ops",
    "bfp_efficiency",
    "batched_bfp_efficiency",
    "bfp_throughput_ops",
    "fp32_peak_flops",
    "fp32_efficiency",
    "fp32_throughput_flops",
    "system_bfp_throughput_ops",
    "system_fp32_throughput_flops",
    "paper_headline_fp32_gflops",
]


@dataclass(frozen=True)
class ClockConfig:
    freq_hz: float = 300e6
    rows: int = 8
    cols: int = 8
    fp32_lanes: int = 4
    n_units: int = 15

    def __post_init__(self) -> None:
        if not self.freq_hz > 0:
            raise ConfigurationError("clock frequency must be positive")


DEFAULT_CLOCK = ClockConfig()


def bfp_peak_ops(cfg: ClockConfig = DEFAULT_CLOCK) -> float:
    """Eqn 7: ``rows * cols * 2 * 2 * freq`` (ops/s, one unit)."""
    return cfg.rows * cfg.cols * 2 * 2 * cfg.freq_hz


def bfp_efficiency(n_x: int, rows: int = 8) -> float:
    """Eqn 9 utilization factor: ``8 N_X`` useful of the stream's cycles."""
    from repro.cost.modes import get_mode

    if n_x <= 0:
        raise ValueError("N_X must be positive")
    clock = ClockConfig(rows=rows)
    return rows * n_x / get_mode("bfp8_mac").compute_cycles(n_x, clock=clock)


def batched_bfp_efficiency(batch_rows: int, rows: int = 8) -> float:
    """Eqn-9 utilization of a *coalesced* batch of matmul rows.

    ``batch_rows`` independent single-row requests (KV-cache decode steps)
    merged into one stream occupy ``N_X = ceil(batch_rows / rows)`` X
    blocks; the array always processes full ``rows``-row blocks, so the
    useful fraction of the block is ``batch_rows / (N_X * rows)``.  A
    batch of 1 achieves 8/23 * 1/8 ~ 4.3% of peak; a batch of 8 rides the
    same stream at 8/23 ~ 35% — the Eqn-9 view of why dynamic batching
    pays on the decode path.
    """
    if batch_rows <= 0:
        raise ValueError("batch_rows must be positive")
    n_x = ceil(batch_rows / rows)
    return bfp_efficiency(n_x, rows) * (batch_rows / (n_x * rows))


def bfp_throughput_ops(n_x: int, cfg: ClockConfig = DEFAULT_CLOCK) -> float:
    """Eqn 9: achieved bfp8 OPS for a stream of ``n_x`` X blocks (one unit)."""
    return bfp_peak_ops(cfg) * bfp_efficiency(n_x, cfg.rows)


def fp32_peak_flops(cfg: ClockConfig = DEFAULT_CLOCK) -> float:
    """Eqn 8 with the paper's 2-FLOPs-per-op count: ``lanes * 2 * freq``."""
    return cfg.fp32_lanes * 2 * cfg.freq_hz


def fp32_efficiency(length: int) -> float:
    """Eqn 10 utilization factor: ``L`` useful of the stream's cycles."""
    from repro.cost.modes import get_mode

    if length <= 0:
        raise ValueError("stream length must be positive")
    return length / get_mode("fp32_vector").compute_cycles(length)


def fp32_throughput_flops(length: int, cfg: ClockConfig = DEFAULT_CLOCK) -> float:
    """Eqn 10: achieved fp32 FLOPS for stream length ``L`` (one unit)."""
    return fp32_peak_flops(cfg) * fp32_efficiency(length)


def system_bfp_throughput_ops(
    n_x: int = 64, cfg: ClockConfig = DEFAULT_CLOCK
) -> float:
    """All units running independent bfp8 streams."""
    return cfg.n_units * bfp_throughput_ops(n_x, cfg)


def system_fp32_throughput_flops(
    length: int = 128, cfg: ClockConfig = DEFAULT_CLOCK
) -> float:
    """All units running independent fp32 streams (the 33.88 GFLOPS figure)."""
    return cfg.n_units * fp32_throughput_flops(length, cfg)


def paper_headline_fp32_gflops(cfg: ClockConfig = DEFAULT_CLOCK) -> float:
    """The paper's theoretical fp32 number: 15 units at L = 128."""
    return system_fp32_throughput_flops(128, cfg) / 1e9


def half_peak_flops(fmt_name: str, cfg: ClockConfig = DEFAULT_CLOCK) -> float:
    """Extension: peak FLOPS of the vector unit in a 16-bit float format.

    16-bit operands double the buffer lane count to 8, and bf16's
    single-slice mantissa (or fp16's four retained partial products) fits
    the 8-row column with capacity to spare, so the lane count is
    bandwidth-bound at 8 — 2x the fp32 peak (paper Section V direction).
    """
    from repro.arith.fp_sliced_half import half_lane_count
    from repro.formats.halfprec import HALF_FORMATS

    fmt = HALF_FORMATS[fmt_name]
    lanes = half_lane_count(fmt, cfg.cols)
    return lanes * 2 * cfg.freq_hz
