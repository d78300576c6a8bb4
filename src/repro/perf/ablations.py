"""Ablation studies of the design choices (DESIGN.md Section 5/6).

Each knob the paper fixes is varied here with the same models used for the
main reproduction:

* **combined-MAC packing** (Fig. 3): without the 2-MACs-per-DSP trick the
  peak halves and the Y buffer sheds its replicated bank — quantifies what
  the packing buys and what it costs;
* **block size** (8x8): smaller blocks contain outliers better (higher
  SQNR) but pay more shared-exponent storage and worse systolic fill
  efficiency; larger blocks amortize fill but couple more values to one
  exponent;
* **PSU depth** (512): bounds the maximum X stream (Eqn 9's N_X), hence the
  achievable fraction of peak.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats.bfp8 import quantize_tiles
from repro.perf.resources import (
    Resources,
    exponent_unit,
    pe_array,
    runtime_controller,
    shifter_acc,
)
from repro.perf.throughput import DEFAULT_CLOCK, ClockConfig, bfp_efficiency

__all__ = [
    "PackingAblation",
    "ablate_combined_mac",
    "BlockSizeAblation",
    "ablate_block_size",
    "PsuDepthAblation",
    "ablate_psu_depth",
]


# ---------------------------------------------------------------------------
# Combined-MAC packing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PackingAblation:
    packed: bool
    peak_ops: float
    y_buffer_brams: float
    pe_ff: float


def ablate_combined_mac(cfg: ClockConfig = DEFAULT_CLOCK) -> list[PackingAblation]:
    """With vs without the 2-MACs-per-DSP operand packing."""
    n = cfg.rows * cfg.cols
    rows = []
    for packed in (True, False):
        macs_per_dsp = 2 if packed else 1
        peak = n * macs_per_dsp * 2 * cfg.freq_hz
        # Packed mode replicates the Y mantissa bank (16 + 16 + 1 BRAMs)
        # and holds a 16-bit resident pair per PE instead of 8.
        y_brams = (4 * cfg.cols + 1) if packed else (2 * cfg.cols + 1)
        pe_ff = n * (24.0 if packed else 16.0)
        rows.append(PackingAblation(packed, peak, float(y_brams), pe_ff))
    return rows


# ---------------------------------------------------------------------------
# Block size
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockSizeAblation:
    block: int
    sqnr_db: float
    fill_efficiency: float  # Eqn-9-style, at the max stream for PSU=512
    exponent_overhead_bits_per_value: float
    array_resources: Resources


def ablate_block_size(
    sizes: tuple[int, ...] = (4, 8, 16),
    *,
    data: np.ndarray | None = None,
    seed: int = 0,
    cfg: ClockConfig = DEFAULT_CLOCK,
) -> list[BlockSizeAblation]:
    """Quantization quality vs hardware efficiency across block sizes."""
    if data is None:
        rng = np.random.default_rng(seed)
        data = rng.standard_t(3, size=(256, 256))  # realistic heavy tails
    rows = []
    for b in sizes:
        m = data.shape[0] // b * b
        tiles = (
            data[:m, :m]
            .reshape(m // b, b, m // b, b)
            .swapaxes(1, 2)
            .reshape(-1, b, b)
        )
        man, exp = quantize_tiles(tiles)
        deq = man.astype(np.float64) * np.exp2(exp.astype(np.float64))[..., None, None]
        err = deq - tiles
        sqnr = 10 * np.log10((tiles**2).mean() / (err**2).mean())
        # Max continuous stream with a 512-word PSU: 512/b blocks of b rows.
        n_x = 512 // b
        stream = b * n_x
        fill = stream / (stream + (2 * b - 1))  # fill+drain scales with b
        design = (
            pe_array(b, b)
            + shifter_acc(b)
            + exponent_unit(b)
            + runtime_controller()
        )
        rows.append(
            BlockSizeAblation(
                block=b,
                sqnr_db=float(sqnr),
                fill_efficiency=fill,
                exponent_overhead_bits_per_value=8.0 / (b * b),
                array_resources=design,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# PSU depth
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsuDepthAblation:
    depth: int
    max_n_x: int
    eqn9_efficiency: float
    psu_brams_per_column: float


def ablate_psu_depth(
    depths: tuple[int, ...] = (128, 256, 512, 1024),
    cfg: ClockConfig = DEFAULT_CLOCK,
) -> list[PsuDepthAblation]:
    """The PSU buffer bounds N_X and therefore the fraction of peak."""
    rows = []
    for depth in depths:
        n_x = depth // cfg.rows
        rows.append(
            PsuDepthAblation(
                depth=depth,
                max_n_x=n_x,
                eqn9_efficiency=bfp_efficiency(n_x, cfg.rows),
                psu_brams_per_column=depth / 512.0,  # 512x36 BRAM18 units
            )
        )
    return rows
