"""FPGA resource model: LUT/FF/BRAM/DSP per component (Table II, Fig. 6).

Each microarchitectural component has a parameterized cost function; the
paper's 8x8 configuration reproduces Table II exactly (asserted in tests),
and the four PE-array design points of Fig. 6 (int8 / pure bfp8 / the
multi-mode unit / individual bfp8+fp32 units) are assembled from the same
component costs, reproducing the paper's reported ratios:

* bfp8 vs int8: identical DSPs, ~1.19x FFs (alignment shifters + exponent
  unit), more LUTs (the mantissa shifter);
* multi-mode vs pure bfp8: LUT-only overhead (~2.94x at PE-array level,
  the per-PE pre-shifters), FF/DSP nearly identical;
* multi-mode vs individual units: saves ~20.0% DSPs, ~61.2% FFs, ~43.6%
  LUTs.

Calibration notes
-----------------
Per-PE register cost (24 FF: an 8-bit X register + the 16-bit packed Y
pair) and the DSP count are structural; LUT constants are calibrated to the
paper's place-and-route report at the 8x8 point and scale with the obvious
structural parameter (PEs, columns, port widths).  The AMD floating-point
IP core costs used by the "individual units" design point are aggregate
calibrations for a 4-lane fp32 multiply + add vector unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2

__all__ = [
    "Resources",
    "pe_array",
    "shifter_acc",
    "exponent_unit",
    "buffers_and_converter",
    "output_quantizer",
    "misc_infrastructure",
    "memory_interface",
    "runtime_controller",
    "fp32_ip_vector_unit",
    "processing_unit_total",
    "table2_breakdown",
    "design_int8",
    "design_bfp8_only",
    "design_multimode",
    "design_individual",
    "fp16_dot_extension",
    "design_multimode_fp16",
    "fig6_designs",
]


@dataclass(frozen=True)
class Resources:
    """A resource vector in LUTs, flip-flops, BRAM18s and DSP48E2 slices."""

    lut: float = 0.0
    ff: float = 0.0
    bram: float = 0.0
    dsp: float = 0.0

    def __add__(self, other: "Resources") -> "Resources":
        return Resources(
            self.lut + other.lut,
            self.ff + other.ff,
            self.bram + other.bram,
            self.dsp + other.dsp,
        )

    def scaled(self, k: float) -> "Resources":
        return Resources(self.lut * k, self.ff * k, self.bram * k, self.dsp * k)

    def normalized_to(self, base: "Resources") -> dict[str, float]:
        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        return {
            "lut": ratio(self.lut, base.lut),
            "ff": ratio(self.ff, base.ff),
            "bram": ratio(self.bram, base.bram),
            "dsp": ratio(self.dsp, base.dsp),
        }

    def as_dict(self) -> dict[str, float]:
        return {"lut": self.lut, "ff": self.ff, "bram": self.bram, "dsp": self.dsp}


# -- per-PE constants (calibrated at the 8x8 point of Table II) -------------
_PE_FF = 24.0  # 8-bit X register + 16-bit packed Y register
_PE_LUT_BASE = 7.0  # routing / clock-enable fabric per PE (int8 or bfp8)
_PE_LUT_PRESHIFT = 13.578125  # fp32 input pre-shifter muxes per PE (multimode)


def pe_array(rows: int = 8, cols: int = 8, *, multimode: bool = True) -> Resources:
    """The PE array: one DSP48E2 per PE, registers, optional pre-shifters."""
    n = rows * cols
    lut = n * (_PE_LUT_BASE + (_PE_LUT_PRESHIFT if multimode else 0.0))
    return Resources(lut=lut, ff=n * _PE_FF, bram=0.0, dsp=float(n))


# -- column shifter + ACC -----------------------------------------------------
_SHIFTER_LUT_PER_COL = 70.0  # 48-bit barrel shifter stages
_ACC_LUT_PER_COL = 26.0
_SHIFTER_FF_PER_COL = 33.5
_ACC_FF_PER_COL = 47.0


def shifter_acc(
    cols: int = 8, *, with_aligner: bool = True, width: int = 48
) -> Resources:
    """Per-column alignment shifter + accumulator (1 cascaded DSP each).

    ``with_aligner=False`` models a plain integer accumulator (the int8
    design point needs no mantissa alignment).  Costs scale with the
    accumulator width relative to the calibrated 48-bit design.
    """
    w = width / 48.0
    shifter = Resources(
        lut=_SHIFTER_LUT_PER_COL * w * (log2(width) / log2(48)),
        ff=_SHIFTER_FF_PER_COL * w,
    )
    acc = Resources(
        lut=_ACC_LUT_PER_COL * w, ff=_ACC_FF_PER_COL * w, dsp=1.0
    )
    per_col = acc + (shifter if with_aligner else Resources())
    return per_col.scaled(cols)


def exponent_unit(cols: int = 8) -> Resources:
    """Shared-exponent adders/comparators (scales weakly with columns)."""
    return Resources(lut=269.0 * cols / 8.0, ff=195.0 * cols / 8.0)


def buffers_and_converter(
    cols: int = 8, *, multimode: bool = True
) -> Resources:
    """X buffer (2*cols + 1 BRAM), Y buffer (4*cols + 1), layout converter.

    The converter (fp32 crossbar) is the multimode-only part: calibrated so
    the PU-level "overhead modules" fractions match Section III-A.
    """
    x_brams = 2 * cols + 1
    y_brams = 4 * cols + 1
    base = Resources(lut=452.0, ff=514.0, bram=float(x_brams + y_brams))
    converter = Resources(lut=300.0, ff=250.0) if multimode else Resources()
    return base + converter


def output_quantizer(cols: int = 8) -> Resources:
    return Resources(lut=348.0 * cols / 8.0, ff=524.0 * cols / 8.0)


def misc_infrastructure() -> Resources:
    """Delay chains, AXI-Stream register slices, etc. (Table II 'Misc.')."""
    return Resources(lut=483.0, ff=1944.0, bram=3.0)


def memory_interface(channels: int = 2) -> Resources:
    """AXI/HBM memory interface (2 x 256-bit channels per unit)."""
    return Resources(lut=3049.0 * channels / 2.0, ff=4270.0 * channels / 2.0,
                     bram=4.5 * channels / 2.0)


def runtime_controller() -> Resources:
    return Resources(lut=362.0, ff=452.0)


def fp32_ip_vector_unit(lanes: int = 4) -> Resources:
    """AMD floating-point IP: a ``lanes``-wide fp32 multiply + add unit.

    Aggregate calibration for the Fig. 6 "individual units" design point
    (4 parallel fp32 lanes, matching the multi-mode unit's fp32 width).
    """
    return Resources(lut=2969.0, ff=4459.0, dsp=18.0).scaled(lanes / 4.0)


# -- assemblies ---------------------------------------------------------------

def table2_breakdown(rows: int = 8, cols: int = 8) -> dict[str, Resources]:
    """The full PU component breakdown of Table II."""
    return {
        "PE Array": pe_array(rows, cols, multimode=True),
        "Shifter & ACC": shifter_acc(cols),
        "Buffer & Layout Converter": buffers_and_converter(cols),
        "Exponent Unit": exponent_unit(cols),
        "Quantizer": output_quantizer(cols),
        "Misc.": misc_infrastructure(),
        "Memory Interface": memory_interface(),
        "Controller": runtime_controller(),
    }


def processing_unit_total(rows: int = 8, cols: int = 8) -> Resources:
    total = Resources()
    for r in table2_breakdown(rows, cols).values():
        total = total + r
    return total


# -- Fig. 6 design points (PE array + EU + shifters + controller only, the
#    paper's "fair comparison" subset) ---------------------------------------

def design_int8(rows: int = 8, cols: int = 8) -> Resources:
    """A conventional int8 systolic array with plain accumulators."""
    return (
        pe_array(rows, cols, multimode=False)
        + shifter_acc(cols, with_aligner=False)
        + runtime_controller()
    )


def design_bfp8_only(rows: int = 8, cols: int = 8) -> Resources:
    """Exclusive bfp8 MatMul array: adds the aligner and exponent unit."""
    return (
        pe_array(rows, cols, multimode=False)
        + shifter_acc(cols, with_aligner=True)
        + exponent_unit(cols)
        + runtime_controller()
    )


def design_multimode(rows: int = 8, cols: int = 8) -> Resources:
    """The proposed unit: bfp8 array with fp32 pre-shifters (LUT overhead)."""
    return (
        pe_array(rows, cols, multimode=True)
        + shifter_acc(cols, with_aligner=True)
        + exponent_unit(cols)
        + runtime_controller()
    )


def design_individual(rows: int = 8, cols: int = 8, lanes: int = 4) -> Resources:
    """Separate bfp8 array + fp32 IP vector unit, processing independently."""
    return design_bfp8_only(rows, cols) + fp32_ip_vector_unit(lanes)


# -- fp16 dot-product extension (TransDot/DHFP-PE-style dual MAC) ------------
_PE_LUT_FP16 = 7.25  # mantissa split + dual-product select muxes per PE
_PE_FF_FP16 = 4.0  # fp16 operand staging (packed 10+1-bit mantissa pair)
_COL_LUT_FP16 = 16.0  # per-column product recombination pre-add
_COL_FF_FP16 = 9.0  # per-column exponent-pair / carry pipeline registers


def fp16_dot_extension(rows: int = 8, cols: int = 8) -> Resources:
    """Incremental cost of the fp16 dot-product mode over the multi-mode PU.

    Models a dual-precision MAC personality: each DSP48E2 packs two fp16
    mantissa products per cycle (27x18 multiplier split, TransDot/DHFP-PE
    style), so the mode costs **zero additional DSPs or BRAM** — only the
    per-PE mantissa split/select muxes and per-column recombination adders
    (LUTs) plus operand staging and exponent-pair pipeline registers (FFs).
    Fig. 6 and Table II add it as the ``fp16_dot`` unit mode's extension.
    """
    n = rows * cols
    return Resources(
        lut=n * _PE_LUT_FP16 + cols * _COL_LUT_FP16,
        ff=n * _PE_FF_FP16 + cols * _COL_FF_FP16,
    )


def design_multimode_fp16(rows: int = 8, cols: int = 8) -> Resources:
    """The proposed unit with the fp16 dot-product personality added."""
    return design_multimode(rows, cols) + fp16_dot_extension(rows, cols)


def fig6_designs(
    rows: int = 8, cols: int = 8, *, include_fp16: bool = False
) -> dict[str, Resources]:
    designs = {
        "int8": design_int8(rows, cols),
        "bfp8": design_bfp8_only(rows, cols),
        "ours": design_multimode(rows, cols),
        "indiv": design_individual(rows, cols),
    }
    if include_fp16:
        designs["ours+fp16"] = design_multimode_fp16(rows, cols)
    return designs
