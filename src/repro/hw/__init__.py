"""Hardware functional and cycle models of the multi-mode processing unit."""

from repro.hw.accumulator import PSU_DEPTH, ColumnAccumulator
from repro.hw.bram import BRAM18_BYTES, Bram18
from repro.hw.buffers import (
    FP32_LANES,
    MAX_FP32_STREAM,
    MAX_X_BLOCKS,
    XBuffer,
    YBuffer,
)
from repro.hw.controller import RECONFIG_CYCLES, Controller, Mode
from repro.hw.dsp48e2 import DSP48E2, wrap48
from repro.hw.exponent_unit import ExponentUnit, predict_aligned_bound
from repro.hw.fp16_dot import Fp16DotResult, fp16_dot
from repro.hw.layout_converter import LayoutConverter, RowOperands
from repro.hw.pe import PE
from repro.hw.quantizer import OutputQuantizer
from repro.hw.shifter import (
    NARROW_ALIGN_BITS,
    AlignmentShifter,
    Normalizer,
    alignment_shift_cycles,
)
from repro.hw.int8_array import Int8Array, Int8ArrayStats
from repro.hw.system import Job, MultiUnitSystem, SystemReport, UnitTimeline
from repro.hw.cosim import ScalarArray
from repro.hw.selftest import SelfTestReport, run_self_test
from repro.hw.systolic import BfpStreamResult, Fp32MulResult, SystolicArray
from repro.hw.trace import ArrayTrace, TraceEvent, trace_bfp8_stream
from repro.hw.unit import MultiModePU, PUStats

__all__ = [
    "BRAM18_BYTES",
    "BfpStreamResult",
    "Bram18",
    "ColumnAccumulator",
    "Controller",
    "DSP48E2",
    "ExponentUnit",
    "FP32_LANES",
    "Int8Array",
    "Int8ArrayStats",
    "Job",
    "MultiUnitSystem",
    "SystemReport",
    "UnitTimeline",
    "Fp16DotResult",
    "Fp32MulResult",
    "LayoutConverter",
    "NARROW_ALIGN_BITS",
    "alignment_shift_cycles",
    "fp16_dot",
    "predict_aligned_bound",
    "MAX_FP32_STREAM",
    "MAX_X_BLOCKS",
    "Mode",
    "MultiModePU",
    "Normalizer",
    "OutputQuantizer",
    "PE",
    "PSU_DEPTH",
    "PUStats",
    "RECONFIG_CYCLES",
    "RowOperands",
    "AlignmentShifter",
    "SystolicArray",
    "ScalarArray",
    "SelfTestReport",
    "run_self_test",
    "ArrayTrace",
    "TraceEvent",
    "trace_bfp8_stream",
    "XBuffer",
    "YBuffer",
    "wrap48",
]
