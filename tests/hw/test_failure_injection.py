"""Failure injection: out-of-contract inputs must raise, never corrupt.

The hardware models enforce their port/width/range contracts explicitly
(DESIGN.md: violations that silicon would silently truncate are treated as
design bugs).  These tests drive each contract boundary.
"""

import numpy as np
import pytest

from repro.errors import HardwareContractError, SpecialValueError
from repro.formats.blocking import BfpMatrix
from repro.hw.systolic import SystolicArray
from repro.hw.unit import MultiModePU


class TestArithmeticContracts:
    def test_nan_rejected_end_to_end(self, rng):
        pu = MultiModePU()
        x = np.array([1.0, np.nan], np.float32)
        with pytest.raises(SpecialValueError):
            pu.fp32_multiply(x, x)
        with pytest.raises(SpecialValueError):
            pu.fp32_add(x, x)

    def test_inf_rejected(self):
        pu = MultiModePU()
        x = np.array([np.inf], np.float32)
        with pytest.raises(SpecialValueError):
            pu.fp32_multiply(x, x)

    def test_overflowing_product_raises(self):
        pu = MultiModePU()
        big = np.full(4, 1e30, np.float32)
        with pytest.raises(HardwareContractError):
            pu.fp32_multiply(big, big)

    def test_matmul_nan_rejected_at_quantizer(self):
        with pytest.raises(Exception):
            BfpMatrix.from_dense(np.array([[np.nan, 1.0], [0.0, 2.0]]))


class TestArrayContracts:
    def test_full_scale_negative_mantissas_rejected(self):
        """-128 inputs would make the packed low field ambiguous; the array
        refuses them rather than returning corrupt sums."""
        arr = SystolicArray()
        arr.load_y_pair(np.zeros((8, 8)), np.zeros((8, 8)))
        with pytest.raises(HardwareContractError):
            arr.run_bfp8_stream(np.full((1, 8, 8), -128))

    def test_oversized_y_rejected(self):
        arr = SystolicArray()
        with pytest.raises(HardwareContractError):
            arr.load_y_pair(np.full((8, 8), 200), np.zeros((8, 8)))

    def test_wraparound_is_modeled_not_hidden(self):
        """Drive the 48-bit ALU to wrap: the model reproduces two's-
        complement wraparound rather than clamping."""
        from repro.hw.dsp48e2 import DSP48E2

        dsp = DSP48E2()
        dsp.p = (1 << 47) - 10
        out = dsp.cycle(100, 1, accumulate=True)
        assert out < 0  # wrapped


class TestSchedulerContracts:
    def test_psu_address_bound(self):
        from repro.hw.accumulator import ColumnAccumulator

        acc = ColumnAccumulator()
        with pytest.raises(HardwareContractError):
            acc.accumulate(10_000, 1, 0)

    def test_buffer_overcapacity(self, rng):
        from repro.formats.bfp8 import BfpBlock
        from repro.hw.buffers import XBuffer

        blocks = [
            BfpBlock(rng.integers(-127, 128, (8, 8)).astype(np.int8), 0)
            for _ in range(65)
        ]
        with pytest.raises(HardwareContractError):
            XBuffer().load_bfp_blocks(blocks)


class TestRecoveryAfterError:
    def test_unit_usable_after_contract_error(self, rng):
        """A rejected workload must not poison subsequent valid work."""
        pu = MultiModePU()
        with pytest.raises(HardwareContractError):
            pu.fp32_multiply(np.full(4, 1e30, np.float32),
                             np.full(4, 1e30, np.float32))
        x = rng.normal(size=16).astype(np.float32)
        out = pu.fp32_multiply(x, x)
        assert np.allclose(out, x * x, rtol=1e-6)

    def test_array_state_isolated_between_streams(self, rng):
        arr = SystolicArray()
        y = rng.integers(-127, 128, (8, 8))
        arr.load_y_pair(y, y)
        first = arr.run_bfp8_stream(rng.integers(-127, 128, (3, 8, 8)))
        x2 = rng.integers(-127, 128, (2, 8, 8))
        second = arr.run_bfp8_stream(x2)
        assert np.array_equal(second.z_hi[0], x2[0] @ y)
        assert first.cycles == 39 and second.cycles == 31
