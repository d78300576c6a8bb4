"""Tests for the cycle-level systolic array: bit-exactness AND emergent
cycle counts (Eqns 9/10 must fall out of the pipeline, not be coded in).

The emergent counts are the independent check on the unit-mode registry:
at every stream length the array's cycles equal
:meth:`~repro.cost.modes.UnitMode.compute_cycles`, the one implementation
every cost consumer prices streams with."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arith.fp_sliced import sliced_multiply
from repro.cost.modes import get_mode
from repro.errors import ConfigurationError, HardwareContractError
from repro.formats import fp32bits
from repro.hw.systolic import SystolicArray


def _rand_mans(rng, shape):
    return rng.integers(-127, 128, shape)


class TestBfpStream:
    @given(st.integers(1, 64), st.integers(0, 10_000))
    def test_exact_products_and_cycles(self, n_blocks, seed):
        rng = np.random.default_rng(seed)
        arr = SystolicArray()
        y_hi, y_lo = _rand_mans(rng, (8, 8)), _rand_mans(rng, (8, 8))
        arr.load_y_pair(y_hi, y_lo)
        x = _rand_mans(rng, (n_blocks, 8, 8))
        res = arr.run_bfp8_stream(x)
        for i in range(n_blocks):
            assert np.array_equal(res.z_hi[i], x[i] @ y_hi)
            assert np.array_equal(res.z_lo[i], x[i] @ y_lo)
        # Eqn 9, emergent: the registry's bfp8 count at every N_X the
        # PSU admits.
        assert res.cycles == get_mode("bfp8_mac").compute_cycles(n_blocks)

    def test_max_stream_cycles(self, rng):
        arr = SystolicArray()
        arr.load_y_pair(_rand_mans(rng, (8, 8)), _rand_mans(rng, (8, 8)))
        res = arr.run_bfp8_stream(_rand_mans(rng, (64, 8, 8)))
        assert res.cycles == 527
        # 97.15% of peak at N_X = 64 (paper Section II-D)
        assert 8 * 64 / res.cycles == pytest.approx(0.9715, abs=1e-3)

    def test_worst_case_mantissas(self):
        """All +/-127 everywhere: the packed fields must still separate."""
        arr = SystolicArray()
        y = np.full((8, 8), 127)
        arr.load_y_pair(y, -y)
        x = np.full((2, 8, 8), -127)
        res = arr.run_bfp8_stream(x)
        assert (res.z_hi == 8 * 127 * -127).all()
        assert (res.z_lo == 8 * 127 * 127).all()

    def test_input_validation(self, rng):
        arr = SystolicArray()
        arr.load_y_pair(np.zeros((8, 8)), np.zeros((8, 8)))
        with pytest.raises(ConfigurationError):
            arr.run_bfp8_stream(np.zeros((4, 4)))
        with pytest.raises(HardwareContractError):
            arr.run_bfp8_stream(np.full((1, 8, 8), -128))

    def test_y_shape_validation(self):
        with pytest.raises(ConfigurationError):
            SystolicArray().load_y_pair(np.zeros((4, 4)), np.zeros((8, 8)))


class TestFp32MulStream:
    @given(st.integers(1, 128), st.integers(0, 10_000))
    def test_bitexact_vs_vectorized_oracle(self, L, seed):
        rng = np.random.default_rng(seed)
        x = (rng.normal(size=(4, L)) * np.exp2(rng.integers(-10, 10, (4, L)))).astype(np.float32)
        y = (rng.normal(size=(4, L)) * np.exp2(rng.integers(-10, 10, (4, L)))).astype(np.float32)
        sx, ex, mx = fp32bits.decompose(x)
        sy, ey, my = fp32bits.decompose(y)
        arr = SystolicArray()
        res = arr.run_fp32_mul_stream(mx, my, sx, sy, ex, ey)
        ref = sliced_multiply(x, y)
        assert np.array_equal(res.results, ref)
        # Eqn 10, emergent: the registry's vector count at every L the
        # buffers hold.
        assert res.cycles == get_mode("fp32_vector").compute_cycles(L)

    def test_zero_lanes(self):
        arr = SystolicArray()
        z = np.zeros((4, 3), np.int64)
        res = arr.run_fp32_mul_stream(z, z, z, z, z, z)
        assert (res.results == 0).all()
        assert res.cycles == 3 + 8

    def test_accumulator_values_match_omitted_lsp_model(self, rng):
        from repro.arith.fp_sliced import accumulator_value

        x = rng.normal(size=(4, 5)).astype(np.float32)
        y = rng.normal(size=(4, 5)).astype(np.float32)
        _, _, mx = fp32bits.decompose(x)
        _, _, my = fp32bits.decompose(y)
        arr = SystolicArray()
        res = arr.run_fp32_mul_stream(
            mx, my, *np.zeros((4, 4, 5), np.int64)
        )
        assert np.array_equal(res.accumulators, accumulator_value(mx, my))

    def test_shape_validation(self):
        arr = SystolicArray()
        bad = np.zeros((3, 4), np.int64)
        with pytest.raises(ConfigurationError):
            arr.run_fp32_mul_stream(bad, bad, bad, bad, bad, bad)
