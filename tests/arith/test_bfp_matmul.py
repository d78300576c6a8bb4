"""Tests for bfp8 matrix-multiplication reference semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith.bfp_matmul import (
    BfpWeight,
    WideBlock,
    accumulate,
    activation_blocks,
    bfp_matmul,
    bfp_matmul_dense,
    bfp_batched_tiles,
    bfp_matmul_emulate,
    bfp_matmul_from_tiles,
    bfp_matmul_prepared,
    block_matmul,
    requantize_wide,
)
from repro.errors import ConfigurationError, HardwareContractError
from repro.formats.bfp8 import BfpBlock
from repro.formats.blocking import BfpMatrix
from tests.conftest import BLOCK_REGIMES, block_scaled


def _rand_block(rng, exp=0):
    return BfpBlock(rng.integers(-127, 128, (8, 8)).astype(np.int8), exp)


class TestBlockMatmul:
    def test_exact_integer_product(self, rng):
        x, y = _rand_block(rng, 2), _rand_block(rng, -3)
        z = block_matmul(x, y)
        ref = x.mantissas.astype(np.int64) @ y.mantissas.astype(np.int64)
        assert np.array_equal(z.mantissas, ref)
        assert z.exponent == -1  # Eqn 2: exponent add

    def test_value_semantics(self, rng):
        """Dequantized product equals the product of dequantized blocks."""
        x, y = _rand_block(rng, -4), _rand_block(rng, -6)
        z = block_matmul(x, y)
        assert np.allclose(z.decode(), x.decode() @ y.decode())

    def test_shape_mismatch(self):
        a = BfpBlock(np.zeros((8, 4), np.int8), 0)
        b = BfpBlock(np.zeros((8, 8), np.int8), 0)
        with pytest.raises(ConfigurationError):
            block_matmul(a, b)


class TestAccumulate:
    def test_first_block_passthrough(self):
        w = WideBlock(np.ones((8, 8), np.int64), 3)
        out = accumulate(None, w)
        assert out is w

    def test_alignment_keeps_larger_exponent(self):
        a = WideBlock(np.full((2, 2), 100, np.int64), 4)
        b = WideBlock(np.full((2, 2), 64, np.int64), 0)
        out = accumulate(a, b)
        assert out.exponent == 4
        assert out.mantissas[0, 0] == 100 + (64 >> 4)

    def test_alignment_is_symmetric_in_magnitude(self):
        a = WideBlock(np.full((2, 2), 64, np.int64), 0)
        b = WideBlock(np.full((2, 2), 100, np.int64), 4)
        out = accumulate(a, b)
        assert out.exponent == 4
        assert out.mantissas[0, 0] == 100 + (64 >> 4)

    def test_truncation_error_bound(self, rng):
        """Accumulated value differs from exact by < one ulp per step."""
        blocks = [
            WideBlock(rng.integers(-1000, 1000, (4, 4)), int(e))
            for e in rng.integers(-4, 4, 6)
        ]
        psu = None
        exact = np.zeros((4, 4), dtype=np.float64)
        for w in blocks:
            psu = accumulate(psu, w)
            exact += w.decode()
        err = np.abs(psu.decode() - exact).max()
        assert err <= len(blocks) * 2.0 ** max(w.exponent for w in blocks)

    def test_psu_width_guard(self):
        big = WideBlock(np.full((2, 2), (1 << 46), np.int64), 0)
        with pytest.raises(HardwareContractError):
            accumulate(big, big)


class TestRequantize:
    def test_small_values_pass_through(self):
        w = WideBlock(np.full((2, 2), 100, np.int64), 3)
        q = requantize_wide(w)
        assert q.exponent == 3 and int(q.mantissas[0, 0]) == 100

    def test_renormalization(self):
        w = WideBlock(np.full((2, 2), 1 << 20, np.int64), 0)
        q = requantize_wide(w)
        assert np.allclose(q.decode(), w.decode(), rtol=2**-6)
        assert int(np.abs(q.mantissas).max()) <= 127

    def test_rounding_overflow_bump(self):
        # 255 >> 1 rounds to 128 -> needs the extra shift
        w = WideBlock(np.full((1, 1), 255, np.int64), 0)
        q = requantize_wide(w)
        assert int(np.abs(q.mantissas).max()) <= 127
        assert np.allclose(q.decode(), 255, rtol=2**-6)

    def test_exponent_overflow_raises(self):
        w = WideBlock(np.full((1, 1), 1 << 40, np.int64), 120)
        with pytest.raises(HardwareContractError):
            requantize_wide(w)

    def test_exponent_underflow_saturates(self):
        w = WideBlock(np.full((1, 1), 64, np.int64), -140)
        q = requantize_wide(w)
        assert q.exponent == -128


class TestTiledMatmul:
    @given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 30),
           BLOCK_REGIMES)
    def test_emulate_matches_oracle(self, m, k, n, regime):
        rng = np.random.default_rng(m * 7 + k * 3 + n)
        a = block_scaled(rng, (m, k), regime)
        b = block_scaled(rng, (k, n), regime)
        oracle = bfp_matmul_dense(BfpMatrix.from_dense(a), BfpMatrix.from_dense(b))
        fast = bfp_matmul_emulate(a, b)
        assert fast.dtype == oracle.dtype and fast.shape == oracle.shape
        assert fast.tobytes() == oracle.tobytes()

    def test_error_vs_exact(self, rng):
        a = rng.normal(size=(32, 64))
        b = rng.normal(size=(64, 16))
        out = bfp_matmul_emulate(a, b)
        ref = a @ b
        rel = np.abs(out - ref).max() / np.abs(ref).max()
        assert rel < 0.05  # bfp8 keeps matmuls to a few percent

    def test_requantized_output_blocks(self, rng):
        a = rng.normal(size=(16, 16))
        b = rng.normal(size=(16, 16))
        am, bm = BfpMatrix.from_dense(a), BfpMatrix.from_dense(b)
        q = bfp_matmul(am, bm)
        dense = bfp_matmul_dense(am, bm)
        # Requantization to 8-bit mantissas costs at most 2^-7 relative.
        scale = np.abs(dense).max()
        assert np.abs(q.to_dense() - dense).max() <= scale * 2**-6

    def test_shape_mismatch(self, rng):
        with pytest.raises(ConfigurationError):
            bfp_matmul_emulate(np.zeros((4, 5)), np.zeros((4, 5)))
        with pytest.raises(ConfigurationError):
            bfp_matmul_dense(
                BfpMatrix.from_dense(np.zeros((8, 8))),
                BfpMatrix.from_dense(np.zeros((16, 8))),
            )


class TestPreparedMatmul:
    def test_matches_dense_entry_point(self, rng):
        a = rng.normal(size=(17, 40))
        b = rng.normal(size=(40, 11))
        am = activation_blocks(a)
        bm = BfpMatrix.from_dense(b)
        assert np.array_equal(
            bfp_matmul_prepared(am, bm), bfp_matmul_emulate(a, b)
        )

    def test_bfp_weight_layout_bit_identical(self, rng):
        """The precomputed flat layout must change nothing numerically."""
        a = rng.normal(size=(9, 24))
        b = rng.normal(size=(24, 20))
        am = activation_blocks(a)
        bm = BfpMatrix.from_dense(b)
        bw = BfpWeight.from_matrix(bm)
        assert np.array_equal(
            bfp_matmul_prepared(am, bw), bfp_matmul_prepared(am, bm)
        )

    def test_bfp_weight_roundtrip(self, rng):
        bm = BfpMatrix.from_dense(rng.normal(size=(24, 20)))
        bw = BfpWeight.from_matrix(bm)
        assert bw.shape == bm.shape
        assert bw.block_shape == bm.block_shape
        assert np.array_equal(bw.to_dense(), bm.to_dense())

    def test_trimmed_rows_match_padded(self, rng):
        """A 1-row decode activation: trimmed tiles == zero-padded tiles."""
        b = rng.normal(size=(32, 16))
        bm = BfpMatrix.from_dense(b)
        for m in (1, 3, 7):
            a = rng.normal(size=(m, 32))
            trimmed = activation_blocks(a)
            padded = BfpMatrix.from_dense(a)  # full 8-row tiles
            assert trimmed.block_shape[0] == m
            assert np.array_equal(
                bfp_matmul_prepared(trimmed, bm),
                bfp_matmul_prepared(padded, bm),
            )

    def test_inner_block_edge_mismatch(self, rng):
        am = BfpMatrix.from_dense(rng.normal(size=(8, 16)), cols=4)
        bm = BfpMatrix.from_dense(rng.normal(size=(16, 8)))
        with pytest.raises(ConfigurationError):
            bfp_matmul_prepared(am, bm)

    def test_inner_dim_mismatch(self, rng):
        am = activation_blocks(rng.normal(size=(4, 16)))
        bm = BfpMatrix.from_dense(rng.normal(size=(24, 8)))
        with pytest.raises(ConfigurationError):
            bfp_matmul_prepared(am, bm)


class TestBatchedEmulate:
    @given(st.integers(1, 12), st.integers(1, 20), st.integers(1, 12),
           st.integers(1, 4))
    @settings(max_examples=15)
    def test_slices_match_2d_emulation(self, m, k, n, batch):
        rng = np.random.default_rng(m * 31 + k * 7 + n * 3 + batch)
        a = rng.normal(size=(batch, m, k))
        b = rng.normal(size=(batch, k, n))
        out = bfp_matmul_from_tiles(*bfp_batched_tiles(a, b))
        assert out.shape == (batch, m, n)
        for i in range(batch):
            assert np.array_equal(out[i], bfp_matmul_emulate(a[i], b[i]))

    def test_narrow_mantissa_slices_match(self, rng):
        a = rng.normal(size=(2, 8, 16))
        b = rng.normal(size=(2, 16, 8))
        out = bfp_matmul_from_tiles(*bfp_batched_tiles(a, b, man_bits=4))
        for i in range(2):
            assert np.array_equal(
                out[i], bfp_matmul_emulate(a[i], b[i], man_bits=4)
            )

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            bfp_batched_tiles(np.zeros((2, 4, 5)), np.zeros((2, 4, 5)))
        with pytest.raises(ConfigurationError):
            bfp_batched_tiles(np.zeros((2, 4, 5)), np.zeros((3, 5, 4)))
        with pytest.raises(ConfigurationError):
            bfp_batched_tiles(np.zeros((4, 5)), np.zeros((5, 4)))
