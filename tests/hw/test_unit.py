"""Tests for the MultiModePU: engine agreement, scheduling, statistics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arith.bfp_matmul import bfp_matmul
from repro.cost.modes import get_mode
from repro.errors import ConfigurationError
from repro.formats.blocking import BfpMatrix
from repro.hw.unit import MultiModePU
from tests.conftest import BLOCK_REGIMES, block_scaled


class TestMatmul:
    @given(st.integers(1, 20), st.integers(1, 20), st.integers(1, 20),
           BLOCK_REGIMES, st.integers(0, 1000))
    def test_engines_agree_and_match_oracle(self, m, k, n, regime, seed):
        rng = np.random.default_rng(seed)
        a = BfpMatrix.from_dense(block_scaled(rng, (m, k), regime))
        b = BfpMatrix.from_dense(block_scaled(rng, (k, n), regime))
        fast = MultiModePU().matmul(a, b, engine="fast")
        cyc = MultiModePU().matmul(a, b, engine="cycle")
        oracle = bfp_matmul(a, b)
        assert np.array_equal(fast.mantissas, cyc.mantissas)
        assert np.array_equal(fast.exponents, cyc.exponents)
        assert np.array_equal(fast.mantissas, oracle.mantissas)
        assert np.array_equal(fast.exponents, oracle.exponents)

    def test_cycle_accounting_formula(self, rng):
        """fast-engine cycle charges equal the registry's stream cycles."""
        a = BfpMatrix.from_dense(rng.normal(size=(24, 16)))  # 3x2 blocks
        b = BfpMatrix.from_dense(rng.normal(size=(16, 24)))  # 2x3 blocks
        pu = MultiModePU()
        pu.matmul(a, b)
        # 1 chunk x 2 column pairs x 2 K blocks = 4 streams of N_X = 3
        assert pu.stats.bfp_streams == 4
        assert pu.stats.cycles_bfp == 4 * get_mode("bfp8_mac").compute_cycles(3)
        assert pu.stats.blocks_quantized == 9

    def test_cycle_engine_same_accounting(self, rng):
        a = BfpMatrix.from_dense(rng.normal(size=(16, 8)))
        b = BfpMatrix.from_dense(rng.normal(size=(8, 8)))
        pu_f, pu_c = MultiModePU(), MultiModePU()
        pu_f.matmul(a, b, engine="fast")
        pu_c.matmul(a, b, engine="cycle")
        assert pu_f.stats.cycles_bfp == pu_c.stats.cycles_bfp

    def test_mac_count(self, rng):
        a = BfpMatrix.from_dense(rng.normal(size=(8, 8)))
        b = BfpMatrix.from_dense(rng.normal(size=(8, 8)))
        pu = MultiModePU()
        pu.matmul(a, b)
        # One stream, one X block, packed pair: 2 * 8^3 MACs charged.
        assert pu.stats.bfp_macs == 2 * 512

    def test_odd_column_blocks_pad_pair(self, rng):
        a = rng.normal(size=(8, 8))
        b = rng.normal(size=(8, 8))  # single column block -> padded pair
        out = MultiModePU().matmul(
            BfpMatrix.from_dense(a), BfpMatrix.from_dense(b)
        )
        ref = bfp_matmul(BfpMatrix.from_dense(a), BfpMatrix.from_dense(b))
        assert np.array_equal(out.mantissas, ref.mantissas)

    def test_shape_mismatch(self, rng):
        a = BfpMatrix.from_dense(rng.normal(size=(8, 8)))
        b = BfpMatrix.from_dense(rng.normal(size=(16, 8)))
        with pytest.raises(ConfigurationError):
            MultiModePU().matmul(a, b)

    def test_unknown_engine(self, rng):
        a = BfpMatrix.from_dense(rng.normal(size=(8, 8)))
        with pytest.raises(ConfigurationError):
            MultiModePU().matmul(a, a, engine="warp")

    def test_throughput_stat(self, rng):
        pu = MultiModePU()
        a = BfpMatrix.from_dense(rng.normal(size=(512, 8)))
        b = BfpMatrix.from_dense(rng.normal(size=(8, 16)))
        pu.matmul(a, b)
        gops = pu.stats.bfp_throughput_ops(300e6) / 1e9
        assert 60.0 < gops < 76.8  # near Eqn-9 value at N_X = 64


class TestFp32Ops:
    @given(st.integers(1, 700), st.integers(0, 100))
    def test_engines_agree(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n).astype(np.float32)
        y = rng.normal(size=n).astype(np.float32)
        fast, cyc = MultiModePU(), MultiModePU()
        assert np.array_equal(
            fast.fp32_multiply(x, y), cyc.fp32_multiply(x, y, engine="cycle")
        )
        # The fast engine's registry cycles equal the array's emergent
        # count, stream for stream, across the 4 x 128 chunk boundary.
        assert fast.stats.cycles_fp32_mul == cyc.stats.cycles_fp32_mul
        assert fast.stats.fp32_streams == cyc.stats.fp32_streams
        assert np.array_equal(fast.fp32_add(x, y), cyc.fp32_add(x, y, engine="cycle"))
        assert fast.stats.cycles_fp32_add == cyc.stats.cycles_fp32_add
        assert fast.stats.fp32_streams == cyc.stats.fp32_streams

    def test_chunking_cycles(self, rng):
        """600 elements -> one full (4x128) stream + one (4x22) stream."""
        pu = MultiModePU()
        x = rng.normal(size=600).astype(np.float32)
        pu.fp32_multiply(x, x)
        assert pu.stats.fp32_streams == 2
        assert pu.stats.cycles_fp32_mul == (128 + 8) + (22 + 8)

    def test_mode_switch_reconfigures(self, rng):
        pu = MultiModePU()
        x = rng.normal(size=8).astype(np.float32)
        pu.fp32_multiply(x, x)
        pu.fp32_add(x, x)
        pu.fp32_multiply(x, x)
        assert pu.controller.reconfigurations == 3

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            MultiModePU().fp32_add(np.zeros(3, np.float32), np.zeros(4, np.float32))

    def test_empty_input(self):
        out = MultiModePU().fp32_multiply(
            np.zeros(0, np.float32), np.zeros(0, np.float32)
        )
        assert out.size == 0

    def test_preserves_shape(self, rng):
        x = rng.normal(size=(3, 5, 7)).astype(np.float32)
        out = MultiModePU().fp32_multiply(x, x)
        assert out.shape == (3, 5, 7)

    def test_accuracy_vs_ieee(self, rng):
        x = rng.normal(size=500).astype(np.float32)
        y = rng.normal(size=500).astype(np.float32)
        pu = MultiModePU()
        prod = pu.fp32_multiply(x, y)
        exact = x.astype(np.float64) * y.astype(np.float64)
        rel = np.abs(prod - exact) / np.maximum(np.abs(exact), 1e-300)
        assert rel.max() < 2.0**-20
