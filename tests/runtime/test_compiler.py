"""Tests for the matmul workload compiler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.hw.unit import MultiModePU
from repro.runtime.compiler import plan_matmul


class TestPlanning:
    def test_single_block(self):
        p = plan_matmul(8, 8, 8)
        assert p.streams == 1
        assert p.stream_len == 1
        assert p.compute_cycles == 8 + 15
        assert p.macs == 2 * 512  # packed pair

    def test_deit_small_qkv_shape(self):
        p = plan_matmul(197, 384, 1152)
        assert p.row_blocks == 25 and p.k_blocks == 48 and p.col_blocks == 144
        assert p.streams == p.chunks * p.col_pairs * p.k_blocks

    def test_chunking_over_psu_depth(self):
        p = plan_matmul(8 * 100, 8, 8)  # 100 row blocks > 64-block PSU limit
        assert p.chunks == 2

    @given(st.integers(1, 200), st.integers(1, 200), st.integers(1, 200))
    @settings(max_examples=30)
    def test_efficiency_bounded(self, m, k, n):
        p = plan_matmul(m, k, n)
        assert 0 < p.efficiency <= 1.0
        assert p.ops == 2 * p.macs

    def test_efficiency_approaches_eqn9(self):
        p = plan_matmul(512, 8, 16)  # one 64-block stream per pair/k
        assert p.efficiency == pytest.approx(512 / 527, rel=1e-6)

    def test_invalid_dims(self):
        with pytest.raises(ConfigurationError):
            plan_matmul(0, 8, 8)


class TestExecution:
    def test_run_matches_pu_and_counts(self, rng):
        a = rng.normal(size=(20, 30))
        b = rng.normal(size=(30, 12))
        plan = plan_matmul(20, 30, 12)
        pu = MultiModePU()
        out = plan.run(a, b, pu)
        assert out.shape == (20, 12)
        assert pu.stats.cycles_bfp == plan.compute_cycles
        assert pu.stats.bfp_macs == plan.macs
        rel = np.abs(out - a @ b).max() / np.abs(a @ b).max()
        assert rel < 0.05

    def test_run_validates_shapes(self, rng):
        plan = plan_matmul(8, 8, 8)
        with pytest.raises(ConfigurationError):
            plan.run(rng.normal(size=(9, 8)), rng.normal(size=(8, 8)))
