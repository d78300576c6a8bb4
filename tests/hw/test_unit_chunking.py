"""Tests for PU scheduling at the PSU-depth boundary (row-block chunking)."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.arith.bfp_matmul import bfp_matmul
from repro.cost.modes import get_mode
from repro.formats.blocking import BfpMatrix
from repro.hw.buffers import MAX_X_BLOCKS
from repro.hw.unit import MultiModePU
from repro.runtime.compiler import plan_matmul

STREAM = get_mode("bfp8_mac").compute_cycles


class TestRowChunking:
    def test_exactly_at_the_limit(self, rng):
        a = BfpMatrix.from_dense(rng.normal(size=(8 * MAX_X_BLOCKS, 8)))
        b = BfpMatrix.from_dense(rng.normal(size=(8, 8)))
        pu = MultiModePU()
        out = pu.matmul(a, b)
        assert pu.stats.bfp_streams == 1  # one maximal stream
        assert pu.stats.cycles_bfp == STREAM(MAX_X_BLOCKS)
        ref = bfp_matmul(a, b)
        assert np.array_equal(out.mantissas, ref.mantissas)

    def test_one_block_over_the_limit(self, rng):
        """65 row blocks exceed the PSU depth: the schedule splits into a
        64-block chunk plus a 1-block chunk, still bit-exact."""
        m = 8 * (MAX_X_BLOCKS + 1)
        a = BfpMatrix.from_dense(rng.normal(size=(m, 16)))
        b = BfpMatrix.from_dense(rng.normal(size=(16, 8)))
        pu = MultiModePU()
        out = pu.matmul(a, b)
        # 2 chunks x 1 pair x 2 K blocks = 4 streams.
        assert pu.stats.bfp_streams == 4
        assert pu.stats.cycles_bfp == 2 * (STREAM(MAX_X_BLOCKS) + STREAM(1))
        ref = bfp_matmul(a, b)
        assert np.array_equal(out.mantissas, ref.mantissas)
        assert np.array_equal(out.exponents, ref.exponents)

    def test_chunked_equals_unchunked_result(self, rng):
        """Chunking is a scheduling artifact: results must be identical to
        the oracle regardless of where the split lands."""
        m = 8 * (2 * MAX_X_BLOCKS + 7)
        a = BfpMatrix.from_dense(rng.normal(size=(m, 8)))
        b = BfpMatrix.from_dense(rng.normal(size=(8, 16)))
        out = MultiModePU().matmul(a, b)
        ref = bfp_matmul(a, b)
        assert np.array_equal(out.mantissas, ref.mantissas)

    @given(st.integers(1, 8 * 135), st.integers(1, 40), st.integers(1, 40))
    def test_plan_matches_pu_chunking(self, m, k, n):
        """The planner's cycles equal the PU's stream sum, ragged last
        chunk included, for shapes up to three 64-block PSU chunks."""
        rng = np.random.default_rng(m * 1681 + k * 41 + n)
        plan = plan_matmul(m, k, n)
        pu = MultiModePU()
        plan.run(rng.normal(size=(m, k)), rng.normal(size=(k, n)), pu)
        assert plan.compute_cycles == pu.stats.cycles_bfp
        assert plan.streams == pu.stats.bfp_streams


class TestErrorPropagationWithDepth:
    def test_bfp8_mixed_error_grows_gracefully(self, rng):
        """Stacked blocks do not amplify bfp8 error catastrophically: the
        logit RMSE grows sublinearly with depth (residual streams stay
        fp32 in the mixed regime)."""
        from repro.models.backend import get_backend
        from repro.models.vit import SequenceClassifier

        tokens = rng.integers(0, 8, (32, 10))
        rmses = []
        for depth in (1, 2, 4):
            m = SequenceClassifier(vocab=8, seq_len=10, dim=24, depth=depth,
                                   n_heads=4, seed=depth)
            ref = m.forward(tokens)
            mixed = m.forward(tokens, get_backend("bfp8-mixed"))
            rmses.append(float(np.sqrt(np.mean((ref - mixed) ** 2))))
        assert rmses[2] < rmses[0] * 8  # far from exponential blow-up
        assert all(r < 0.2 for r in rmses)
