"""Tests for the vector-program executor."""

import numpy as np
import pytest

from repro.errors import ProgramError
from repro.runtime.executor import VectorExecutor
from repro.runtime.instructions import OpCode, Program
from repro.runtime.vector_ops import build_gelu, build_layernorm, build_softmax


class TestExecution:
    def test_missing_inputs_rejected(self):
        ex = VectorExecutor(faithful=False)
        with pytest.raises(ProgramError):
            ex.run(build_softmax(), {})

    def test_faithful_and_fast_agree_closely(self, rng):
        x = rng.normal(size=(4, 40)).astype(np.float32)
        fast_ex, faith_ex = VectorExecutor(faithful=False), VectorExecutor()
        fast, _ = fast_ex.run(build_softmax(), {"x": x})
        faith, _ = faith_ex.run(build_softmax(), {"x": x})
        assert np.abs(fast.astype(np.float64) - faith.astype(np.float64)).max() < 1e-6
        # Identical accounting, field for field: the fast path charges the
        # same mode switches and counts the same fp32 streams.
        assert fast_ex.pu.stats == faith_ex.pu.stats
        affine = {"gamma": np.ones(40, np.float32),
                  "beta": np.zeros(40, np.float32),
                  "inv_n": np.full((4, 1), 1 / 40, np.float32),
                  "eps": np.full((4, 1), 1e-5, np.float32)}
        for program, inputs in ((build_gelu(), {"x": x}),
                                (build_layernorm(), {"x": x, **affine})):
            fast_ex, faith_ex = VectorExecutor(faithful=False), VectorExecutor()
            fast_ex.run(program, inputs)
            faith_ex.run(program, inputs)
            assert fast_ex.pu.stats == faith_ex.pu.stats, program.name

    def test_trace_counts(self, rng):
        x = rng.normal(size=(2, 8)).astype(np.float32)
        _, tr = VectorExecutor(faithful=False).run(build_gelu(), {"x": x})
        static = build_gelu().static_op_count()
        # Elementwise ops scale with element count exactly.
        assert tr.counts.fpu_mul == static.fpu_mul * x.size
        assert tr.counts.host == static.host * x.size
        assert tr.fpu_flops == 2 * tr.counts.fpu_total

    def test_vredsum_add_count(self, rng):
        p = Program("sum", inputs=["x"])
        p.emit(OpCode.VREDSUM, "out", "x")
        x = rng.normal(size=(3, 9)).astype(np.float32)
        out, tr = VectorExecutor(faithful=False).run(p, {"x": x})
        assert np.allclose(out[..., 0], x.sum(-1), atol=1e-5)
        assert tr.counts.fpu_add == 8 * 3  # n-1 adds per row

    def test_tree_sum_faithful(self, rng):
        p = Program("sum", inputs=["x"])
        p.emit(OpCode.VREDSUM, "out", "x")
        x = rng.normal(size=(2, 13)).astype(np.float32)
        out, _ = VectorExecutor(faithful=True).run(p, {"x": x})
        assert np.allclose(out[..., 0], x.sum(-1), atol=1e-5)

    def test_vsub(self, rng):
        p = Program("sub", inputs=["x", "y"])
        p.emit(OpCode.VSUB, "out", "x", "y")
        x = rng.normal(size=8).astype(np.float32)
        y = rng.normal(size=8).astype(np.float32)
        out, _ = VectorExecutor(faithful=False).run(p, {"x": x, "y": y})
        assert np.allclose(out, x - y, atol=1e-6)

    def test_fast_path_cycle_accounting_matches_eqn10(self, rng):
        """Fast-path cycles use the same (L + 8) chunking as the PU."""
        p = Program("m", inputs=["x"])
        p.emit(OpCode.VMULI, "out", "x", imm=3.0)
        ex = VectorExecutor(faithful=False)
        x = rng.normal(size=600).astype(np.float32)
        ex.run(p, {"x": x})
        assert ex.pu.stats.cycles_fp32_mul == (128 + 8) + (22 + 8)
        assert ex.pu.stats.fp32_mul_ops == 600

    def test_hclamp(self):
        p = Program("c", inputs=["x"])
        p.emit(OpCode.HCLAMP, "out", "x", imm=(-1.0, 1.0))
        x = np.array([-5.0, 0.5, 5.0], np.float32)
        out, tr = VectorExecutor(faithful=False).run(p, {"x": x})
        assert list(out) == [-1.0, 0.5, 1.0]
        assert tr.host_ops == ["hclamp"]
