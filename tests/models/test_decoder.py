"""Tests for the decoder substrate: RMSNorm, SwiGLU, causal attention, TinyLM."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.models.attention import MultiHeadSelfAttention
from repro.models.data import additive_lm_sequences
from repro.models.decoder import RMSNorm, SwiGLUMLP, TinyLM
from repro.models.training import lm_cross_entropy, next_token_accuracy, train_lm


def _fd_check(forward, dx, x, dout, entries, eps=1e-3, tol=8e-3):
    for idx in entries:
        xp, xm = x.copy(), x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        fp = float((forward(xp).astype(np.float64) * dout).sum())
        fm = float((forward(xm).astype(np.float64) * dout).sum())
        num = (fp - fm) / (2 * eps)
        assert abs(num - dx[idx]) <= tol * max(1.0, abs(num)), idx


class TestRMSNorm:
    def test_unit_rms(self, rng):
        ln = RMSNorm(16)
        x = (rng.normal(size=(5, 16)) * 3).astype(np.float32)
        y = ln.forward(x)
        rms = np.sqrt((y.astype(np.float64) ** 2).mean(-1))
        assert np.allclose(rms, 1.0, atol=1e-3)

    def test_no_mean_subtraction(self):
        """Unlike LayerNorm, a constant input maps to a constant +/-1."""
        x = np.full((1, 8), 5.0, np.float32)
        y = RMSNorm(8).forward(x)
        assert np.allclose(y, 1.0, atol=1e-4)

    def test_gradient(self, rng):
        ln = RMSNorm(6).train()
        ln.zero_grad()
        x = rng.normal(size=(3, 6)).astype(np.float32)
        dout = rng.normal(size=(3, 6)).astype(np.float32)
        ln.forward(x)
        dx = ln.backward(dout)
        _fd_check(lambda v: ln.forward(v), dx, x, dout, [(0, 0), (2, 5)])

    def test_matches_vector_program(self, rng):
        from repro.runtime.executor import VectorExecutor
        from repro.runtime.vector_ops import build_rmsnorm

        x = (rng.normal(size=(4, 16)) * 2).astype(np.float32)
        layer = RMSNorm(16)
        ref = layer.forward(x)
        out, _ = VectorExecutor(faithful=False).run(build_rmsnorm(), {
            "x": x,
            "gamma": layer.params["gamma"][None, :],
            "inv_n": np.full((4, 1), 1 / 16, np.float32),
            "eps": np.full((4, 1), layer.eps, np.float32),
        })
        assert np.abs(out - ref).max() < 1e-5


class TestSwiGLU:
    def test_forward_semantics(self, rng):
        mlp = SwiGLUMLP(8, 16, rng=rng)
        x = rng.normal(size=(2, 3, 8)).astype(np.float32)
        out = mlp.forward(x)
        g = x @ mlp.gate.params["w"]
        u = x @ mlp.up.params["w"]
        silu = g / (1 + np.exp(-g.astype(np.float64)))
        ref = (silu * u) @ mlp.down.params["w"].astype(np.float64)
        assert np.allclose(out, ref, atol=1e-4)

    def test_gradient(self, rng):
        mlp = SwiGLUMLP(6, 10, rng=rng).train()
        mlp.zero_grad()
        x = rng.normal(size=(1, 2, 6)).astype(np.float32)
        dout = rng.normal(size=(1, 2, 6)).astype(np.float32)
        mlp.forward(x)
        dx = mlp.backward(dout)
        _fd_check(lambda v: mlp.forward(v), dx, x, dout,
                  [(0, 0, 0), (0, 1, 5)])

    def test_no_biases(self, rng):
        mlp = SwiGLUMLP(8, 16, rng=rng)
        assert "b" not in mlp.gate.params


class TestCausalAttention:
    def test_future_positions_masked(self, rng):
        """Changing a future token must not change earlier outputs."""
        attn = MultiHeadSelfAttention(8, 2, rng=rng, causal=True)
        x = rng.normal(size=(1, 6, 8)).astype(np.float32)
        base = attn.forward(x)
        x2 = x.copy()
        x2[0, 5] += 10.0
        out = attn.forward(x2)
        assert np.allclose(out[0, :5], base[0, :5], atol=1e-5)
        assert not np.allclose(out[0, 5], base[0, 5], atol=1e-3)

    def test_non_causal_sees_future(self, rng):
        attn = MultiHeadSelfAttention(8, 2, rng=rng, causal=False)
        x = rng.normal(size=(1, 6, 8)).astype(np.float32)
        base = attn.forward(x)
        x2 = x.copy()
        x2[0, 5] += 10.0
        assert not np.allclose(attn.forward(x2)[0, 0], base[0, 0], atol=1e-5)


class TestTinyLM:
    def test_forward_shape(self, rng):
        lm = TinyLM(vocab=8, seq_len=10, dim=16, depth=1, n_heads=2, seed=0)
        logits = lm.forward(rng.integers(0, 8, (3, 10)))
        assert logits.shape == (3, 10, 8)

    def test_context_limit(self, rng):
        lm = TinyLM(vocab=8, seq_len=6)
        with pytest.raises(ConfigurationError):
            lm.forward(rng.integers(0, 8, (1, 7)))

    def test_lm_cross_entropy_gradient_shape(self, rng):
        logits = rng.normal(size=(2, 5, 8)).astype(np.float32)
        tokens = rng.integers(0, 8, (2, 5))
        loss, d = lm_cross_entropy(logits, tokens)
        assert d.shape == logits.shape
        assert (d[:, -1] == 0).all()  # last position has no target
        assert loss > 0

    def test_training_learns_the_grammar(self):
        data = additive_lm_sequences(n=400, seq_len=10, vocab=6, seed=3)
        lm = TinyLM(vocab=6, seq_len=10, dim=24, depth=2, n_heads=4, seed=4)
        before = next_token_accuracy(lm, data.tokens[320:])
        losses = train_lm(lm, data.tokens[:320], epochs=8, seed=5)
        after = next_token_accuracy(lm, data.tokens[320:])
        assert losses[-1] < losses[0]
        assert after > before + 0.2

    def test_generation_uses_context(self):
        data = additive_lm_sequences(n=400, seq_len=10, vocab=6, seed=3)
        lm = TinyLM(vocab=6, seq_len=10, dim=24, depth=2, n_heads=4, seed=4)
        train_lm(lm, data.tokens[:320], epochs=8, seed=5)
        prompt = data.tokens[350, :4]
        gen = lm.generate(prompt, 4)
        assert len(gen) == 8
        assert (gen[:4] == prompt).all()


class TestMixedPrecisionClaim:
    @pytest.fixture(scope="class")
    def trained_lm(self):
        data = additive_lm_sequences(n=500, seq_len=10, vocab=6, seed=7)
        lm = TinyLM(vocab=6, seq_len=10, dim=24, depth=2, n_heads=4, seed=8)
        train_lm(lm, data.tokens[:400], epochs=10, seed=9)
        return lm, data.tokens[400:]

    def test_bfp8_mixed_matches_fp32(self, trained_lm):
        from repro.models.backend import get_backend

        lm, test = trained_lm
        fp32 = next_token_accuracy(lm, test)
        mixed = next_token_accuracy(lm, test, get_backend("bfp8-mixed"))
        assert mixed >= fp32 - 0.03

    def test_int8_all_collapses(self, trained_lm):
        """The decoder's RMSNorm/SwiGLU stack is the paper's worst case for
        integer-everything inference."""
        from repro.models.backend import get_backend

        lm, test = trained_lm
        fp32 = next_token_accuracy(lm, test)
        int8 = next_token_accuracy(lm, test, get_backend("int8-all"))
        mixed = next_token_accuracy(lm, test, get_backend("bfp8-mixed"))
        assert int8 < mixed
        assert int8 < fp32 - 0.1  # a real accuracy collapse, not noise
