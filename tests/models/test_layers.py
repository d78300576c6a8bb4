"""Tests for the NumPy layers: forward correctness and gradient checks."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.models.layers import (
    GELU,
    Embedding,
    LayerNorm,
    Linear,
    Softmax,
    gelu,
    softmax,
)


def _fd_check(forward, backward, x, dout, entries, eps=1e-3, tol=5e-3):
    """Finite-difference check of dL/dx at selected entries."""
    _ = forward(x)
    dx = backward(dout)
    for idx in entries:
        xp, xm = x.copy(), x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        fp = float((forward(xp).astype(np.float64) * dout).sum())
        fm = float((forward(xm).astype(np.float64) * dout).sum())
        num = (fp - fm) / (2 * eps)
        assert abs(num - dx[idx]) <= tol * max(1.0, abs(num)), idx


class TestLinear:
    def test_forward(self, rng):
        lin = Linear(4, 3, rng=rng)
        x = rng.normal(size=(5, 4)).astype(np.float32)
        y = lin.forward(x)
        ref = x @ lin.params["w"] + lin.params["b"]
        assert np.allclose(y, ref, atol=1e-6)

    def test_forward_nd(self, rng):
        lin = Linear(4, 3, rng=rng)
        y = lin.forward(rng.normal(size=(2, 5, 4)).astype(np.float32))
        assert y.shape == (2, 5, 3)

    def test_no_bias(self, rng):
        lin = Linear(4, 3, bias=False, rng=rng)
        assert "b" not in lin.params

    def test_input_gradient(self, rng):
        lin = Linear(4, 3, rng=rng).train()
        x = rng.normal(size=(5, 4)).astype(np.float32)
        dout = rng.normal(size=(5, 3)).astype(np.float32)
        _fd_check(lambda v: lin.forward(v), lin.backward, x, dout,
                  [(0, 0), (4, 3 - 1), (2, 2)])

    def test_weight_gradient(self, rng):
        lin = Linear(3, 2, rng=rng).train()
        x = rng.normal(size=(4, 3)).astype(np.float32)
        dout = rng.normal(size=(4, 2)).astype(np.float32)
        lin.zero_grad()
        lin.forward(x)
        lin.backward(dout)
        ref = x.astype(np.float64).T @ dout.astype(np.float64)
        assert np.allclose(lin.grads["w"], ref, atol=1e-5)
        assert np.allclose(lin.grads["b"], dout.sum(0), atol=1e-5)

    def test_shape_check(self, rng):
        with pytest.raises(ConfigurationError):
            Linear(4, 3).forward(rng.normal(size=(5, 5)).astype(np.float32))


class TestLayerNorm:
    def test_forward_statistics(self, rng):
        ln = LayerNorm(16)
        x = (rng.normal(size=(7, 16)) * 3 + 5).astype(np.float32)
        y = ln.forward(x)
        assert np.allclose(y.mean(-1), 0, atol=1e-5)
        assert np.allclose(y.std(-1), 1, atol=1e-3)

    def test_affine(self, rng):
        ln = LayerNorm(8)
        ln.params["gamma"][:] = 2.0
        ln.params["beta"][:] = 1.0
        y = ln.forward(rng.normal(size=(3, 8)).astype(np.float32))
        assert np.allclose(y.mean(-1), 1.0, atol=1e-5)

    def test_gradient(self, rng):
        ln = LayerNorm(6).train()
        x = rng.normal(size=(4, 6)).astype(np.float32)
        dout = rng.normal(size=(4, 6)).astype(np.float32)
        ln.zero_grad()
        _fd_check(lambda v: ln.forward(v), ln.backward, x, dout,
                  [(0, 0), (3, 5), (2, 3)])


class TestGELU:
    def test_matches_reference(self, rng):
        g = GELU()
        x = rng.normal(size=(5, 5)).astype(np.float32)
        assert np.allclose(g.forward(x), gelu(x), atol=1e-6)

    def test_known_values(self):
        assert gelu(np.array([0.0]))[0] == 0.0
        assert gelu(np.array([10.0]))[0] == pytest.approx(10.0, rel=1e-4)

    def test_gradient(self, rng):
        g = GELU().train()
        x = rng.normal(size=(3, 4)).astype(np.float32)
        dout = rng.normal(size=(3, 4)).astype(np.float32)
        _fd_check(lambda v: g.forward(v), g.backward, x, dout,
                  [(0, 0), (2, 3)])


class TestSoftmax:
    def test_stability_large_inputs(self):
        out = softmax(np.array([[1000.0, 1000.0]]))
        assert np.allclose(out, 0.5)

    def test_rows_sum_to_one(self, rng):
        s = Softmax()
        out = s.forward(rng.normal(size=(4, 9)).astype(np.float32) * 10)
        assert np.allclose(out.sum(-1), 1.0, atol=1e-6)

    def test_gradient(self, rng):
        s = Softmax().train()
        x = rng.normal(size=(2, 5)).astype(np.float32)
        dout = rng.normal(size=(2, 5)).astype(np.float32)
        _fd_check(lambda v: s.forward(v), s.backward, x, dout,
                  [(0, 0), (1, 4)])


class TestEmbedding:
    def test_lookup(self, rng):
        emb = Embedding(10, 4, rng=rng)
        idx = np.array([[1, 2], [3, 1]])
        out = emb.forward(idx)
        assert out.shape == (2, 2, 4)
        assert np.array_equal(out[0, 0], emb.params["w"][1])

    def test_gradient_accumulates_repeats(self, rng):
        emb = Embedding(5, 2, rng=rng).train()
        emb.zero_grad()
        idx = np.array([[0, 0, 1]])
        emb.forward(idx)
        demb = np.ones((1, 3, 2), np.float32)
        emb.backward(demb)
        assert np.allclose(emb.grads["w"][0], [2.0, 2.0])
        assert np.allclose(emb.grads["w"][1], [1.0, 1.0])

    def test_out_of_vocab_rejected(self):
        with pytest.raises(ConfigurationError):
            Embedding(5, 2).forward(np.array([5]))


class TestModuleUtilities:
    def test_named_parameters_unique(self, rng):
        from repro.models.vit import TransformerBlock

        blk = TransformerBlock(8, 2, rng=rng)
        names = list(blk.named_parameters())
        assert len(names) == len(set(names))
        assert blk.n_parameters() > 0

    def test_zero_grad_recursive(self, rng):
        from repro.models.vit import MLP

        mlp = MLP(4, 8, rng=rng)
        mlp.zero_grad()
        assert (mlp.fc1.grads["w"] == 0).all()
