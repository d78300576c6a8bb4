"""Tests for the ViT and sequence-classifier models."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.models.configs import DEIT_BASE, DEIT_SMALL, DEIT_TINY
from repro.models.vit import (
    PatchEmbed,
    SequenceClassifier,
    TransformerBlock,
    VisionTransformer,
)


class TestTransformerBlock:
    def test_forward_shape(self, rng):
        blk = TransformerBlock(16, 4, rng=rng)
        x = rng.normal(size=(2, 5, 16)).astype(np.float32)
        assert blk.forward(x).shape == x.shape

    def test_residual_structure(self, rng):
        """Zeroing all weights reduces the block to identity + beta terms."""
        blk = TransformerBlock(8, 2, rng=rng)
        for mod in (blk.attn.qkv, blk.attn.proj, blk.mlp.fc1, blk.mlp.fc2):
            mod.params["w"][:] = 0
            if "b" in mod.params:
                mod.params["b"][:] = 0
        x = rng.normal(size=(1, 3, 8)).astype(np.float32)
        assert np.allclose(blk.forward(x), x, atol=1e-6)

    def test_backward_fd(self, rng):
        blk = TransformerBlock(8, 2, rng=rng).train()
        x = rng.normal(size=(1, 3, 8)).astype(np.float32)
        dout = rng.normal(size=(1, 3, 8)).astype(np.float32)
        blk.zero_grad()
        blk.forward(x)
        dx = blk.backward(dout)
        eps = 1e-3
        for idx in [(0, 0, 0), (0, 2, 7)]:
            xp, xm = x.copy(), x.copy()
            xp[idx] += eps
            xm[idx] -= eps
            fp = float((blk.forward(xp).astype(np.float64) * dout).sum())
            fm = float((blk.forward(xm).astype(np.float64) * dout).sum())
            num = (fp - fm) / (2 * eps)
            assert abs(num - dx[idx]) <= 5e-3 * max(1.0, abs(num))


class TestPatchEmbed:
    def test_patch_count(self, rng):
        pe = PatchEmbed(32, 8, 3, 16, rng=rng)
        out = pe.forward(rng.normal(size=(2, 3, 32, 32)).astype(np.float32))
        assert out.shape == (2, 16, 16)

    def test_patch_extraction_order(self, rng):
        """Each output token depends only on its own patch."""
        pe = PatchEmbed(16, 8, 1, 4, rng=rng)
        img = np.zeros((1, 1, 16, 16), np.float32)
        base = pe.forward(img).copy()
        img[0, 0, 0, 0] = 5.0  # top-left patch only
        out = pe.forward(img)
        assert np.abs(out[0, 0] - base[0, 0]).max() > 0
        assert np.allclose(out[0, 1:], base[0, 1:])

    def test_size_validation(self):
        with pytest.raises(ConfigurationError):
            PatchEmbed(30, 8)
        pe = PatchEmbed(16, 8)
        with pytest.raises(ConfigurationError):
            pe.forward(np.zeros((1, 3, 8, 8), np.float32))


class TestVisionTransformer:
    def test_forward_shape(self, rng):
        vit = VisionTransformer(image_size=32, patch_size=8, dim=32, depth=2,
                                n_heads=4, n_classes=10, seed=0)
        logits = vit.forward(rng.normal(size=(3, 3, 32, 32)).astype(np.float32))
        assert logits.shape == (3, 10)

    def test_deterministic(self, rng):
        kw = dict(image_size=32, patch_size=8, dim=32, depth=1, n_heads=2,
                  n_classes=4, seed=5)
        x = rng.normal(size=(1, 3, 32, 32)).astype(np.float32)
        a = VisionTransformer(**kw).forward(x)
        b = VisionTransformer(**kw).forward(x)
        assert np.array_equal(a, b)

    def test_deit_small_parameter_count(self):
        """DeiT-Small has ~22M parameters; the architecture must match."""
        vit = VisionTransformer(
            dim=DEIT_SMALL.dim, depth=DEIT_SMALL.depth,
            n_heads=DEIT_SMALL.n_heads, n_classes=1000, seed=0,
        )
        n = vit.n_parameters()
        assert 21e6 < n < 23e6

    def test_config_properties(self):
        assert DEIT_SMALL.n_tokens == 197
        assert DEIT_SMALL.head_dim == 64
        assert DEIT_SMALL.mlp_hidden == 1536
        assert DEIT_TINY.dim < DEIT_SMALL.dim < DEIT_BASE.dim


class TestSequenceClassifier:
    def test_forward_shape(self, rng):
        m = SequenceClassifier(vocab=10, seq_len=8, dim=16, depth=1,
                               n_heads=2, seed=0)
        logits = m.forward(rng.integers(0, 10, (5, 8)))
        assert logits.shape == (5, 2)

    def test_seq_len_validation(self, rng):
        m = SequenceClassifier(seq_len=8)
        with pytest.raises(ConfigurationError):
            m.forward(rng.integers(0, 10, (2, 9)))

    def test_backward_updates_all_grads(self, rng):
        m = SequenceClassifier(vocab=10, seq_len=8, dim=16, depth=2,
                               n_heads=2, seed=0).train()
        m.zero_grad()
        logits = m.forward(rng.integers(0, 10, (4, 8)))
        m.backward(np.ones_like(logits) / 4)
        grads = m.named_grads()
        nonzero = [k for k, g in grads.items()
                   if isinstance(g, np.ndarray) and np.abs(g).max() > 0]
        # Every parameter should receive gradient signal.
        assert len(nonzero) == len(m.named_parameters())
