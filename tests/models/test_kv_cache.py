"""Tests for KV-cache incremental decoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.models.attention import MultiHeadSelfAttention
from repro.models.decoder import TinyLM
from repro.runtime.plan import KvArena


def _arena_cache(attn: MultiHeadSelfAttention) -> dict:
    return {"arena": KvArena(1, attn.n_heads, attn.head_dim, max_capacity=16)}


class TestAttentionStep:
    def test_stepwise_equals_full_causal(self, rng):
        """Feeding tokens one at a time through the cache reproduces the
        full causal forward pass."""
        attn = MultiHeadSelfAttention(16, 4, rng=rng, causal=True)
        x = rng.normal(size=(1, 6, 16)).astype(np.float32)
        full = attn.forward(x)
        cache = _arena_cache(attn)
        steps = [attn.forward_step(x[:, i : i + 1], cache) for i in range(6)]
        stepped = np.concatenate(steps, axis=1)
        assert np.allclose(stepped, full, atol=1e-5)

    def test_requires_causal(self, rng):
        attn = MultiHeadSelfAttention(8, 2, rng=rng, causal=False)
        with pytest.raises(ConfigurationError):
            attn.forward_step(np.zeros((1, 1, 8), np.float32), _arena_cache(attn))

    def test_one_token_at_a_time(self, rng):
        attn = MultiHeadSelfAttention(8, 2, rng=rng, causal=True)
        with pytest.raises(ConfigurationError):
            attn.forward_step(np.zeros((1, 2, 8), np.float32), _arena_cache(attn))

    def test_cache_grows(self, rng):
        attn = MultiHeadSelfAttention(8, 2, rng=rng, causal=True)
        cache = _arena_cache(attn)
        for t in range(4):
            attn.forward_step(
                rng.normal(size=(1, 1, 8)).astype(np.float32), cache
            )
            assert cache["arena"].length == t + 1

    def test_plain_dict_cache_rejected(self, rng):
        attn = MultiHeadSelfAttention(8, 2, rng=rng, causal=True)
        cache = {"k": np.zeros((1, 0, 0, 0), np.float32),
                 "v": np.zeros((1, 0, 0, 0), np.float32)}
        with pytest.raises(ConfigurationError, match="init_cache"):
            attn.forward_step(np.zeros((1, 1, 8), np.float32), cache)


class TestTinyLMCache:
    @pytest.fixture(scope="class")
    def lm(self):
        return TinyLM(vocab=8, seq_len=12, dim=24, depth=2, n_heads=4, seed=3)

    def test_step_logits_match_full_forward(self, lm, rng):
        tokens = rng.integers(0, 8, 7)
        caches = lm.init_cache()
        logits = None
        for pos, t in enumerate(tokens):
            logits = lm.forward_step(int(t), pos, caches)
        full = lm.forward(tokens[None, :])[0, -1]
        assert np.allclose(logits, full, atol=1e-5)

    @given(st.integers(0, 100))
    @settings(max_examples=8)
    def test_cached_generation_matches_recompute(self, seed):
        lm = TinyLM(vocab=8, seq_len=12, dim=16, depth=1, n_heads=2, seed=4)
        rng = np.random.default_rng(seed)
        prompt = rng.integers(0, 8, 4)
        full = lm.generate(prompt, 6)
        cached = lm.generate_cached(prompt, 6)
        assert np.array_equal(full[: len(cached)], cached)

    def test_position_bound(self, lm):
        with pytest.raises(ConfigurationError):
            lm.forward_step(0, 12, lm.init_cache())

    def test_cache_under_bfp8_mixed(self, lm, rng):
        """Incremental decode also works under the deployed regime."""
        from repro.models.backend import get_backend

        prompt = rng.integers(0, 8, 4)
        out = lm.generate_cached(prompt, 4, get_backend("bfp8-mixed"))
        assert len(out) == 8
