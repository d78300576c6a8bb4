"""Backward state is kept only in training mode.

The modeled unit streams activations through the array and out; nothing
holds a layer's input once the next layer has read it.  Eager inference
does the same: a forward in inference mode (``Module.training`` is
``False``, the default) keeps no backward state, and only
``Module.train()`` turns it on for the training loops and gradient tests.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.models.attention import MultiHeadSelfAttention
from repro.models.backend import get_backend
from repro.models.data import additive_lm_sequences, majority_task
from repro.models.decoder import RMSNorm, SwiGLUMLP, TinyLM
from repro.models.layers import GELU, Embedding, LayerNorm, Linear, Softmax
from repro.models.training import train_classifier, train_lm
from repro.models.vit import SequenceClassifier, VisionTransformer

#: Bytes an inference forward may leave allocated once its output is
#: dropped.  Keeping the backward state of the two 2-block models below
#: leaves 192-198 KB (ViT) and 613 KB (TinyLM) allocated.
RETAINED_LIMIT = 32 * 1024


def _modules(m):
    yield m
    for child in m.children():
        yield from _modules(child)


def _retained_bytes(model, x) -> int:
    """Bytes still traced after one bfp8-mixed forward whose output is
    dropped, with the weights prepared before tracing starts."""
    backend = get_backend("bfp8-mixed")
    model.prepare(backend)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model.forward(x, backend)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


class TestInferenceKeepsNoActivations:
    def test_vit_forward(self, rng):
        vit = VisionTransformer(image_size=32, patch_size=8, dim=64, depth=2,
                                n_heads=2, n_classes=10)
        images = rng.normal(size=(1, 3, 32, 32)).astype(np.float32)
        assert _retained_bytes(vit, images) < RETAINED_LIMIT

    def test_tinylm_forward(self, rng):
        lm = TinyLM(dim=64, depth=2, seq_len=48)
        tokens = rng.integers(0, lm.vocab, size=(1, 48))
        assert _retained_bytes(lm, tokens) < RETAINED_LIMIT


def _layer_cases(rng):
    x = rng.normal(size=(2, 3, 8)).astype(np.float32)
    return [
        (Linear(8, 4, rng=rng), x),
        (LayerNorm(8), x),
        (GELU(), x),
        (Softmax(), x),
        (Embedding(10, 8, rng=rng), np.array([[1, 2, 3]])),
        (MultiHeadSelfAttention(8, 2, rng=rng), x),
        (RMSNorm(8), x),
        (SwiGLUMLP(8, 16, rng=rng), x),
        (SequenceClassifier(vocab=10, seq_len=3, dim=8, depth=1, n_heads=2),
         np.array([[1, 2, 3]])),
        (TinyLM(vocab=10, seq_len=3, dim=8, depth=1, n_heads=2),
         np.array([[1, 2, 3]])),
    ]


class TestBackwardNeedsTrainingMode:
    def test_backward_after_inference_forward_raises(self, rng):
        for layer, x in _layer_cases(rng):
            y = layer.forward(x)
            with pytest.raises(ConfigurationError, match=r"train\(\)"):
                layer.backward(np.ones_like(y))

    def test_inference_forward_drops_earlier_training_state(self, rng):
        """A training forward, then an inference one: backward must not
        run on the first forward's stale state."""
        for layer, x in _layer_cases(rng):
            layer.train().forward(x)
            y = layer.train(False).forward(x)
            with pytest.raises(ConfigurationError, match=r"train\(\)"):
                layer.backward(np.ones_like(y))


class TestTrainSwitch:
    def test_train_returns_module_and_reaches_every_child(self):
        for model in (TinyLM(depth=2), SequenceClassifier(depth=2)):
            deepest = model.blocks[-1].attn.attn_softmax
            assert not any(m.training for m in _modules(model))
            assert model.train() is model
            assert deepest.training
            assert all(m.training for m in _modules(model))
            assert model.train(False) is model
            assert not any(m.training for m in _modules(model))

    def test_train_lm_leaves_inference_mode(self):
        lm = TinyLM(vocab=16, seq_len=8, dim=16, depth=1, n_heads=2)
        data = additive_lm_sequences(n=16, seq_len=8)
        train_lm(lm, data.tokens, epochs=1, batch_size=8)
        assert not any(m.training for m in _modules(lm))

    def test_train_classifier_leaves_inference_mode(self):
        train, test = majority_task(n=20, seq_len=6, vocab=4).split()
        model = SequenceClassifier(vocab=4, seq_len=6, dim=8, depth=1,
                                   n_heads=2)
        train_classifier(model, train, test, epochs=1, batch_size=8)
        assert not any(m.training for m in _modules(model))
