"""Tests for the component-sensitivity analysis."""

import hashlib

import numpy as np
import pytest

from repro.models.sensitivity import (
    COMPONENT_CLASSES,
    SelectiveBackend,
    component_sensitivity,
)
from repro.models.vit import SequenceClassifier


@pytest.fixture(scope="module")
def model():
    return SequenceClassifier(vocab=8, seq_len=10, dim=24, depth=2,
                              n_heads=4, seed=7)


@pytest.fixture(scope="module")
def tokens():
    return np.random.default_rng(9).integers(0, 8, (64, 10))


class TestSelectiveBackend:
    def test_unknown_target(self):
        with pytest.raises(ValueError):
            SelectiveBackend("attention", ("bfp", 8))
        with pytest.raises(ValueError):
            SelectiveBackend("linear", ("fp", 8))

    def test_linear_only_quantizes_matmul(self, rng):
        be = SelectiveBackend("linear", ("int", 8))
        x = rng.normal(size=(4, 8)).astype(np.float32)
        w = rng.normal(size=(8, 4)).astype(np.float32)
        assert not np.allclose(be.matmul(x, w), x @ w, atol=1e-9)
        # non-linear and residual paths untouched
        from repro.models.layers import softmax

        assert np.allclose(be.nonlinear("softmax", softmax, x), softmax(x))
        assert np.array_equal(be.requantize(x), x)

    def test_softmax_only(self, rng):
        be = SelectiveBackend("softmax", ("int", 4))
        x = rng.normal(size=(4, 8)).astype(np.float32)
        w = rng.normal(size=(8, 4)).astype(np.float32)
        assert np.allclose(be.matmul(x, w), x @ w, atol=1e-5)
        from repro.models.layers import gelu, softmax

        assert not np.allclose(be.nonlinear("softmax", softmax, x), softmax(x),
                               atol=1e-9)
        assert np.allclose(be.nonlinear("gelu", gelu, x), gelu(x), atol=1e-7)

    def test_residual_only(self, rng):
        be = SelectiveBackend("residual", ("bfp", 4))
        x = rng.normal(size=(4, 8)).astype(np.float32)
        assert not np.array_equal(be.requantize(x), x)

    def test_logits_bit_identical_to_dedicated_engine(self, model, tokens):
        """SHA-256 of the raw logits for every scheme x component class,
        recorded when SelectiveBackend still ran its own matmul and grid
        code instead of a one-class policy, and re-pinned when the fp32
        GELU's cube became ``(x * x) * x``, whose last bits reach the
        logits."""
        h = hashlib.sha256()
        for scheme in [("bfp", 8), ("int", 8), ("bfp", 4), ("int", 4)]:
            for comp in COMPONENT_CLASSES:
                logits = model.forward(tokens, SelectiveBackend(comp, scheme))
                h.update(np.ascontiguousarray(logits).tobytes())
        assert h.hexdigest() == (
            "a3cf0af16760d115f6b4f6ec5f766a438b569b0d8f96cae8cef02bf12553101b"
        )


class TestComponentSensitivity:
    def test_rows_cover_all_components(self, model, tokens):
        rows = component_sensitivity(model, tokens, schemes=[("bfp", 8)])
        assert {r.component for r in rows} == set(COMPONENT_CLASSES)

    def test_lower_bits_perturb_more(self, model, tokens):
        rows = component_sensitivity(
            model, tokens, schemes=[("bfp", 8), ("bfp", 4)]
        )
        by = {(r.component, r.scheme): r.logit_rmse for r in rows}
        for comp in COMPONENT_CLASSES:
            assert by[(comp, "bfp4")] >= by[(comp, "bfp8")]

    def test_perturbations_are_small_at_8_bits(self, model, tokens):
        rows = component_sensitivity(model, tokens, schemes=[("bfp", 8)])
        ref_scale = float(np.abs(model.forward(tokens)).std())
        for r in rows:
            assert r.logit_rmse < max(ref_scale, 0.1)
