"""Precision policies: resolution, serialization, presets, error paths."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError, RegistryError
from repro.models.policy import (
    POLICY_PRESETS,
    ROLES,
    PolicyRule,
    PrecisionPolicy,
    get_policy,
    load_policy,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
EXAMPLE_POLICY = REPO_ROOT / "examples" / "policies" / "mixed_bfp8_fp8.json"


class TestResolution:
    def test_first_match_wins(self):
        p = PrecisionPolicy(rules=(
            PolicyRule("block0.attn", "linear", "int8"),
            PolicyRule("*", "linear", "bfp8"),
        ))
        assert p.resolve_name("block0.attn", "linear") == "int8"
        assert p.resolve_name("block1.attn", "linear") == "bfp8"

    def test_default_fallback(self):
        p = PrecisionPolicy(rules=(PolicyRule("*", "linear", "bfp8"),),
                            default="fp32")
        assert p.resolve_name("block0.attn", "nonlinear") == "fp32"

    def test_strict_policy_raises_on_no_match(self):
        p = PrecisionPolicy(rules=(PolicyRule("head", "linear", "bfp8"),),
                            default=None)
        assert p.resolve_name("head", "linear") == "bfp8"
        with pytest.raises(ConfigurationError, match="no rule"):
            p.resolve_name("block0.attn", "linear")

    def test_unknown_role_raises(self):
        p = PrecisionPolicy()
        with pytest.raises(ConfigurationError, match="unknown tensor role"):
            p.resolve_name("block0.attn", "conv")

    def test_rule_rejects_unknown_role(self):
        with pytest.raises(ConfigurationError, match="unknown tensor role"):
            PolicyRule("*", "conv", "bfp8")

    def test_unknown_format_fails_at_construction(self):
        with pytest.raises(RegistryError, match="unknown quantization format"):
            PrecisionPolicy(rules=(PolicyRule("*", "linear", "bfp8x"),))
        with pytest.raises(RegistryError, match="unknown quantization format"):
            PrecisionPolicy(default="notafmt")

    def test_suffix_matching_survives_wrapper_scopes(self):
        # The profile CLI pushes "prefill"/"decode" around the model; a
        # per-layer rule still has to hit.
        p = PrecisionPolicy(
            rules=(PolicyRule("block*.mlp", "linear", "fp8-e4m3"),),
            default="bfp8",
        )
        assert p.resolve_name("prefill.block0.mlp", "linear") == "fp8-e4m3"
        assert p.resolve_name("block0.mlp", "linear") == "fp8-e4m3"
        assert p.resolve_name("block0.attn", "linear") == "bfp8"

    def test_resolve_returns_registry_format(self):
        p = PrecisionPolicy(default="int8")
        assert p.resolve("anything", "linear").name == "int8"


class TestSerialization:
    def test_json_round_trip_identical_resolution(self):
        p = get_policy("mixed-fp8")
        q = PrecisionPolicy.from_json(p.to_json())
        assert q == p
        for layer in ("block0.attn", "block0.mlp", "block7.mlp", "head",
                      "patch_embed", "final_norm"):
            for role in ROLES:
                assert q.resolve_name(layer, role) == p.resolve_name(
                    layer, role)

    def test_load_from_file(self, tmp_path):
        p = get_policy("bfp8-mixed")
        f = tmp_path / "p.json"
        f.write_text(p.to_json())
        assert PrecisionPolicy.load(f) == p
        assert load_policy(str(f)) == p

    def test_unknown_document_keys_raise(self):
        with pytest.raises(ConfigurationError, match="unknown policy keys"):
            PrecisionPolicy.from_dict({"name": "x", "formats": []})
        with pytest.raises(ConfigurationError, match="unknown keys"):
            PrecisionPolicy.from_dict(
                {"rules": [{"format": "bfp8", "tensor": "w"}]})

    def test_policies_are_hashable(self):
        a, b = get_policy("mixed-fp8"), get_policy("mixed-fp8")
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


class TestPresets:
    def test_every_legacy_backend_has_a_preset(self):
        from repro.models.backend import BACKENDS

        for name in BACKENDS:
            assert name in POLICY_PRESETS

    def test_get_policy_unknown_raises(self):
        with pytest.raises(RegistryError, match="unknown policy preset"):
            get_policy("no-such-preset")

    def test_load_policy_prefers_preset_names(self):
        assert load_policy("mixed-fp8") == get_policy("mixed-fp8")

    def test_load_policy_rejects_garbage(self):
        with pytest.raises(ConfigurationError, match="neither a preset"):
            load_policy("definitely/not/a/file.json")

    def test_committed_example_matches_preset(self):
        assert EXAMPLE_POLICY.exists()
        assert PrecisionPolicy.load(EXAMPLE_POLICY) == get_policy("mixed-fp8")


class TestMixedPolicyEndToEnd:
    def test_tinylm_runs_with_per_format_attribution(self):
        from repro.models.backend import PolicyBackend
        from repro.models.decoder import TinyLM
        from repro.obs.profile import Profiler

        backend = PolicyBackend(get_policy("mixed-fp8"))
        backend.profiler = Profiler()
        model = TinyLM(seed=0)
        rng = np.random.default_rng(0)
        tokens = rng.integers(0, model.vocab, size=(1, model.seq_len))
        logits = model.forward(tokens, backend)
        assert np.all(np.isfinite(logits))

        by_prec = backend.profiler.by_precision()
        # Attention stack on the array in bfp8, MLP linears in fp8-e4m3,
        # non-linear functions on the fp32 vector personality.
        assert by_prec["bfp8"]["cycles"] > 0
        assert by_prec["fp8-e4m3"]["cycles"] > 0
        assert by_prec["fp32"]["cycles"] > 0
        matmul_precisions = {
            prec for (_, prec, kind) in backend.profiler.entries
            if kind == "matmul"
        }
        assert {"bfp8", "fp8-e4m3"} <= matmul_precisions
        assert "fp32" not in matmul_precisions

    def test_attention_vs_mlp_formats(self):
        p = get_policy("mixed-fp8")
        assert p.resolve_name("block0.attn", "linear") == "bfp8"
        assert p.resolve_name("block0.attn", "attention") == "bfp8"
        assert p.resolve_name("block0.mlp", "linear") == "fp8-e4m3"
        assert p.resolve_name("block0.attn", "nonlinear") == "fp32"
        assert p.resolve_name("block0.mlp", "residual") == "fp32"
