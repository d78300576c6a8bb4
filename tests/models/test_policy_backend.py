"""PolicyBackend pins: every regime is a policy name, bit-identically.

The registry/policy refactor replaced the class-per-format backend zoo
with :class:`~repro.models.backend.PolicyBackend`, and a regime is now
just a :func:`~repro.models.policy.get_policy` name.  These tests pin the
SHA-256 of the TinyLM logits under every ``BACKENDS`` name to the value
recorded on the pre-refactor tree, and under the width names
(``bfp4-mixed``, ``int4-all``, ...) to the values the width-argument
backend classes produced before the names replaced them.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.models.backend import BACKENDS, PolicyBackend, get_backend
from repro.models.decoder import TinyLM

# Recorded on the pre-refactor tree: TinyLM(seed=0), tokens from
# default_rng(0) with shape (2, seq_len), forward logits hashed raw.
PRE_REFACTOR_LOGITS_SHA256 = {
    "bfp8-all":
        "500d3d2abd606a2912631fa7fafb8f06aa7ac1494164d125b9507984fef0e9d1",
    "bfp8-mixed":
        "249e62cd17ef485d8011754192d1b08962ac2d862804ce393ccd0f97c14c261e",
    "fp32":
        "0aa7981b545ad8609429429a0d9ffd25aadc2762bf91b261bdd504acce7e02f5",
    "ibert":
        "f5475241300e47bde7a83bc86791804f26cc709201b23df13b913025d9ee5b65",
    "int8-all":
        "6dce73506fad90e2435675bc0e3ddfc809b893b7242dc9e7efbeea058d9bc31a",
    "int8-linear":
        "fb07e81e89814ef8053055a409ef8cdd6d15e76f5d56ed800ba225327300df0c",
}

# Recorded on the tree whose backends took width arguments
# (``man_bits``/``bits``), same fixture.
WIDTH_LOGITS_SHA256 = {
    "bfp4-mixed":
        "4a5a1c53437310aab124efa951b27968bf0facf6a092d76b237f3d386ff266c7",
    "bfp7-mixed":
        "9ede298f08786b44597df2dae68dc7c90c68f97a103ed8b4487f04089bd009da",
    "bfp6-all":
        "385def9e9dd7ad940e4ae771020c8e85970bd8daeca918d49270b0bb39be6d1b",
    "int4-linear":
        "2a86d871ae0ece00eda22fa38b436cc639918908fbf77bc617f2e35333c68a30",
    "int4-all":
        "f05637209fbb7595245eabfc9f5270ab85fa0fec4e5b516da90345d75057f55d",
}

# Greedy decode from tokens[0, :4] for 6 steps (prompt + generated).
PRE_REFACTOR_GENERATION = {
    name: [13, 10, 8, 4, 2, 4, 6, 3, 3, 3]
    for name in PRE_REFACTOR_LOGITS_SHA256
}
PRE_REFACTOR_GENERATION["ibert"] = [13, 10, 8, 4, 2, 4, 3, 10, 10, 10]


def _fixture():
    model = TinyLM(seed=0)
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, model.vocab, size=(2, model.seq_len))
    return model, tokens


def _sha256(logits: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(logits).tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(PRE_REFACTOR_LOGITS_SHA256))
def test_legacy_backend_bit_identical_to_pre_refactor(name):
    model, tokens = _fixture()
    logits = model.forward(tokens, get_backend(name))
    assert _sha256(logits) == PRE_REFACTOR_LOGITS_SHA256[name]
    gen = model.generate_cached(tokens[0, :4], 6, get_backend(name))
    assert list(gen) == PRE_REFACTOR_GENERATION[name]


@pytest.mark.parametrize("name", sorted(WIDTH_LOGITS_SHA256))
def test_width_name_bit_identical(name):
    model, tokens = _fixture()
    backend = get_backend(name)
    assert backend.name == name
    logits = model.forward(tokens, backend)
    assert _sha256(logits) == WIDTH_LOGITS_SHA256[name]


def test_backends_registry_unchanged():
    # The regime set is a public contract (results tables, CLI); new
    # policies belong in POLICY_PRESETS, not BACKENDS.
    assert sorted(BACKENDS) == sorted(PRE_REFACTOR_LOGITS_SHA256)


def test_strict_policy_covering_every_layer_builds():
    """``default=None`` with rules for every TinyLM layer but not the
    empty root path: the backend builds and matches ``bfp8-all``."""
    from repro.models.policy import PolicyRule, PrecisionPolicy

    policy = PrecisionPolicy(
        name="strict-bfp8",
        rules=tuple(
            PolicyRule(layer, "*", "bfp8")
            for layer in ("block*", "final_norm", "head")
        ),
        default=None,
    )
    model, tokens = _fixture()
    logits = model.forward(tokens, PolicyBackend(policy))
    assert _sha256(logits) == PRE_REFACTOR_LOGITS_SHA256["bfp8-all"]


def test_policy_backend_strict_policy_raises_on_unmatched_layer():
    from repro.errors import ConfigurationError
    from repro.models.policy import PolicyRule, PrecisionPolicy

    policy = PrecisionPolicy(
        rules=(PolicyRule("head", "linear", "bfp8"),), default=None
    )
    model, tokens = _fixture()
    with pytest.raises(ConfigurationError, match="no rule"):
        model.forward(tokens, PolicyBackend(policy))
