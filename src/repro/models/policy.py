"""Per-layer precision policies: (layer, tensor role) -> quantization format.

The paper's deployment regime — bfp8 linear layers on the systolic array,
fp32 non-linear functions on the vector personality — is one point in a
wider design space where precision is a *per-layer, per-tensor-role*
decision (Aggarwal et al., "Shedding the Bits"; Wang et al., "TransDot").
A :class:`PrecisionPolicy` expresses such a point declaratively: an
ordered list of :class:`PolicyRule` entries matched first-to-last against
the model's scope path (``block0.attn``, ``block3.mlp``, ``head``, ...)
and the tensor role of the operation, each naming a format from the
:mod:`repro.formats.registry`.

Roles
-----
``linear``      weight matmuls of Linear layers (qkv/proj/fc/head)
``attention``   batched score/context matmuls against KV-derived tensors
``nonlinear``   softmax / GELU / LayerNorm / RMSNorm evaluations
``residual``    requantization of the residual stream between sublayers

Policies are frozen (hashable — they key ``lru_cache``'d cost lookups)
and serializable: :meth:`PrecisionPolicy.to_json` /
:meth:`PrecisionPolicy.from_json` round-trip through the ``--policy``
CLI flag.  Named presets in :data:`POLICY_PRESETS` cover the regimes the
results tables compare (:data:`repro.models.backend.BACKENDS`), fp16
linear algebra and the mixed bfp8/fp8 demonstration policy the CI smoke
job runs; :func:`get_policy` also resolves width names (``bfp4-mixed``,
``int6-all``, ...) the way :func:`~repro.formats.registry.get_format`
resolves ``bfp4``/``int6``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fnmatch import fnmatchcase
from functools import lru_cache
from pathlib import Path
from typing import Callable

from repro.errors import ConfigurationError, RegistryError
from repro.formats.registry import QuantFormat, get_format

__all__ = [
    "ROLES",
    "PolicyRule",
    "PrecisionPolicy",
    "POLICY_PRESETS",
    "get_policy",
    "load_policy",
]

#: Tensor roles a policy can discriminate on.
ROLES = ("linear", "attention", "nonlinear", "residual")


@dataclass(frozen=True)
class PolicyRule:
    """One resolution rule: glob over the layer path x role -> format name.

    ``layer`` is an ``fnmatch`` pattern over the backend's dotted scope
    path (``block*.attn``, ``head``, ``*``); ``role`` is one of
    :data:`ROLES` or ``"*"``.  Rules are matched in order; the first hit
    wins.

    A pattern also matches any dot-boundary *suffix* of the scope path:
    ``block*.mlp`` hits ``prefill.block0.mlp`` as well as ``block0.mlp``.
    Callers (the profile CLI, tests) push wrapper scopes around the model
    — suffix matching keeps per-layer rules working under them.
    """

    layer: str = "*"
    role: str = "*"
    format: str = "bfp8"

    def __post_init__(self) -> None:
        if self.role != "*" and self.role not in ROLES:
            raise ConfigurationError(
                f"unknown tensor role {self.role!r}; expected one of "
                f"{ROLES} or '*'"
            )

    def matches(self, layer: str, role: str) -> bool:
        if self.role != "*" and self.role != role:
            return False
        return fnmatchcase(layer, self.layer) or fnmatchcase(
            layer, "*." + self.layer
        )


@dataclass(frozen=True)
class PrecisionPolicy:
    """An ordered, serializable mapping (layer path, role) -> format.

    ``default`` is the wildcard fallback; with ``default=None`` an
    unmatched (layer, role) raises — the strict mode for policies that
    must enumerate a model exhaustively.
    """

    name: str = "policy"
    rules: tuple[PolicyRule, ...] = ()
    default: str | None = "fp32"

    def __post_init__(self) -> None:
        # Validate eagerly: a typo'd format name should fail at policy
        # construction/load time, not at the first matmul it resolves.
        for rule in self.rules:
            get_format(rule.format)
        if self.default is not None:
            get_format(self.default)

    # -- resolution ----------------------------------------------------------
    def resolve_name(self, layer: str, role: str) -> str:
        """Format name for one (layer path, role); first matching rule wins."""
        if role not in ROLES:
            raise ConfigurationError(
                f"unknown tensor role {role!r}; expected one of {ROLES}"
            )
        return _resolve_name_cached(self, layer, role)

    def resolve(self, layer: str, role: str) -> QuantFormat:
        """Registry format for one (layer path, role)."""
        return get_format(self.resolve_name(layer, role))

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "default": self.default,
            "rules": [
                {"layer": r.layer, "role": r.role, "format": r.format}
                for r in self.rules
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_dict(cls, doc: dict) -> "PrecisionPolicy":
        if not isinstance(doc, dict):
            raise ConfigurationError(f"policy document must be a dict, got {type(doc).__name__}")
        unknown = set(doc) - {"name", "default", "rules"}
        if unknown:
            raise ConfigurationError(f"unknown policy keys: {sorted(unknown)}")
        rules = []
        for i, r in enumerate(doc.get("rules", [])):
            extra = set(r) - {"layer", "role", "format"}
            if extra:
                raise ConfigurationError(
                    f"rule {i}: unknown keys {sorted(extra)}"
                )
            rules.append(PolicyRule(
                layer=r.get("layer", "*"),
                role=r.get("role", "*"),
                format=r["format"],
            ))
        return cls(
            name=doc.get("name", "policy"),
            rules=tuple(rules),
            default=doc.get("default", "fp32"),
        )

    @classmethod
    def from_json(cls, text: str) -> "PrecisionPolicy":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str | Path) -> "PrecisionPolicy":
        return cls.from_json(Path(path).read_text())


@lru_cache(maxsize=4096)
def _resolve_name_cached(policy: PrecisionPolicy, layer: str, role: str) -> str:
    for rule in policy.rules:
        if rule.matches(layer, role):
            return rule.format
    if policy.default is None:
        raise ConfigurationError(
            f"policy {policy.name!r} has no rule for layer {layer!r} "
            f"role {role!r} and no default format"
        )
    return policy.default


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


def _uniform(name: str, fmt: str) -> PrecisionPolicy:
    """Every role, every layer in one format."""
    return PrecisionPolicy(name=name, rules=(), default=fmt)


def _linear_only(name: str, fmt: str) -> PrecisionPolicy:
    """Quantize only the array-mapped algebra; everything else exact fp32
    (the paper's mixed regime for ``fmt="bfp8"``)."""
    return PrecisionPolicy(
        name=name,
        rules=(
            PolicyRule("*", "linear", fmt),
            PolicyRule("*", "attention", fmt),
        ),
        default="fp32",
    )


def _ibert(name: str = "ibert") -> PrecisionPolicy:
    """int8 linear algebra + I-BERT integer non-linear programs."""
    return PrecisionPolicy(
        name=name,
        rules=(
            PolicyRule("*", "linear", "int8"),
            PolicyRule("*", "attention", "int8"),
        ),
        default="ibert",
    )


def _mixed_fp8(name: str = "mixed-fp8") -> PrecisionPolicy:
    """The per-layer demonstration policy: attention stack in bfp8, MLP
    linear layers in minifloat fp8-e4m3, non-linear functions exact fp32.

    This is the policy the acceptance criterion and the CI policy-smoke
    job run end-to-end (``serve-sim --policy`` / ``profile --policy``).
    """
    return PrecisionPolicy(
        name=name,
        rules=(
            PolicyRule("*", "attention", "bfp8"),
            PolicyRule("block*.attn", "linear", "bfp8"),
            PolicyRule("block*.mlp", "linear", "fp8-e4m3"),
            PolicyRule("*", "nonlinear", "fp32"),
            PolicyRule("*", "residual", "fp32"),
        ),
        default="bfp8",
    )


POLICY_PRESETS: dict[str, Callable[[], PrecisionPolicy]] = {
    "fp32": lambda: _uniform("fp32", "fp32"),
    "bfp8-mixed": lambda: _linear_only("bfp8-mixed", "bfp8"),
    "bfp8-all": lambda: _uniform("bfp8-all", "bfp8"),
    "int8-linear": lambda: _linear_only("int8-linear", "int8"),
    "int8-all": lambda: _uniform("int8-all", "int8"),
    # fp16 linear algebra, exact fp32 elsewhere.  Without a unit-mode
    # override fp16 pays the fp32 vector cliff; with
    # ``--array-mode fp16`` it maps onto the fp16 dot-product array
    # personality (repro.cost.modes) instead.
    "fp16-linear": lambda: _linear_only("fp16-linear", "fp16"),
    "ibert": _ibert,
    "mixed-fp8": _mixed_fp8,
}


#: Width names: ``bfpN-mixed`` / ``intN-linear`` quantize the array-mapped
#: algebra only, ``bfpN-all`` / ``intN-all`` every role.
_WIDTH_NAME = re.compile(r"(bfp\d+)-(mixed|all)|(int\d+)-(linear|all)")


def get_policy(name: str) -> PrecisionPolicy:
    """Construct a policy by name: a preset, or a width name
    (``bfpN-mixed``, ``bfpN-all``, ``intN-linear``, ``intN-all``)."""
    factory = POLICY_PRESETS.get(name)
    if factory is not None:
        return factory()
    m = _WIDTH_NAME.fullmatch(name)
    if m is None:
        raise RegistryError(
            f"unknown policy preset {name!r}; available: "
            f"{sorted(POLICY_PRESETS)} (plus bfpN-mixed / bfpN-all / "
            "intN-linear / intN-all)"
        )
    fmt = m.group(1) or m.group(3)
    if (m.group(2) or m.group(4)) == "all":
        return _uniform(name, fmt)
    return _linear_only(name, fmt)


def load_policy(spec: str | Path) -> PrecisionPolicy:
    """Resolve a CLI ``--policy`` argument: preset name or JSON file path."""
    if isinstance(spec, str) and spec in POLICY_PRESETS:
        return get_policy(spec)
    path = Path(spec)
    if path.exists():
        return PrecisionPolicy.load(path)
    raise ConfigurationError(
        f"--policy {spec!r} is neither a preset ({sorted(POLICY_PRESETS)}) "
        "nor an existing JSON file"
    )
