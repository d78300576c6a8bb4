"""Layer-wise quantization sensitivity analysis (paper Section IV-A).

The paper's related-work discussion rests on the finding that "different
parts of DNN models show varying levels of vulnerability to quantization
errors" — linear layers are resilient at very low bitwidths while the
non-linear operations dominate accuracy loss.  This module measures that
directly on our models: it quantizes *one component class at a time*
(linear matmuls / softmax / GELU / LayerNorm / residual stream) and records
the output perturbation each class alone contributes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.models.backend import PolicyBackend
from repro.models.policy import PolicyRule, PrecisionPolicy
from repro.models.quantized import logit_deviation
from repro.models.vit import SequenceClassifier

__all__ = ["SelectiveBackend", "COMPONENT_CLASSES", "component_sensitivity"]

COMPONENT_CLASSES = ("linear", "softmax", "gelu", "layernorm", "residual")


class SelectiveBackend(PolicyBackend):
    """Quantize exactly one component class, leave the rest exact fp32.

    ``scheme`` is ``("bfp", man_bits)`` or ``("int", bits)``, i.e. the
    registry format ``bfpN`` / ``intN``.  The policy applies it to the
    selected class only:

    * ``linear``: every matmul (the ``linear`` and ``attention`` roles);
    * ``softmax``/``gelu``/``layernorm``: the ``nonlinear`` role, and the
      override below keeps the other non-linear kinds exact;
    * ``residual``: the ``residual`` role.
    """

    def __init__(self, target: str, scheme: tuple[str, int]) -> None:
        if target not in COMPONENT_CLASSES:
            raise ValueError(f"unknown component class {target!r}")
        kind, bits = scheme
        if kind not in ("bfp", "int"):
            raise ValueError(f"unknown scheme kind {kind!r}")
        if target == "linear":
            roles = ("linear", "attention")
        elif target == "residual":
            roles = ("residual",)
        else:
            roles = ("nonlinear",)
        fmt = f"{kind}{bits}"
        super().__init__(PrecisionPolicy(
            name=f"{fmt}@{target}",
            rules=tuple(PolicyRule("*", role, fmt) for role in roles),
        ))
        self.target = target

    def nonlinear(
        self, kind: str, fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray
    ) -> np.ndarray:
        if kind != self.target:
            return fn(x).astype(np.float32)
        return super().nonlinear(kind, fn, x)


@dataclass(frozen=True)
class SensitivityRow:
    component: str
    scheme: str
    logit_rmse: float
    agreement: float


def component_sensitivity(
    model: SequenceClassifier,
    tokens: np.ndarray,
    *,
    schemes: list[tuple[str, int]] | None = None,
) -> list[SensitivityRow]:
    """Perturbation caused by quantizing each component class alone."""
    schemes = schemes or [("bfp", 8), ("int", 8)]
    ref = model.forward(tokens)
    ref_pred = np.argmax(ref, axis=1)
    rows = []
    for kind, bits in schemes:
        for comp in COMPONENT_CLASSES:
            be = SelectiveBackend(comp, (kind, bits))
            logits = model.forward(tokens, be)
            rows.append(
                SensitivityRow(
                    component=comp,
                    scheme=f"{kind}{bits}",
                    logit_rmse=logit_deviation(ref, logits),
                    agreement=float(
                        (np.argmax(logits, axis=1) == ref_pred).mean()
                    ),
                )
            )
    return rows
