"""Mixed-precision inference evaluation (the paper's accuracy story).

Runs a trained model under every arithmetic regime in
:mod:`repro.models.backend` and reports accuracy plus output deviation from
the fp32 reference.  The expected ordering — the reason the paper argues
for bfp8 + fp32 mixed precision without retraining — is::

    fp32  ~=  bfp8-mixed  >  int8-linear  >=  bfp8-all  >  int8-all

i.e. bfp8 linear layers are accuracy-transparent, while pushing non-linear
tensors (softmax in particular) through a conventional per-tensor int8 grid
costs real accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.backend import BACKENDS, get_backend
from repro.models.data import Dataset
from repro.models.vit import SequenceClassifier

__all__ = ["RegimeResult", "evaluate_regimes", "logit_deviation"]


@dataclass(frozen=True)
class RegimeResult:
    backend: str
    accuracy: float
    logit_rmse: float  # vs the fp32 reference logits
    agreement: float  # fraction of predictions equal to fp32's


def logit_deviation(ref: np.ndarray, other: np.ndarray) -> float:
    return float(np.sqrt(np.mean((ref.astype(np.float64) - other.astype(np.float64)) ** 2)))


def evaluate_regimes(
    model: SequenceClassifier,
    data: Dataset,
    *,
    backends: list[str] | None = None,
    batch_size: int = 256,
) -> list[RegimeResult]:
    """Evaluate ``model`` on ``data`` under each arithmetic regime.

    ``backends`` selects regimes by :func:`~repro.models.backend.get_backend`
    name (default :data:`~repro.models.backend.BACKENDS`); width names
    such as ``bfp4-mixed`` feed the bitwidth sweep.
    """
    names = backends or list(BACKENDS)
    ref_logits = _forward_batched(model, data.tokens, "fp32", batch_size)
    ref_pred = np.argmax(ref_logits, axis=1)
    results = []
    for name in names:
        logits = (
            ref_logits
            if name == "fp32"
            else _forward_batched(model, data.tokens, name, batch_size)
        )
        pred = np.argmax(logits, axis=1)
        results.append(
            RegimeResult(
                backend=name,
                accuracy=float((pred == data.labels).mean()),
                logit_rmse=logit_deviation(ref_logits, logits),
                agreement=float((pred == ref_pred).mean()),
            )
        )
    return results


def _forward_batched(
    model: SequenceClassifier,
    tokens: np.ndarray,
    backend_name: str,
    batch_size: int,
) -> np.ndarray:
    outs = []
    # Quantize every matmul weight once up front; the per-batch backends
    # below (fresh instances for clean op statistics) hit the shared
    # prepared-operand cache instead of requantizing per batch.
    model.prepare(get_backend(backend_name))
    for s in range(0, tokens.shape[0], batch_size):
        backend = get_backend(backend_name)
        outs.append(model.forward(tokens[s : s + batch_size], backend))
    return np.concatenate(outs, axis=0)
