"""Minimal trainer: softmax cross-entropy + Adam, for the accuracy study.

Training always runs in fp32 — the entire point of the paper's deployment
story is that a model trained once in fp32 can be served in bfp8/fp32 mixed
precision *without* quantization-aware retraining.

:func:`train_lm` and :func:`train_classifier` switch the model to training
mode (:meth:`~repro.models.layers.Module.train`) for their steps, so its
forwards keep what ``backward`` needs, and back to inference mode before
they return.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.models.data import Dataset
from repro.models.vit import SequenceClassifier
from repro.perf.prepared import get_cache

__all__ = [
    "cross_entropy",
    "Adam",
    "TrainResult",
    "train_classifier",
    "accuracy",
    "lm_cross_entropy",
    "train_lm",
    "next_token_accuracy",
]


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean CE loss and the gradient w.r.t. logits."""
    z = logits.astype(np.float64)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    loss = float(-np.log(p[np.arange(n), labels] + 1e-12).mean())
    d = p.copy()
    d[np.arange(n), labels] -= 1.0
    return loss, (d / n).astype(np.float32)


@dataclass
class Adam:
    lr: float = 3e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    _m: dict = field(default_factory=dict)
    _v: dict = field(default_factory=dict)
    _t: int = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """Update ``params`` in place, then drop the prepared weights
        quantized from their old values (:mod:`repro.perf.prepared`)."""
        self._t += 1
        for k, p in params.items():
            g = grads.get(k)
            if g is None or not isinstance(g, np.ndarray):
                continue
            m = self._m.setdefault(k, np.zeros_like(p))
            v = self._v.setdefault(k, np.zeros_like(p))
            m[:] = self.beta1 * m + (1 - self.beta1) * g
            v[:] = self.beta2 * v + (1 - self.beta2) * g * g
            mh = m / (1 - self.beta1**self._t)
            vh = v / (1 - self.beta2**self._t)
            p -= (self.lr * mh / (np.sqrt(vh) + self.eps)).astype(p.dtype)
        get_cache().clear()


@dataclass
class TrainResult:
    model: SequenceClassifier
    losses: list[float]
    train_accuracy: float
    test_accuracy: float


def accuracy(model: SequenceClassifier, data: Dataset, backend=None) -> float:
    logits = model.forward(data.tokens, backend)
    return float((np.argmax(logits, axis=1) == data.labels).mean())


def lm_cross_entropy(
    logits: np.ndarray, tokens: np.ndarray
) -> tuple[float, np.ndarray]:
    """Next-token CE over all positions: logits ``(b, n, v)``, tokens ``(b, n)``.

    Position ``i`` predicts token ``i+1``; the last position has no target.
    Returns the mean loss and the gradient w.r.t. logits.
    """
    b, n, v = logits.shape
    preds = logits[:, :-1].reshape(-1, v)
    targets = np.asarray(tokens)[:, 1:].reshape(-1)
    loss, d = cross_entropy(preds, targets)
    dlogits = np.zeros_like(logits)
    dlogits[:, :-1] = d.reshape(b, n - 1, v)
    return loss, dlogits.astype(np.float32)


def next_token_accuracy(model, tokens: np.ndarray, backend=None) -> float:
    """Fraction of positions whose next token is predicted correctly."""
    logits = model.forward(tokens, backend)
    preds = np.argmax(logits[:, :-1], axis=-1)
    return float((preds == np.asarray(tokens)[:, 1:]).mean())


def train_lm(
    model,
    tokens: np.ndarray,
    *,
    epochs: int = 10,
    batch_size: int = 64,
    lr: float = 3e-3,
    seed: int = 0,
) -> list[float]:
    """Train a :class:`~repro.models.decoder.TinyLM` on token sequences."""
    rng = np.random.default_rng(seed)
    opt = Adam(lr=lr)
    losses: list[float] = []
    n = tokens.shape[0]
    model.train()
    for _ in range(epochs):
        order = rng.permutation(n)
        total, batches = 0.0, 0
        for s in range(0, n, batch_size):
            idx = order[s : s + batch_size]
            model.zero_grad()
            logits = model.forward(tokens[idx])
            loss, dlogits = lm_cross_entropy(logits, tokens[idx])
            model.backward(dlogits)
            opt.step(model.named_parameters(), model.named_grads())
            total += loss
            batches += 1
        losses.append(total / batches)
    model.train(False)
    return losses


def train_classifier(
    model: SequenceClassifier,
    train: Dataset,
    test: Dataset,
    *,
    epochs: int = 30,
    batch_size: int = 64,
    lr: float = 3e-3,
    seed: int = 0,
    verbose: bool = False,
) -> TrainResult:
    """Full-batch-shuffled minibatch Adam training."""
    rng = np.random.default_rng(seed)
    opt = Adam(lr=lr)
    losses: list[float] = []
    n = train.tokens.shape[0]
    model.train()
    for epoch in range(epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        batches = 0
        for s in range(0, n, batch_size):
            idx = order[s : s + batch_size]
            model.zero_grad()
            logits = model.forward(train.tokens[idx])
            loss, dlogits = cross_entropy(logits, train.labels[idx])
            model.backward(dlogits)
            opt.step(model.named_parameters(), model.named_grads())
            epoch_loss += loss
            batches += 1
        losses.append(epoch_loss / batches)
        if verbose:  # pragma: no cover - logging only
            print(f"epoch {epoch:3d} loss {losses[-1]:.4f}")
    model.train(False)
    return TrainResult(
        model=model,
        losses=losses,
        train_accuracy=accuracy(model, train),
        test_accuracy=accuracy(model, test),
    )
