"""NumPy Transformer layers with explicit forward/backward passes.

Everything is built from scratch on NumPy: no autograd.  A module keeps
what its backward pass needs only in training mode (:meth:`Module.train`);
an inference forward, the default, keeps nothing once it returns, as the
hardware streams each layer's activations out.  ``backward`` after an
inference forward raises :class:`~repro.errors.ConfigurationError`.
Gradients accumulate into ``grads`` keyed like ``params``.  Forward
passes take an optional
:class:`~repro.models.backend.PolicyBackend` so the same model definition
runs under fp32, bfp8-mixed, or int8 arithmetic regimes (backward is fp32
only — the paper's whole point is *no retraining*, so only inference runs
quantized).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.models.backend import PolicyBackend, get_backend

__all__ = [
    "Module",
    "Linear",
    "LayerNorm",
    "GELU",
    "Softmax",
    "Embedding",
    "gelu",
    "softmax",
]


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    x = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(x)
    return e / np.sum(e, axis=axis, keepdims=True)


def gelu(x: np.ndarray) -> np.ndarray:
    """tanh-form GELU (the approximation the hardware programs implement).

    ``x^3`` is ``(x * x) * x``, the two ``VMUL`` ops of
    :func:`repro.runtime.vector_ops.build_gelu`.  Each multiply rounds
    once in every SIMD loop, so the bytes do not depend on NumPy's CPU
    dispatch, as those of ``x**3`` (its ``power`` loop) do.
    """
    c = np.sqrt(2.0 / np.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * (x * x * x))))


def _gelu_grad(x: np.ndarray) -> np.ndarray:
    c = np.sqrt(2.0 / np.pi)
    x2 = x * x
    u = c * (x + 0.044715 * (x2 * x))
    t = np.tanh(u)
    du = c * (1.0 + 3 * 0.044715 * x2)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du


class Module:
    """Minimal parameter container with gradient slots.

    ``training`` (default ``False``) decides whether a forward keeps its
    backward state: in inference mode a forward keeps no activations, so
    nothing a layer read stays pinned after its output is consumed.
    :meth:`train` sets the mode on a module and all its children.
    """

    training = False

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def train(self, mode: bool = True) -> "Module":
        """Set training mode on this module and every child; return self."""
        self.training = bool(mode)
        for child in self.children():
            child.train(mode)
        return self

    def _no_state(self) -> ConfigurationError:
        """What ``backward`` raises when no training-mode forward ran."""
        return ConfigurationError(
            f"{type(self).__name__}.backward() needs the state of a forward "
            "run in training mode; call train() on the model before it"
        )

    def zero_grad(self) -> None:
        for k in self.params:
            self.grads[k] = np.zeros_like(self.params[k])
        for child in self.children():
            child.zero_grad()

    def children(self) -> list["Module"]:
        out = []
        for v in self.__dict__.values():
            if isinstance(v, Module):
                out.append(v)
            elif isinstance(v, (list, tuple)):
                out.extend(c for c in v if isinstance(c, Module))
        return out

    def named_parameters(self, prefix: str = "") -> dict[str, np.ndarray]:
        out = {f"{prefix}{k}": v for k, v in self.params.items()}
        for i, child in enumerate(self.children()):
            out.update(child.named_parameters(f"{prefix}{type(child).__name__.lower()}{i}."))
        return out

    def named_grads(self, prefix: str = "") -> dict[str, np.ndarray]:
        out = {f"{prefix}{k}": v for k, v in self.grads.items()}
        for i, child in enumerate(self.children()):
            out.update(child.named_grads(f"{prefix}{type(child).__name__.lower()}{i}."))
        return out

    def n_parameters(self) -> int:
        return sum(int(v.size) for v in self.named_parameters().values())

    def matmul_weights(self) -> list[np.ndarray]:
        """Weight matrices this module (and children) feed to matmul.

        Only these benefit from :meth:`PolicyBackend.prepare_weight`;
        biases, norms and embeddings never enter the systolic array.
        """
        out: list[np.ndarray] = []
        for child in self.children():
            out.extend(child.matmul_weights())
        return out

    def prepare(self, backend: PolicyBackend) -> None:
        """Warm the backend's prepared-operand cache with every matmul
        weight — the emulation analogue of loading Y BRAM before serving."""
        for w in self.matmul_weights():
            backend.prepare_weight(w)


class Linear(Module):
    """Affine layer ``y = x @ W + b`` with backend-selected matmul."""

    def __init__(self, d_in: int, d_out: int, *, bias: bool = True,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        scale = float(np.sqrt(2.0 / (d_in + d_out)))
        self.d_in, self.d_out = d_in, d_out
        self.params["w"] = rng.normal(0.0, scale, (d_in, d_out)).astype(np.float32)
        if bias:
            self.params["b"] = np.zeros(d_out, dtype=np.float32)
        self._x: np.ndarray | None = None

    def matmul_weights(self) -> list[np.ndarray]:
        return [self.params["w"]]

    def forward(self, x: np.ndarray, backend: PolicyBackend | None = None) -> np.ndarray:
        if x.shape[-1] != self.d_in:
            raise ConfigurationError(
                f"Linear expected trailing dim {self.d_in}, got {x.shape}"
            )
        backend = backend or get_backend("fp32")
        self._x = x if self.training else None
        flat = x.reshape(-1, self.d_in)
        y = backend.matmul(flat, backend.prepare_weight(self.params["w"]))
        if "b" in self.params:
            y = y + self.params["b"]
        return y.reshape(*x.shape[:-1], self.d_out).astype(np.float32)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise self._no_state()
        flat_x = self._x.reshape(-1, self.d_in).astype(np.float64)
        flat_d = dout.reshape(-1, self.d_out).astype(np.float64)
        self.grads["w"] = self.grads.get("w", 0) + (flat_x.T @ flat_d).astype(np.float32)
        if "b" in self.params:
            self.grads["b"] = self.grads.get("b", 0) + flat_d.sum(0).astype(np.float32)
        dx = flat_d @ self.params["w"].astype(np.float64).T
        return dx.reshape(self._x.shape).astype(np.float32)


class LayerNorm(Module):
    """LayerNorm over the trailing dimension with affine parameters."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim, self.eps = dim, eps
        self.params["gamma"] = np.ones(dim, dtype=np.float32)
        self.params["beta"] = np.zeros(dim, dtype=np.float32)
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, backend: PolicyBackend | None = None) -> np.ndarray:
        backend = backend or get_backend("fp32")
        gamma, beta = self.params["gamma"], self.params["beta"]

        def fn(v: np.ndarray) -> np.ndarray:
            mu = v.mean(-1, keepdims=True)
            var = v.var(-1, keepdims=True)
            inv = 1.0 / np.sqrt(var + self.eps)
            norm = (v - mu) * inv
            self._cache = (v, mu, inv, norm) if self.training else None
            return norm * gamma + beta

        return backend.nonlinear("layernorm", fn, x.astype(np.float32))

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise self._no_state()
        x, mu, inv, norm = self._cache
        gamma = self.params["gamma"]
        n = x.shape[-1]
        self.grads["gamma"] = self.grads.get("gamma", 0) + (dout * norm).reshape(
            -1, n
        ).sum(0).astype(np.float32)
        self.grads["beta"] = self.grads.get("beta", 0) + dout.reshape(
            -1, n
        ).sum(0).astype(np.float32)
        dnorm = dout * gamma
        dx = (
            dnorm
            - dnorm.mean(-1, keepdims=True)
            - norm * (dnorm * norm).mean(-1, keepdims=True)
        ) * inv
        return dx.astype(np.float32)


class GELU(Module):
    def __init__(self) -> None:
        super().__init__()
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, backend: PolicyBackend | None = None) -> np.ndarray:
        backend = backend or get_backend("fp32")
        self._x = x if self.training else None
        return backend.nonlinear("gelu", gelu, x.astype(np.float32))

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise self._no_state()
        return (dout * _gelu_grad(self._x.astype(np.float64))).astype(np.float32)


class Softmax(Module):
    """Softmax over the trailing axis (attention probabilities)."""

    def __init__(self) -> None:
        super().__init__()
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray, backend: PolicyBackend | None = None) -> np.ndarray:
        backend = backend or get_backend("fp32")
        y = backend.nonlinear("softmax", softmax, x.astype(np.float32))
        self._y = y if self.training else None
        return y

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise self._no_state()
        y = self._y.astype(np.float64)
        d = dout.astype(np.float64)
        return (y * (d - (d * y).sum(-1, keepdims=True))).astype(np.float32)


class Embedding(Module):
    """Token embedding lookup."""

    def __init__(self, vocab: int, dim: int, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.vocab, self.dim = vocab, dim
        self.params["w"] = rng.normal(0.0, 0.02, (vocab, dim)).astype(np.float32)
        self._idx: np.ndarray | None = None

    def forward(self, idx: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx)
        if idx.size and (idx.min() < 0 or idx.max() >= self.vocab):
            raise ConfigurationError("token index out of vocabulary range")
        self._idx = idx if self.training else None
        return self.params["w"][idx]

    def backward(self, dout: np.ndarray) -> None:
        if self._idx is None:
            raise self._no_state()
        g = self.grads.get("w")
        if not isinstance(g, np.ndarray):
            g = np.zeros_like(self.params["w"])
        np.add.at(g, self._idx.reshape(-1), dout.reshape(-1, self.dim))
        self.grads["w"] = g
