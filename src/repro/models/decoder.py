"""Decoder-style (LLaMA-family) Transformer substrate.

The paper's introduction motivates the design with large language models
(OPT, LLaMA-2 are its refs [2][10]) and argues a run-time *programmable*
non-linear unit is needed because "new non-linear functions are constantly
being introduced".  This module supplies that workload family from scratch:
RMSNorm (LLaMA's normalizer), causal self-attention, a SwiGLU MLP, and a
small trainable language model with greedy generation — all running through
the same arithmetic backends (bfp8 linear + fp32 non-linear) with zero
hardware change, the corresponding vector programs living in
``repro.runtime.vector_ops``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.models.attention import MultiHeadSelfAttention
from repro.models.backend import PolicyBackend, get_backend
from repro.models.layers import Embedding, Linear, Module

__all__ = ["RMSNorm", "SwiGLUMLP", "DecoderBlock", "TinyLM", "swiglu"]


def _silu(gate: np.ndarray) -> np.ndarray:
    z = gate.astype(np.float64)
    return (z / (1.0 + np.exp(-z))).astype(np.float32)


def swiglu(gu: np.ndarray) -> np.ndarray:
    """The SwiGLU gate ``silu(gate) * up`` over ``gu = [gate | up]``
    (the two halves of the last axis), silu in float64.

    Eager :meth:`SwiGLUMLP.forward` and compiled decode replay
    (:mod:`repro.runtime.plan`) both call it, so they give the same bytes.
    """
    half = gu.shape[-1] // 2
    return _silu(gu[..., :half]) * gu[..., half:]


class RMSNorm(Module):
    """Root-mean-square normalization: ``x / rms(x) * gamma`` (no mean/beta)."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim, self.eps = dim, eps
        self.params["gamma"] = np.ones(dim, dtype=np.float32)
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, backend: PolicyBackend | None = None) -> np.ndarray:
        backend = backend or get_backend("fp32")
        gamma = self.params["gamma"]

        def fn(v: np.ndarray) -> np.ndarray:
            ms = (v.astype(np.float64) ** 2).mean(-1, keepdims=True)
            inv = (1.0 / np.sqrt(ms + self.eps)).astype(np.float32)
            norm = v * inv
            self._cache = (v, inv, norm) if self.training else None
            return norm * gamma

        return backend.nonlinear("rmsnorm", fn, x.astype(np.float32))

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise self._no_state()
        x, inv, norm = self._cache
        gamma = self.params["gamma"]
        n = x.shape[-1]
        self.grads["gamma"] = self.grads.get("gamma", 0) + (
            (dout * norm).reshape(-1, n).sum(0).astype(np.float32)
        )
        dnorm = (dout * gamma).astype(np.float64)
        x64 = x.astype(np.float64)
        inv64 = inv.astype(np.float64)
        # d/dx of x * (mean(x^2)+eps)^(-1/2)
        dot = (dnorm * x64).mean(-1, keepdims=True)
        dx = dnorm * inv64 - x64 * (inv64 * inv64 * inv64) * dot
        return dx.astype(np.float32)


class SwiGLUMLP(Module):
    """LLaMA-style gated MLP: ``W2( silu(W_gate x) * (W_up x) )``."""

    def __init__(self, dim: int, hidden: int, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.gate = Linear(dim, hidden, bias=False, rng=rng)
        self.up = Linear(dim, hidden, bias=False, rng=rng)
        self.down = Linear(hidden, dim, bias=False, rng=rng)
        self._cache: np.ndarray | None = None

    def forward(self, x: np.ndarray, backend: PolicyBackend | None = None) -> np.ndarray:
        backend = backend or get_backend("fp32")
        g = self.gate.forward(x, backend)
        u = self.up.forward(x, backend)
        fn = swiglu
        self._cache = None
        if self.training:
            def fn(gu: np.ndarray) -> np.ndarray:
                self._cache = gu
                return swiglu(gu)

        gated = backend.nonlinear("swiglu", fn, np.concatenate([g, u], axis=-1))
        return self.down.forward(gated, backend)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise self._no_state()
        half = self._cache.shape[-1] // 2
        gg, uu = self._cache[..., :half], self._cache[..., half:]
        act = _silu(gg)
        dgated = self.down.backward(dout)
        du = dgated * act
        z = gg.astype(np.float64)
        sig = 1.0 / (1.0 + np.exp(-z))
        dsilu = sig * (1.0 + z * (1.0 - sig))
        dg = (dgated * uu).astype(np.float64) * dsilu
        dx = self.gate.backward(dg.astype(np.float32)) + self.up.backward(
            du.astype(np.float32)
        )
        return dx.astype(np.float32)


class DecoderBlock(Module):
    """Pre-RMSNorm causal block: x + Attn(RMS(x)); x + SwiGLU(RMS(x))."""

    def __init__(
        self,
        dim: int,
        n_heads: int,
        mlp_ratio: float = 8 / 3,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.norm1 = RMSNorm(dim)
        self.attn = MultiHeadSelfAttention(dim, n_heads, rng=rng, causal=True)
        self.norm2 = RMSNorm(dim)
        hidden = int(dim * mlp_ratio)
        self.mlp = SwiGLUMLP(dim, hidden, rng=rng)

    def prepare(self, backend: PolicyBackend) -> None:
        # Warm under the same scope names forward() pushes, so prepare-time
        # weight quantization is attributed to the layer that owns it.
        with backend.scope("attn"):
            self.attn.prepare(backend)
        with backend.scope("mlp"):
            self.mlp.prepare(backend)

    def forward(self, x: np.ndarray, backend: PolicyBackend | None = None) -> np.ndarray:
        backend = backend or get_backend("fp32")
        with backend.scope("attn"):
            x = backend.requantize(
                x + self.attn.forward(self.norm1.forward(x, backend), backend)
            )
        with backend.scope("mlp"):
            x = backend.requantize(
                x + self.mlp.forward(self.norm2.forward(x, backend), backend)
            )
        return x.astype(np.float32)

    def forward_step(
        self, x: np.ndarray, kv_cache: dict, backend: PolicyBackend | None = None
    ) -> np.ndarray:
        """Incremental decode through the block with a shared KV cache."""
        backend = backend or get_backend("fp32")
        with backend.scope("attn"):
            x = backend.requantize(
                x + self.attn.forward_step(self.norm1.forward(x, backend), kv_cache, backend)
            )
        with backend.scope("mlp"):
            x = backend.requantize(
                x + self.mlp.forward(self.norm2.forward(x, backend), backend)
            )
        return x.astype(np.float32)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        d = dout + self.norm2.backward(self.mlp.backward(dout))
        d = d + self.norm1.backward(self.attn.backward(d))
        return d.astype(np.float32)


class TinyLM(Module):
    """A small causal language model (next-token prediction).

    Token embedding + learned positions, ``depth`` decoder blocks, RMSNorm,
    and an untied linear head over the vocabulary.
    """

    def __init__(
        self,
        *,
        vocab: int = 16,
        seq_len: int = 16,
        dim: int = 32,
        depth: int = 2,
        n_heads: int = 4,
        seed: int = 0,
    ) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.vocab, self.seq_len, self.dim = vocab, seq_len, dim
        self.embed = Embedding(vocab, dim, rng=rng)
        self.params["pos_embed"] = rng.normal(0, 0.02, (1, seq_len, dim)).astype(
            np.float32
        )
        self.blocks = [DecoderBlock(dim, n_heads, rng=rng) for _ in range(depth)]
        self.norm = RMSNorm(dim)
        self.head = Linear(dim, vocab, bias=False, rng=rng)

    def prepare(self, backend: PolicyBackend) -> None:
        for i, blk in enumerate(self.blocks):
            with backend.scope(f"block{i}"):
                blk.prepare(backend)
        with backend.scope("head"):
            self.head.prepare(backend)

    def forward(self, tokens: np.ndarray, backend: PolicyBackend | None = None) -> np.ndarray:
        """Logits for every position: shape ``(batch, seq, vocab)``."""
        backend = backend or get_backend("fp32")
        tokens = np.asarray(tokens)
        if tokens.shape[-1] > self.seq_len:
            raise ConfigurationError(
                f"sequence longer than context ({tokens.shape[-1]} > {self.seq_len})"
            )
        n = tokens.shape[-1]
        x = self.embed.forward(tokens) + self.params["pos_embed"][:, :n]
        x = x.astype(np.float32)
        for i, blk in enumerate(self.blocks):
            with backend.scope(f"block{i}"):
                x = blk.forward(x, backend)
        with backend.scope("final_norm"):
            x = self.norm.forward(x, backend)
        with backend.scope("head"):
            return self.head.forward(x, backend)

    def backward(self, dlogits: np.ndarray) -> None:
        d = self.head.backward(dlogits)
        d = self.norm.backward(d)
        for blk in reversed(self.blocks):
            d = blk.backward(d)
        n = d.shape[1]
        pos_grad = d.sum(0, keepdims=True).astype(np.float32)
        g = self.grads.get("pos_embed")
        if not isinstance(g, np.ndarray):
            g = np.zeros_like(self.params["pos_embed"])
        g[:, :n] += pos_grad
        self.grads["pos_embed"] = g
        self.embed.backward(d)

    def generate(
        self,
        prompt: np.ndarray,
        n_tokens: int,
        backend: PolicyBackend | None = None,
    ) -> np.ndarray:
        """Greedy decoding from a 1-D prompt (full-context recompute)."""
        seq = list(np.asarray(prompt).reshape(-1))
        for _ in range(n_tokens):
            ctx = np.array(seq[-self.seq_len :])[None, :]
            logits = self.forward(ctx, backend)
            seq.append(int(np.argmax(logits[0, -1])))
        return np.array(seq)

    def init_cache(self, *, capacity: int | None = None) -> list[dict]:
        """Fresh per-block KV caches for incremental decoding.

        Each entry is ``{"arena", "row"}``: a session's row of a
        preallocated :class:`KvArena` (in-place appends with capacity
        doubling, capped at the context window) instead of per-token
        ``np.concatenate`` re-stacks.
        """
        from repro.runtime.plan import KvArena

        caches = []
        for blk in self.blocks:
            arena = KvArena(
                1, blk.attn.n_heads, blk.attn.head_dim,
                capacity=min(16, self.seq_len) if capacity is None else capacity,
                max_capacity=self.seq_len,
            )
            caches.append({"arena": arena, "row": 0})
        return caches

    def forward_step(
        self,
        token: int,
        position: int,
        caches: list[dict],
        backend: PolicyBackend | None = None,
        *,
        compiled: bool | None = None,
    ) -> np.ndarray:
        """One autoregressive step: logits for the next token.

        The KV-cache decode path — every linear layer is a single-row
        matmul (the N_X = 1 worst case of Eqn 9, see
        ``repro.runtime.scheduler.compile_decoder``).  A batch-of-one
        :meth:`forward_step_batch`, so it shares the arena-backed caches
        and the compiled-plan dispatch (``compiled`` as there).
        """
        return self.forward_step_batch(
            [int(token)], [position], [caches], backend, compiled=compiled
        )[0]

    def forward_step_batch(
        self,
        tokens: list[int],
        positions: list[int],
        caches_batch: list[list[dict]],
        backend: PolicyBackend | None = None,
        *,
        compiled: bool | None = None,
    ) -> np.ndarray:
        """One autoregressive step for a *batch* of independent sessions.

        This is the compute shape dynamic batching buys (see
        ``repro.serve``): sessions at the same position are stacked along
        the batch axis so every linear layer runs as ONE ``B``-row matmul
        — one weight pass through the array instead of ``B`` (check
        ``backend.stats()["matmuls"]``), the N_X amortization of
        ``compile_decoder(batch=B, phase="decode")``.  Sessions at
        different positions fall into separate groups (their KV tensors
        cannot stack); per-session attention still reads each session's
        own cache.  Each session's ``caches`` list is updated in place,
        and the returned logits have shape ``(B, vocab)`` in input order.
        Per-head attention matmuls likewise run as one batched 3-D kernel
        per group (``PolicyBackend.matmul_batched``) instead of a
        Python-level loop over heads and sessions.

        Equivalent to ``B`` :meth:`forward_step` calls under exact fp32;
        block-fp backends may differ in low mantissa bits because batched
        rows share 8x8 block exponents — exactly as on the hardware.

        When ``compiled`` is not explicitly ``False`` (and nothing wants
        per-op observation — see :func:`repro.runtime.plan.compiled_active`)
        the step executes through a traced :class:`~repro.runtime.plan.
        DecodePlan`: bit-identical logits, no per-layer Python dispatch.
        Untraceable models and shapes fall back to this eager body.
        """
        from repro.runtime import plan as _plan

        if backend is None:
            backend = get_backend("fp32")
            if compiled is None:
                # A throwaway default backend gains nothing from a plan
                # (the plan cache is keyed by backend identity).
                compiled = False
        if not (len(tokens) == len(positions) == len(caches_batch)):
            raise ConfigurationError("batch fields must have equal length")
        if any(p >= self.seq_len for p in positions):
            raise ConfigurationError("position beyond the context window")
        out = np.zeros((len(tokens), self.vocab), dtype=np.float32)
        groups: dict[int, list[int]] = {}
        for i, pos in enumerate(positions):
            groups.setdefault(pos, []).append(i)
        for pos, idxs in groups.items():
            b = len(idxs)
            # Bind each block's per-session KV to one shared arena (zero
            # copies in the steady state; a one-time stack on regroup).
            arenas = []
            for bi, blk in enumerate(self.blocks):
                arenas.append(_plan.bind_group_cache(
                    [caches_batch[i][bi] for i in idxs],
                    blk.attn.n_heads, blk.attn.head_dim,
                    max_capacity=self.seq_len,
                ))
            toks = np.array([tokens[i] for i in idxs]).reshape(b, 1)
            plan = None
            if _plan.compiled_active(backend, compiled):
                plan = _plan.resolve_plan(self, backend, b)
            if plan is not None and not plan.take_sample(pos, b):
                logits = plan.replay(toks, pos, arenas, backend)
            else:
                x = self.embed.forward(toks)
                x = (x + self.params["pos_embed"][:, pos : pos + 1]).astype(
                    np.float32
                )
                for bi, (blk, arena) in enumerate(zip(self.blocks, arenas)):
                    with backend.scope(f"block{bi}"):
                        x = blk.forward_step(x, {"arena": arena}, backend)
                with backend.scope("final_norm"):
                    x = self.norm.forward(x, backend)
                with backend.scope("head"):
                    logits = self.head.forward(x, backend)[:, 0]
            out[idxs] = logits
        return out

    def generate_cached(
        self,
        prompt: np.ndarray,
        n_tokens: int,
        backend: PolicyBackend | None = None,
        *,
        compiled: bool | None = None,
    ) -> np.ndarray:
        """Greedy decoding with a KV cache (equivalent to :meth:`generate`
        while the sequence fits the context window; property-tested)."""
        prompt = np.asarray(prompt).reshape(-1)
        if backend is not None:
            # Warm the prepared-operand cache before the decode loop, the
            # way the hardware loads Y BRAM once before streaming tokens.
            self.prepare(backend)
        caches = self.init_cache()
        logits = None
        for pos, tok in enumerate(prompt):
            logits = self.forward_step(
                int(tok), pos, caches, backend, compiled=compiled
            )
        seq = list(prompt)
        for _ in range(n_tokens):
            nxt = int(np.argmax(logits))
            seq.append(nxt)
            if len(seq) >= self.seq_len:
                break
            logits = self.forward_step(
                nxt, len(seq) - 1, caches, backend, compiled=compiled
            )
        return np.array(seq)
