"""Compiled decode plans: trace once, replay many (configure-once decode).

The paper's fixed-function bfp array wins because every expensive decision
— number format, operand residency, alignment policy — is made at
*configuration* time, not per MAC.  The emulated decode path used to
re-make those decisions in Python on every token: per-layer scope pushes,
policy/format resolution, prepared-cache lookups, monitor taps and KV
re-stacking.  This module hoists all of it out of the loop:

* :class:`DecodePlan` traces one ``TinyLM.forward_step_batch`` per
  (backend, batch-group shape) into a flat sequence of fused ops with the
  prepared-weight handles, resolved formats and fused gate+up projection
  bound up front; :meth:`DecodePlan.replay` executes it with no per-layer
  Python dispatch and **bit-identical** logits versus the eager path.
  Replay calls each format's own kernels (``fmt.matmul`` /
  ``fmt.matmul_batched``), so block-fp layers run the same bfp kernel
  as eager code, :func:`repro.arith.bfp_matmul.fast_emulate_blocks`
  (re-exported here under its historical path).
* :class:`KvArena` keeps a batch group's K/V in one preallocated buffer
  with capacity-doubling in-place appends — no per-token
  ``np.concatenate`` re-stack/copy.  For block-fp attention it also keeps
  the bfp tiles of K^T and V, so replay quantizes each 8-token K/V block
  once, as the hardware's output quantizer does, instead of the whole
  cache every step: a step re-quantizes only the open tail block, plus
  whatever an eager step, a regroup or a width change left stale.  The
  tiles are float32, the kernel's operand type, and take the float K/V's
  own bytes when ``head_dim`` is a multiple of 8 (about 3 MB for the
  repository benchmark's batch-8 ``dim=384`` decode at a 64-token
  context).
* Numerics-monitor taps become *sampled*: 1-in-N replay steps (default
  ``DEFAULT_TAP_SAMPLE``) re-run the full eager path with every tap live,
  recorded in a small ring buffer, so quantization health survives
  compilation without the per-step overhead.

Weight-mutation contract: a plan holds prepared-weight handles and makes
no per-call cache lookup (that is the point), so eager and compiled decode
follow the prepared cache's one rule: write weights in place, then call
``repro.perf.prepared.get_cache().clear()``.  That bumps the cache
generation, which invalidates every cached plan.  ``Adam.step`` and
``load_state_dict`` clear it themselves.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass

import numpy as np

from repro.arith.bfp_matmul import (
    bfp_matmul_from_tiles,
    # Re-exported under its historical path, which profiling span lists name.
    fast_emulate_blocks,
    resident_tiles,
    stream_tiles,
)
from repro.errors import ConfigurationError
from repro.formats.bfp8 import BLOCK_COLS, BLOCK_ROWS, quantize_dense
from repro.formats.registry import BfpFormat
from repro.models.attention import MultiHeadSelfAttention
from repro.models.backend import PolicyBackend
from repro.models.decoder import DecoderBlock, RMSNorm, SwiGLUMLP, TinyLM, swiglu
from repro.models.layers import Embedding, Linear, Softmax
from repro.obs.numerics import NULL_MONITOR, get_monitor, set_monitor
from repro.perf.prepared import get_cache

__all__ = [
    "KvArena",
    "bind_group_cache",
    "DecodePlan",
    "PlanUnsupported",
    "fast_emulate_blocks",
    "compiled_active",
    "resolve_plan",
    "plan_stats",
    "DEFAULT_TAP_SAMPLE",
]

#: replay steps between full-tap eager samples when the monitor is enabled
DEFAULT_TAP_SAMPLE = 32

_PLAN_CACHE_ATTR = "_decode_plans"
_PLAN_CACHE_MAX = 8


class PlanUnsupported(Exception):
    """The model/backend pair cannot be traced; callers fall back to eager."""


# ---------------------------------------------------------------------------
# KV arenas: preallocated per-group K/V with in-place appends
# ---------------------------------------------------------------------------


#: Tokens per K/V block: bfp blocks are 8x8, so a K^T column block and a
#: V row block each span 8 tokens.
_KV_BLOCK = BLOCK_ROWS

#: :func:`~repro.formats.bfp8.quantize_dense` order that writes K's
#: ``(t, hd)`` tiles in K^T's resident layout ``(hd block, hd in block,
#: token block, token in block)``.
_KT_ORDER = (2, 3, 0, 1)


class KvArena:
    """A batch group's K/V cache in one preallocated, growable buffer.

    Layout is ``(rows, n_heads, capacity, head_dim)`` float32 — the same
    axes the attention step consumes, so :meth:`views` is a zero-copy
    slice.  Appends write in place; capacity doubles (capped at
    ``max_capacity``, the context window) so a decode of T tokens does
    O(log T) copies instead of T re-stacks.  ``grow_*``/``stack_*``
    counters make the no-copy property testable.

    For block-fp attention the arena also keeps the bfp tiles of K^T and
    V beside the float values (:meth:`bfp_tiles`), in the float32 layout
    the kernel multiplies against
    (:func:`~repro.arith.bfp_matmul.resident_tiles`), and grows them with
    the float buffers.  A request brings them up to date by quantizing
    from the first 8-token block that is not yet final through the open
    tail block: one block per step in a stable group, and a catch-up
    over every block that eager appends, a fresh arena (a regroup) or a
    change of mantissa width left stale.  ``quantized_tokens`` counts the
    tokens quantized.  The tiles take the float K/V's own bytes when
    ``head_dim`` is a multiple of 8.
    """

    __slots__ = (
        "n_heads", "head_dim", "length", "capacity", "max_capacity",
        "_k", "_v", "grow_events", "grow_copied", "stack_events",
        "stack_copied", "_tiles", "_tile_bits", "_tiled", "quantized_tokens",
    )

    def __init__(
        self,
        rows: int,
        n_heads: int,
        head_dim: int,
        *,
        capacity: int = 0,
        max_capacity: int | None = None,
    ) -> None:
        self.n_heads = int(n_heads)
        self.head_dim = int(head_dim)
        self.max_capacity = max_capacity
        self.length = 0
        self.capacity = int(capacity)
        shape = (int(rows), self.n_heads, self.capacity, self.head_dim)
        self._k = np.zeros(shape, dtype=np.float32)
        self._v = np.zeros(shape, dtype=np.float32)
        self.grow_events = 0
        self.grow_copied = 0
        self.stack_events = 0
        self.stack_copied = 0
        self._tiles: tuple[np.ndarray, ...] | None = None
        self._tile_bits = 0  # mantissa width of the tiles
        self._tiled = 0  # arena length the tiles were last brought up to
        self.quantized_tokens = 0

    @property
    def rows(self) -> int:
        return self._k.shape[0]

    def _grow(self, needed: int) -> None:
        new_cap = max(4, self.capacity * 2, needed)
        if self.max_capacity is not None:
            new_cap = max(min(new_cap, self.max_capacity), needed)
        shape = (self.rows, self.n_heads, new_cap, self.head_dim)
        k = np.zeros(shape, dtype=np.float32)
        v = np.zeros(shape, dtype=np.float32)
        if self.length:
            k[:, :, : self.length] = self._k[:, :, : self.length]
            v[:, :, : self.length] = self._v[:, :, : self.length]
            self.grow_copied += 2 * self._k[:, :, : self.length].size
        self._k, self._v = k, v
        if self._tiles is not None:
            kt_man, kt_exp, v_man, v_exp = self._tiles
            self._tiles = self._new_tiles(new_cap)
            self._tiles[0][..., : kt_man.shape[-1]] = kt_man
            self._tiles[1][..., : kt_exp.shape[-1]] = kt_exp
            self._tiles[2][:, : v_man.shape[1]] = v_man
            self._tiles[3][:, : v_exp.shape[1]] = v_exp
        self.capacity = new_cap
        self.grow_events += 1

    def _new_tiles(self, capacity: int) -> tuple[np.ndarray, ...]:
        """Zeroed K^T and V tiles for ``capacity`` tokens: ``(kt_man,
        kt_exp, v_man, v_exp)``, K^T as ``(hd, t)`` and V as ``(t, hd)``
        right operands per (row, head)."""
        r, bl = self.rows * self.n_heads, _KV_BLOCK
        tb, hb = -(-capacity // bl), -(-self.head_dim // bl)
        return (
            np.zeros((r, hb, bl, tb * bl), dtype=np.float32),
            np.zeros((r, hb, tb), dtype=np.int64),
            np.zeros((r, tb, bl, hb * bl), dtype=np.float32),
            np.zeros((r, tb, hb), dtype=np.int64),
        )

    def append(self, k_new: np.ndarray, v_new: np.ndarray) -> None:
        """Write one new position in place: operands are ``(rows, h, 1, hd)``."""
        if self.length + 1 > self.capacity:
            self._grow(self.length + 1)
        self._k[:, :, self.length] = k_new[:, :, 0]
        self._v[:, :, self.length] = v_new[:, :, 0]
        self.length += 1

    def views(self) -> tuple[np.ndarray, np.ndarray]:
        """Zero-copy ``(rows, h, t, hd)`` K/V views of the filled prefix."""
        return self._k[:, :, : self.length], self._v[:, :, : self.length]

    def bfp_tiles(self, man_bits: int) -> tuple[np.ndarray, ...]:
        """The filled prefix's K^T and V as ``man_bits`` bfp tiles.

        Returns ``(kt_man, kt_exp, v_man, v_exp)``: views equal to
        :func:`~repro.arith.bfp_matmul.resident_tiles` of the whole
        ``(rows*h, hd, t)`` K^T and ``(rows*h, t, hd)`` V, the right
        operands of Q.K^T and P.V.  Only blocks from the first one not
        yet final through the open tail block are quantized.  That is
        exact: quantization is per 8x8 block, a finished block covers 8
        fixed tokens, and positions at or past ``length`` are zero, so
        the tail block quantizes as the zero-padded whole tensor's does.
        K^T's tiles are quantized from K's own ``(t, hd)`` layout, with
        no transposed copy: its 8x8 blocks hold the same 64 values as
        K^T's, transposed, so ``quantize_dense`` writes them straight into
        K^T's tile order and the exponent grid is the transpose of K's.
        """
        if man_bits != self._tile_bits:
            self._tile_bits, self._tiled = man_bits, 0
        if self._tiles is None:
            self._tiles = self._new_tiles(self.capacity)
        kt_man, kt_exp, v_man, v_exp = self._tiles
        end = -(-self.length // _KV_BLOCK)
        if self._tiled < self.length:
            start = self._tiled // _KV_BLOCK
            lo, hi = start * _KV_BLOCK, end * _KV_BLOCK
            r, hd = self.rows * self.n_heads, self.head_dim
            k = self._k[:, :, lo:hi].reshape(r, -1, hd)
            man, exp = quantize_dense(k, order=_KT_ORDER, man_bits=man_bits)
            kt_man[..., lo:hi] = man.reshape(*kt_man.shape[:-1], hi - lo)
            kt_exp[..., start:end] = exp.swapaxes(-1, -2)
            v = self._v[:, :, lo:hi].reshape(r, -1, hd)
            man, exp = resident_tiles(v, man_bits=man_bits)
            v_man[:, start:end], v_exp[:, start:end] = man, exp
            self.quantized_tokens += hi - lo
            self._tiled = self.length
        return (
            kt_man[..., : end * _KV_BLOCK], kt_exp[..., :end],
            v_man[:, :end], v_exp[:, :end],
        )

    def row_kv(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """One session's ``(1, h, t, hd)`` K/V views."""
        return (
            self._k[row : row + 1, :, : self.length],
            self._v[row : row + 1, :, : self.length],
        )

    def load_row(self, row: int, k: np.ndarray, v: np.ndarray, length: int) -> None:
        """Copy one session's K/V into a row (arena-formation path)."""
        if length:
            self._k[row, :, :length] = k[0, :, :length]
            self._v[row, :, :length] = v[0, :, :length]
            self.stack_copied += 2 * length * self.n_heads * self.head_dim
        self.length = length


def bind_group_cache(
    entries: list[dict],
    n_heads: int,
    head_dim: int,
    *,
    max_capacity: int | None = None,
) -> KvArena:
    """Bind a batch group's per-session cache entries to one shared arena.

    Fast path: when the group is exactly the rows of one arena, in order,
    the arena is reused zero-copy (the steady state of a stable batch).
    Otherwise the sessions' K/V are stacked once into a fresh arena — the
    one-time cost the per-step ``np.concatenate`` used to pay every token
    — and each entry is re-bound to its row.  Every entry must come from
    :meth:`~repro.models.decoder.TinyLM.init_cache`.
    """
    first = entries[0].get("arena")
    if (
        first is not None
        and first.rows == len(entries)
        and all(
            e.get("arena") is first and e.get("row") == i
            for i, e in enumerate(entries)
        )
    ):
        return first
    if any("arena" not in e for e in entries):
        raise ConfigurationError(
            "KV cache entry has no arena; build caches with TinyLM.init_cache()"
        )
    lengths = [e["arena"].length for e in entries]
    if any(t != lengths[0] for t in lengths):
        raise ConfigurationError(
            "sessions at one position must have equal KV length"
        )
    length = lengths[0]
    arena = KvArena(
        len(entries), n_heads, head_dim,
        capacity=max(4, length + 1), max_capacity=max_capacity,
    )
    arena.stack_events = 1
    for i, entry in enumerate(entries):
        k, v = entry["arena"].row_kv(entry["row"])
        arena.load_row(i, k, v, length)
        entry["arena"] = arena
        entry["row"] = i
    return arena


# ---------------------------------------------------------------------------
# Fused ops
# ---------------------------------------------------------------------------


class _LinearOp:
    """One linear layer, resolved at trace time.

    Holds the format and the prepared-weight handle, so replay does no
    per-call cache lookup.
    """

    __slots__ = ("fmt", "prepared", "bias", "d_in", "d_out")

    def __init__(self, fmt, lin: Linear) -> None:
        self.fmt = fmt
        self.prepared = fmt.prepare_weight(lin.params["w"])
        self.bias = lin.params.get("b")
        self.d_in, self.d_out = lin.d_in, lin.d_out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        y = self.fmt.matmul(x.reshape(-1, self.d_in), self.prepared)
        if self.bias is not None:
            y = y + self.bias
        return y.reshape(*x.shape[:-1], self.d_out).astype(np.float32)


class _FusedLinearOp(_LinearOp):
    """Gate+up projections fused into one weight pass.

    Valid only for block-fp with ``hidden % 8 == 0``: column blocks are
    independent and the kernel is integer-exact, so the fused result's
    column halves are bit-identical to the two split matmuls (the
    concatenation the eager SwiGLU path builds anyway).
    """

    def __init__(self, fmt, gate: Linear, up: Linear) -> None:
        fused = np.concatenate([gate.params["w"], up.params["w"]], axis=1)
        self.fmt = fmt
        self.prepared = fmt.prepare_weight(fused)
        self.bias = None
        self.d_in, self.d_out = gate.d_in, gate.d_out + up.d_out


class _AttentionOp:
    """Q.K^T and P.V against a group's KV arena, resolved at trace time.

    Runs the attention format's own batched kernel on the arena's float
    K/V views: the path for int, minifloat and fp32 attention, whose
    quantization of K and V is not per fixed block of tokens.
    """

    __slots__ = ("fmt",)

    def __init__(self, fmt) -> None:
        self.fmt = fmt

    def scores(self, q: np.ndarray, arena: KvArena) -> np.ndarray:
        """``(B, 1, hd) @ K^T``: ``(B, 1, t)`` for ``B = rows * h``."""
        k, _ = arena.views()
        kt = k.transpose(0, 1, 3, 2).reshape(len(q), arena.head_dim, -1)
        return self.fmt.matmul_batched(q, kt)

    def context(self, p: np.ndarray, arena: KvArena) -> np.ndarray:
        """``(B, 1, t) @ V``: ``(B, 1, hd)``."""
        _, v = arena.views()
        return self.fmt.matmul_batched(p, v.reshape(len(p), -1, arena.head_dim))


class _BfpAttentionOp(_AttentionOp):
    """Block-fp attention against the arena's K^T and V tiles.

    Only q and the softmax row quantize per step; the right operands come
    from :meth:`KvArena.bfp_tiles`, equal to the tiles
    :meth:`~repro.formats.registry.BfpFormat.matmul_batched` would
    quantize from the whole cache, so the result is bit-identical.
    """

    __slots__ = ()

    def scores(self, q: np.ndarray, arena: KvArena) -> np.ndarray:
        kt_man, kt_exp, _, _ = arena.bfp_tiles(self.fmt.man_bits)
        return self._matmul(q, kt_man, kt_exp, arena.length)

    def context(self, p: np.ndarray, arena: KvArena) -> np.ndarray:
        _, _, v_man, v_exp = arena.bfp_tiles(self.fmt.man_bits)
        return self._matmul(p, v_man, v_exp, arena.head_dim)

    def _matmul(self, a, b_man, b_exp, n: int) -> np.ndarray:
        a_man, a_exp = stream_tiles(a, man_bits=self.fmt.man_bits)
        return bfp_matmul_from_tiles(
            a_man, a_exp, b_man, b_exp, a.shape[1], n
        ).astype(np.float32)


class _NonlinearShim:
    """Just enough backend surface for RMSNorm/Softmax.forward to run
    through the module's own code with a pre-resolved format."""

    __slots__ = ("_fmt",)

    def __init__(self, fmt) -> None:
        self._fmt = fmt

    def nonlinear(self, kind, fn, x):
        return self._fmt.nonlinear(kind, fn, x)


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------


@dataclass
class _BlockOps:
    norm1: RMSNorm
    norm2: RMSNorm
    softmax: Softmax
    nl_attn: _NonlinearShim
    nl_mlp: _NonlinearShim
    res_attn: object
    res_mlp: object
    qkv: _LinearOp
    proj: _LinearOp
    gate_up: _LinearOp  # fused or gate (with .up set) — see build
    up: _LinearOp | None
    down: _LinearOp
    attn: _AttentionOp  # Q.K^T and P.V in the attention-role format


class DecodePlan:
    """A traced ``forward_step_batch`` for one (backend, batch) shape."""

    def __init__(self, model: TinyLM, backend: PolicyBackend, batch: int) -> None:
        self.batch = batch
        self.backend_name = backend.name
        self.sample_every = DEFAULT_TAP_SAMPLE
        self.replays = 0
        self.sampled = 0
        self._tap_counter = 0
        self.samples: deque = deque(maxlen=64)
        self._trace(model, backend)

    # -- trace ---------------------------------------------------------------
    def _trace(self, model: TinyLM, backend: PolicyBackend) -> None:
        def exact(obj, cls):
            if type(obj) is not cls:
                raise PlanUnsupported(
                    f"{type(obj).__name__} is not a traceable {cls.__name__}"
                )
            return obj

        exact(model, TinyLM)
        exact(model.embed, Embedding)
        exact(model.norm, RMSNorm)
        exact(model.head, Linear)
        self.embed = model.embed
        self.pos_embed = model.params["pos_embed"]
        self.final_norm = model.norm
        b = self.batch
        d, vocab = model.dim, model.vocab
        self.n_heads = self.head_dim = 0
        self.scale = 1.0
        self.blocks: list[_BlockOps] = []
        count = rows = macs = 0
        macs_t = 0
        for i, blk in enumerate(model.blocks):
            exact(blk, DecoderBlock)
            attn = exact(blk.attn, MultiHeadSelfAttention)
            if not attn.causal:
                raise PlanUnsupported("decode plans require causal attention")
            exact(blk.norm1, RMSNorm)
            exact(blk.norm2, RMSNorm)
            mlp = exact(blk.mlp, SwiGLUMLP)
            for lin in (attn.qkv, attn.proj, mlp.gate, mlp.up, mlp.down):
                exact(lin, Linear)
            exact(attn.attn_softmax, Softmax)
            apath, mpath = f"block{i}.attn", f"block{i}.mlp"
            lin_a = backend._fmt_at(apath, "linear")
            lin_m = backend._fmt_at(mpath, "linear")
            h, hd = attn.n_heads, attn.head_dim
            hidden = mlp.gate.d_out
            fuse = isinstance(lin_m, BfpFormat) and hidden % BLOCK_COLS == 0
            attn_fmt = backend._fmt_at(apath, "attention")
            attn_op = (
                _BfpAttentionOp if isinstance(attn_fmt, BfpFormat)
                else _AttentionOp
            )
            self.blocks.append(_BlockOps(
                norm1=blk.norm1,
                norm2=blk.norm2,
                softmax=attn.attn_softmax,
                nl_attn=_NonlinearShim(backend._fmt_at(apath, "nonlinear")),
                nl_mlp=_NonlinearShim(backend._fmt_at(mpath, "nonlinear")),
                res_attn=backend._fmt_at(apath, "residual"),
                res_mlp=backend._fmt_at(mpath, "residual"),
                qkv=_LinearOp(lin_a, attn.qkv),
                proj=_LinearOp(lin_a, attn.proj),
                gate_up=(
                    _FusedLinearOp(lin_m, mlp.gate, mlp.up)
                    if fuse else _LinearOp(lin_m, mlp.gate)
                ),
                up=None if fuse else _LinearOp(lin_m, mlp.up),
                down=_LinearOp(lin_m, mlp.down),
                attn=attn_op(attn_fmt),
            ))
            self.n_heads, self.head_dim = h, hd
            self.scale = attn.scale
            # Op statistics are bumped per replay with the exact eager
            # counts, fusion notwithstanding (gate and up each count).
            count += 5 + 2 * b * h
            rows += 5 * b + 2 * b * h
            macs += b * (d * 3 * d + d * d + 2 * d * hidden + hidden * d)
            macs_t += 2 * b * h * hd
        self.head = _LinearOp(backend._fmt_at("head", "linear"), model.head)
        self.nl_final = _NonlinearShim(backend._fmt_at("final_norm", "nonlinear"))
        self.dim, self.vocab = d, vocab
        self._count = count + 1
        self._rows = rows + b
        self._macs = macs + b * d * vocab
        self._macs_t = macs_t

    # -- sampled taps --------------------------------------------------------
    def take_sample(self, position: int, batch: int) -> bool:
        """True when this step must run eagerly with full monitor taps."""
        if not get_monitor().enabled:
            return False
        self._tap_counter += 1
        if (self._tap_counter - 1) % self.sample_every:
            return False
        self.sampled += 1
        self.samples.append({
            "step": self._tap_counter,
            "position": int(position),
            "batch": int(batch),
        })
        return True

    # -- replay --------------------------------------------------------------
    def replay(
        self,
        toks: np.ndarray,
        pos: int,
        arenas: list[KvArena],
        backend: PolicyBackend,
    ) -> np.ndarray:
        mon = get_monitor()
        if mon.enabled:
            # Non-sampled steps run tap-free even for formats whose
            # kernels tap internally (minifloat quantize, int observe).
            set_monitor(NULL_MONITOR)
            try:
                return self._replay(toks, pos, arenas, backend)
            finally:
                set_monitor(mon)
        return self._replay(toks, pos, arenas, backend)

    def _replay(self, toks, pos, arenas, backend) -> np.ndarray:
        b = self.batch
        h, hd, d = self.n_heads, self.head_dim, self.dim
        x = self.embed.forward(toks)
        x = (x + self.pos_embed[:, pos : pos + 1]).astype(np.float32)
        t = 0
        for ops, arena in zip(self.blocks, arenas):
            nrm = ops.norm1.forward(x, ops.nl_attn)
            qkv = ops.qkv(nrm)
            qkv = qkv.reshape(b, 1, 3, h, hd).transpose(2, 0, 3, 1, 4)
            q, k_new, v_new = qkv[0], qkv[1], qkv[2]
            arena.append(k_new, v_new)
            t = arena.length
            s = ops.attn.scores(q.reshape(b * h, 1, hd), arena)
            scores = s.reshape(b, h, 1, t) * self.scale
            probs = ops.softmax.forward(scores.astype(np.float32), ops.nl_attn)
            ctx = ops.attn.context(probs.reshape(b * h, 1, t), arena)
            ctx = ctx.reshape(b, h, 1, hd).transpose(0, 2, 1, 3).reshape(b, 1, d)
            x = ops.res_attn.requantize(
                x + ops.proj(ctx.astype(np.float32))
            )
            nrm2 = ops.norm2.forward(x, ops.nl_mlp)
            if ops.up is None:
                gu = ops.gate_up(nrm2)
            else:
                gu = np.concatenate(
                    [ops.gate_up(nrm2), ops.up(nrm2)], axis=-1
                )
            gated = ops.nl_mlp.nonlinear("swiglu", swiglu, gu)
            x = ops.res_mlp.requantize(x + ops.down(gated))
            x = x.astype(np.float32)
        x = self.final_norm.forward(x, self.nl_final)
        logits = self.head(x)[:, 0]
        backend.matmul_count += self._count
        backend.matmul_rows += self._rows
        backend.matmul_macs += self._macs + t * self._macs_t
        self.replays += 1
        return logits

    def stats(self) -> dict:
        return {
            "backend": self.backend_name,
            "batch": self.batch,
            "replays": self.replays,
            "sampled_taps": self.sampled,
            "sample_every": self.sample_every,
        }


# ---------------------------------------------------------------------------
# Plan cache + activation policy
# ---------------------------------------------------------------------------


@dataclass
class _PlanEntry:
    backend: PolicyBackend
    policy: object
    generation: int
    plan: DecodePlan | None


def compiled_active(backend, override: bool | None = None) -> bool:
    """Whether a decode step should go through a compiled plan.

    Explicit ``override`` wins.  With no override, compiled is the
    default but defers to eager whenever something wants full per-op
    observation: an attached profiler, a non-empty scope stack (outer
    scopes change policy layer paths), an enabled numerics monitor, or a
    backend that is not a plain :class:`PolicyBackend` (a subclass such
    as :class:`~repro.models.sensitivity.SelectiveBackend` may override
    the per-op dispatch the plan resolves ahead of time).
    """
    if override is False:
        return False
    if type(backend) is not PolicyBackend:
        return False
    if backend.profiler is not None or backend._scopes:
        return False
    if override is None and get_monitor().enabled:
        return False
    return True


def resolve_plan(model, backend, batch: int) -> DecodePlan | None:
    """The model's plan for this (backend, batch) shape, building on miss.

    Cache keys are ``(id(backend), batch)``; entries hold strong refs to
    the backend and its policy, and the prepared-operand cache's
    generation, so any of those changing re-traces.  An untraceable
    model caches a ``None`` marker — the eager fallback — rather than
    re-raising per token.
    """
    generation = get_cache().generation
    plans = model.__dict__.get(_PLAN_CACHE_ATTR)
    if plans is None:
        plans = model.__dict__[_PLAN_CACHE_ATTR] = OrderedDict()
    key = (id(backend), batch)
    entry = plans.get(key)
    if entry is not None:
        if (
            entry.backend is backend
            and entry.policy is backend.policy
            and entry.generation == generation
        ):
            return entry.plan
        del plans[key]
    try:
        plan: DecodePlan | None = DecodePlan(model, backend, batch)
    except PlanUnsupported:
        plan = None
    plans[key] = _PlanEntry(backend, backend.policy, generation, plan)
    while len(plans) > _PLAN_CACHE_MAX:
        plans.popitem(last=False)
    return plan


def plan_stats(model) -> list[dict]:
    """Stats for every live plan on a model (profile CLI / tests)."""
    plans = model.__dict__.get(_PLAN_CACHE_ATTR) or {}
    return [e.plan.stats() for e in plans.values() if e.plan is not None]
