"""Quantization-format registry: one protocol for every arithmetic regime.

Every number format the simulator knows lives here, not in the backend
or as string labels scattered across ``formats/``, ``arith/``, the
numerics monitor and the cost model: a :class:`QuantFormat` bundles
everything one format needs, and
:class:`~repro.models.backend.PolicyBackend` picks one per (layer, tensor
role) —

* **kernels** — :meth:`~QuantFormat.matmul` /
  :meth:`~QuantFormat.matmul_batched` (quantize operands, run the
  format's matmul emulation, tap the numerics monitor) and
  :meth:`~QuantFormat.nonlinear` / :meth:`~QuantFormat.requantize`
  (value-domain grid behaviour of non-linear functions and the residual
  stream);
* **prepared-weight builder** — :meth:`~QuantFormat.prepare_weight`
  routes a weight matrix through the shared
  :class:`~repro.perf.prepared.PreparedOperandCache` keyed by this
  format's id (quantize-once Y-stationary residency);
* **cost-model hooks** — ``precision`` labels profiler attribution and
  compiled-stage modes; ``array_mode`` names the
  :mod:`repro.cost.modes` unit mode the format's matmuls execute under
  (``"bfp8_mac"`` for bfp/int/single-slice floats, ``None`` for the
  fp32 vector personality fallback);
* **numerics-observer taps** — every quantization event lands in the
  process :class:`~repro.obs.numerics.NumericsMonitor` under the
  format's precision label and a tensor role.

Formats are looked up by name through :func:`get_format`; registration is
guarded against duplicates with :class:`~repro.errors.RegistryError`.
Parametric families (``bfp4``, ``int6``, ...) materialize on first lookup.
The registered set covers the paper's regimes (fp32, bfp8, int8, the
I-BERT integer non-linear package), the 16-bit vector-extension formats
(bf16, fp16) and the minifloat fp8 pair (e4m3/e5m2).
"""

from __future__ import annotations

import re
from typing import Callable

import numpy as np

from repro.errors import RegistryError
from repro.obs.numerics import get_monitor

__all__ = [
    "QuantFormat",
    "FP32Format",
    "BfpFormat",
    "IntFormat",
    "MiniFloatFormat",
    "IBertFormat",
    "register_format",
    "get_format",
    "available_formats",
]

Recorder = Callable[[int], None]

def _as2d(x: np.ndarray) -> np.ndarray:
    return x.reshape(-1, x.shape[-1]) if x.ndim != 2 else x


def _record(record: Recorder | None, elements: int) -> None:
    if record is not None:
        record(int(elements))


class QuantFormat:
    """One arithmetic regime's kernels, taps and cost-model identity.

    Subclasses override the private ``_*`` hooks; the public methods share
    the operand bookkeeping.  ``record`` callbacks (when given) receive the
    element count of quantization work the emulation actually performed —
    the backend routes them into the profiler's ``quantize`` bucket.
    """

    #: registry key and policy-file spelling of this format
    name: str = "fp32"
    #: profiler / numerics-monitor / compiled-stage attribution label
    precision: str = "fp32"
    #: Name of the :mod:`repro.cost.modes` unit mode this format's
    #: matmuls execute under by default (``"bfp8_mac"`` = the Eqn-9
    #: stream schedule); ``None`` routes them through the fp32 vector
    #: personality.
    array_mode: str | None = None

    # -- value domain --------------------------------------------------------
    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Encode ``x`` on this format's grid (format-specific payload)."""
        return np.asarray(x, dtype=np.float32)

    def dequantize(self, payload, shape: tuple[int, ...]) -> np.ndarray:
        """Decode a :meth:`quantize` payload back to dense float32."""
        return np.asarray(payload, dtype=np.float32).reshape(shape)

    def snap(self, x: np.ndarray) -> np.ndarray:
        """Round-trip ``x`` through the grid (quantize + dequantize)."""
        return self.dequantize(self.quantize(x), np.asarray(x).shape)

    # -- kernels -------------------------------------------------------------
    def matmul(
        self, x: np.ndarray, w, record: Recorder | None = None
    ) -> np.ndarray:
        """``(m,k) @ (k,n)`` under this regime (``w`` may be prepared)."""
        return (
            np.asarray(x).astype(np.float32) @ np.asarray(w).astype(np.float32)
        ).astype(np.float32)

    def matmul_batched(
        self, a: np.ndarray, b: np.ndarray, record: Recorder | None = None
    ) -> np.ndarray:
        """Stack of independent matmuls ``(B,m,k) @ (B,k,n)``."""
        return (a.astype(np.float32) @ b.astype(np.float32)).astype(np.float32)

    def nonlinear(self, kind: str, fn, x: np.ndarray) -> np.ndarray:
        """Evaluate a non-linear function under this regime's grid."""
        return fn(x).astype(np.float32)

    def requantize(self, x: np.ndarray) -> np.ndarray:
        """Snap an intermediate tensor to the regime's storage grid."""
        return x.astype(np.float32)

    # -- prepared weights ----------------------------------------------------
    def prepare_weight(self, w, record: Recorder | None = None):
        """Quantize-once cached handle for a weight matrix (or ``w`` as-is
        for formats that need no preparation)."""
        return w

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class FP32Format(QuantFormat):
    """Exact float32: the reference regime (no array mapping)."""


class BfpFormat(QuantFormat):
    """Block floating point: 8x8 blocks, shared exponent, ``man_bits``
    mantissas — the paper's systolic-array number format."""

    array_mode = "bfp8_mac"

    def __init__(self, man_bits: int = 8) -> None:
        self.man_bits = int(man_bits)
        self.name = f"bfp{self.man_bits}"
        self.precision = f"bfp{self.man_bits}"

    def quantize(self, x: np.ndarray):
        from repro.formats.blocking import BfpMatrix

        return BfpMatrix.from_dense(_as2d(np.asarray(x)), man_bits=self.man_bits)

    def dequantize(self, payload, shape: tuple[int, ...]) -> np.ndarray:
        return payload.to_dense().reshape(shape).astype(np.float32)

    def prepare_weight(self, w, record: Recorder | None = None):
        from repro.perf.prepared import PreparedTensor, get_cache

        if isinstance(w, PreparedTensor):
            return w
        prepared, hit = get_cache().prepare_bfp(w, man_bits=self.man_bits)
        if not hit:
            _record(record, int(np.prod(prepared.shape)))
        return prepared

    def _weight_blocks(self, w, record: Recorder | None):
        from repro.arith.bfp_matmul import BfpWeight
        from repro.perf.prepared import PreparedTensor

        if isinstance(w, PreparedTensor):
            return w.payload
        _record(record, np.asarray(w).size)
        bw = BfpWeight.from_dense(w, man_bits=self.man_bits)
        mon = get_monitor()
        if mon.enabled:
            mon.observe_bfp("weight", w, bw.matrix, man_bits=self.man_bits)
        return bw

    def matmul(self, x, w, record: Recorder | None = None) -> np.ndarray:
        from repro.arith.bfp_matmul import activation_blocks, bfp_matmul_prepared

        wm = self._weight_blocks(w, record)
        _record(record, np.asarray(x).size)
        am = activation_blocks(x, man_bits=self.man_bits)
        mon = get_monitor()
        if mon.enabled:
            mon.observe_bfp(
                "activation", x, am.to_matrix(), man_bits=self.man_bits
            )
        return bfp_matmul_prepared(am, wm).astype(np.float32)

    def matmul_batched(self, a, b, record: Recorder | None = None) -> np.ndarray:
        from repro.arith.bfp_matmul import (
            bfp_batched_tiles,
            bfp_matmul_from_tiles,
            resident_grid,
            stream_grid,
        )

        _record(record, a.size + b.size)
        tiles = bfp_batched_tiles(a, b, man_bits=self.man_bits)
        mon = get_monitor()
        if mon.enabled:
            # Batched matmuls are the attention kernels: the left operand
            # streams from the residual path (activation role), the right
            # is KV-cache-derived (K^T, V).
            a_man, a_exp, b_man, b_exp = tiles[:4]
            mon.observe_bfp_tiles(
                "activation", a, *stream_grid(a_man, a_exp),
                man_bits=self.man_bits,
            )
            mon.observe_bfp_tiles(
                "kv", b, *resident_grid(b_man, b_exp), man_bits=self.man_bits
            )
        return bfp_matmul_from_tiles(*tiles).astype(np.float32)

    def nonlinear(self, kind, fn, x) -> np.ndarray:
        return self.snap(fn(self.snap(x)))

    def requantize(self, x) -> np.ndarray:
        return self.snap(x)


class IntFormat(QuantFormat):
    """Per-tensor integer quantization (the conventional-int8 comparison)."""

    array_mode = "bfp8_mac"

    def __init__(self, bits: int = 8) -> None:
        self.bits = int(bits)
        self.name = f"int{self.bits}"
        self.precision = f"int{self.bits}"

    def quantize(self, x: np.ndarray):
        from repro.formats.int8q import quantize_intn

        return quantize_intn(x, self.bits)

    def dequantize(self, payload, shape: tuple[int, ...]) -> np.ndarray:
        return payload.decode().reshape(shape).astype(np.float32)

    def prepare_weight(self, w, record: Recorder | None = None):
        from repro.perf.prepared import PreparedTensor, get_cache

        if isinstance(w, PreparedTensor):
            return w
        prepared, hit = get_cache().prepare_int(w, bits=self.bits)
        if not hit:
            _record(record, int(np.prod(prepared.shape)))
        return prepared

    def matmul(self, x, w, record: Recorder | None = None) -> np.ndarray:
        from repro.formats.int8q import int8_matmul, quantize_intn
        from repro.perf.prepared import PreparedTensor

        mon = get_monitor()
        if isinstance(w, PreparedTensor):
            wq = w.payload
            _record(record, np.asarray(x).size)
        else:
            _record(record, np.asarray(x).size + np.asarray(w).size)
            wq = quantize_intn(w, self.bits)
            if mon.enabled:
                mon.observe_int("weight", w, wq, bits=self.bits)
        xq = quantize_intn(x, self.bits)
        if mon.enabled:
            mon.observe_int("activation", x, xq, bits=self.bits)
        return int8_matmul(xq, wq).astype(np.float32)

    def matmul_batched(self, a, b, record: Recorder | None = None) -> np.ndarray:
        from repro.formats.int8q import intn_matmul_quantized, quantize_intn_sliced

        _record(record, a.size + b.size)
        qa, sa = quantize_intn_sliced(a, self.bits)
        qb, sb = quantize_intn_sliced(b, self.bits)
        mon = get_monitor()
        if mon.enabled:
            mon.observe_int_sliced("activation", a, qa, sa, bits=self.bits)
            mon.observe_int_sliced("kv", b, qb, sb, bits=self.bits)
        return intn_matmul_quantized(qa, sa, qb, sb).astype(np.float32)

    def nonlinear(self, kind, fn, x) -> np.ndarray:
        return self.snap(fn(self.snap(x)))

    def requantize(self, x) -> np.ndarray:
        return self.snap(x)


class MiniFloatFormat(QuantFormat):
    """A narrow float format (bf16/fp16/fp8) on the shared half-prec grid.

    Operands are rounded to the grid (RNE, saturate, flush-to-zero — see
    :func:`repro.formats.halfprec.quantize_half`) and accumulated exactly
    in float32, the standard emulation of a wide-accumulator FPU.
    Single-slice formats (8-bit mantissa path or narrower: bf16, both
    fp8s) map onto the systolic array like a bfp8 stream; multi-slice
    fp16 falls back to the vector personality.
    """

    def __init__(self, fmt) -> None:
        self.fmt = fmt
        self.name = fmt.name
        self.precision = fmt.name
        # Single-slice minifloats ride the bfp8 MAC array; multi-slice
        # fp16 has no default array mapping (route it onto ``fp16_dot``
        # through a ModeOptions override to avoid the vector cliff).
        self.array_mode = "bfp8_mac" if fmt.n_slices == 1 else None

    def quantize(self, x: np.ndarray) -> np.ndarray:
        from repro.formats.halfprec import quantize_half

        return quantize_half(np.asarray(x, dtype=np.float32), self.fmt)

    def dequantize(self, payload, shape: tuple[int, ...]) -> np.ndarray:
        return np.asarray(payload, dtype=np.float32).reshape(shape)

    def prepare_weight(self, w, record: Recorder | None = None):
        from repro.perf.prepared import PreparedTensor, get_cache

        if isinstance(w, PreparedTensor):
            return w
        prepared, hit = get_cache().prepare_half(w, fmt=self.fmt)
        if not hit:
            _record(record, int(np.prod(prepared.shape)))
        return prepared

    def matmul(self, x, w, record: Recorder | None = None) -> np.ndarray:
        from repro.formats.halfprec import quantize_half
        from repro.perf.prepared import PreparedTensor

        if isinstance(w, PreparedTensor):
            wq = w.payload
            _record(record, np.asarray(x).size)
        else:
            _record(record, np.asarray(x).size + np.asarray(w).size)
            wq = quantize_half(
                np.asarray(w, dtype=np.float32), self.fmt, role="weight"
            )
        xq = quantize_half(
            np.asarray(x, dtype=np.float32), self.fmt, role="activation"
        )
        return (xq @ wq).astype(np.float32)

    def matmul_batched(self, a, b, record: Recorder | None = None) -> np.ndarray:
        from repro.formats.halfprec import quantize_half

        _record(record, a.size + b.size)
        qa = quantize_half(
            np.asarray(a, dtype=np.float32), self.fmt, role="activation"
        )
        qb = quantize_half(np.asarray(b, dtype=np.float32), self.fmt, role="kv")
        return (qa @ qb).astype(np.float32)

    def nonlinear(self, kind, fn, x) -> np.ndarray:
        return self.quantize(fn(self.quantize(x)))

    def requantize(self, x) -> np.ndarray:
        return self.quantize(x)


class IBertFormat(IntFormat):
    """The I-BERT integer non-linear package (ref [4] of the paper).

    Linear algebra is plain ``int{bits}``; softmax/GELU/LayerNorm run as
    *integer-arithmetic* programs (second-order polynomial exp/erf,
    Newton integer sqrt) on an ``int{act_bits}`` activation grid instead
    of the fp32 vector personality.
    """

    def __init__(self, bits: int = 8, act_bits: int = 8) -> None:
        super().__init__(bits=bits)
        self.act_bits = int(act_bits)
        self.name = "ibert"
        self.precision = f"int{self.act_bits}"

    def nonlinear(self, kind, fn, x) -> np.ndarray:
        from repro.formats.int8q import quantize_intn
        from repro.models.integer_nonlinear import i_gelu, i_softmax, i_sqrt

        xq = quantize_intn(x, self.act_bits)
        q = xq.values.astype(np.int64).reshape(x.shape)
        scale = xq.scale
        if kind == "softmax":
            out_q, out_scale = i_softmax(q, scale)
            return (out_q * out_scale).astype(np.float32)
        if kind == "gelu":
            out_q, out_scale = i_gelu(q, scale)
            return (out_q * out_scale).astype(np.float32)
        if kind in ("layernorm", "rmsnorm"):
            # Integer mean/variance with the Newton integer sqrt.  The
            # integer-normalized tensor (zero mean, unit variance on a 2^7
            # fixed-point grid) is handed back to the layer's own function,
            # which re-normalizes (a near-no-op) and applies gamma/beta —
            # so only the integer normalization's quantization error enters.
            n = q.shape[-1]
            mean = q.sum(-1, keepdims=True) // n if kind == "layernorm" else 0
            c = q - mean
            var = np.maximum((c * c).sum(-1, keepdims=True) // n, 1)
            std = np.maximum(i_sqrt(var), 1)
            norm = (c << 7) // std
            return fn((norm.astype(np.float32) / (1 << 7))).astype(np.float32)
        # Unknown non-linearity (e.g. swiglu): integer pipelines have no
        # program for it; fall back to quantize-evaluate-quantize.
        y = fn((q * scale).astype(np.float32))
        yq = quantize_intn(y, self.act_bits)
        return yq.decode().reshape(y.shape).astype(np.float32)

    def requantize(self, x) -> np.ndarray:
        from repro.formats.int8q import quantize_intn

        return (
            quantize_intn(x, self.act_bits).decode().reshape(x.shape)
            .astype(np.float32)
        )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, QuantFormat] = {}

_PARAMETRIC = (
    (re.compile(r"bfp(\d+)"), lambda n: BfpFormat(man_bits=n)),
    (re.compile(r"int(\d+)"), lambda n: IntFormat(bits=n)),
)


def register_format(fmt: QuantFormat, *, replace: bool = False) -> QuantFormat:
    """Register a format under its ``name``; duplicate names raise."""
    if not replace and fmt.name in _REGISTRY:
        raise RegistryError(
            f"format {fmt.name!r} is already registered; pass replace=True "
            "to override deliberately"
        )
    _REGISTRY[fmt.name] = fmt
    return fmt


def get_format(name: str) -> QuantFormat:
    """Look up a format by name (``bfpN``/``intN`` materialize on demand)."""
    fmt = _REGISTRY.get(name)
    if fmt is not None:
        return fmt
    for pattern, make in _PARAMETRIC:
        m = pattern.fullmatch(name)
        if m:
            return register_format(make(int(m.group(1))))
    raise RegistryError(
        f"unknown quantization format {name!r}; "
        f"available: {sorted(_REGISTRY)} (plus parametric bfpN / intN)"
    )


def available_formats() -> list[str]:
    """Names currently registered (sorted; parametric families excluded
    until first use)."""
    return sorted(_REGISTRY)


def _register_builtins() -> None:
    from repro.formats.halfprec import BF16, FP16
    from repro.formats.minifloat import E4M3, E5M2

    register_format(FP32Format())
    register_format(BfpFormat(man_bits=8))
    register_format(IntFormat(bits=8))
    register_format(IBertFormat())
    for half in (BF16, FP16, E4M3, E5M2):
        register_format(MiniFloatFormat(half))


_register_builtins()
