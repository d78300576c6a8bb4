"""Value-domain numerics observability: quantization health telemetry.

PR 2's ``obs`` layer answers *where the cycles go*; this module answers
*where the bits go*.  The paper's central claim — bfp8 preserves
Transformer accuracy where per-tensor int8 collapses, because an outlier
only coarsens its own 8x8 block — hinges on value-domain quantities the
cycle profiler never sees: how often mantissas saturate at the clip
bound, how often small values flush to zero under an outlier's shared
exponent, how widely block exponents spread inside one tensor, and how
much of the mantissa's dynamic range is actually used.

A :class:`NumericsMonitor` accumulates exactly those quantities, keyed by
``(layer, precision, tensor-role)``:

* ``layer`` — the model scope (``block0.attn``, ``head``, ...) pushed via
  :meth:`scope`, shared with the cycle profiler through
  :meth:`repro.models.backend.PolicyBackend.scope`;
* ``precision`` — the quantization grid (``bfp8``, ``int8``, ``fp16``...);
* ``role`` — ``weight`` (prepared once, Y-stationary), ``activation``
  (streamed per call), or ``kv`` (KV-cache-derived attention operands).

Per key it records: saturation counts (mantissa at the clip bound),
underflow-to-zero counts (nonzero source quantized to exactly zero),
a shared-exponent histogram and per-tensor block-exponent spread,
effective mantissa-bit utilization, and *streaming* SQNR — running sums
of reference and error energy, so the ratio is exact over the whole run
without storing tensors.

Everything is deterministic (pure function of model + seed) and publishes
into the process :class:`~repro.obs.metrics.MetricsRegistry` under
``numerics.*``; :meth:`annotate_tracer` additionally attaches each key's
summary as span arguments on a ``numerics`` track of a cycle-domain
:class:`~repro.obs.tracer.Tracer`.

The disabled path mirrors ``NULL_TRACER``/``NULL_REGISTRY``:
:data:`NULL_MONITOR`, a ``NumericsMonitor(enabled=False)`` whose
observation methods return at once, is installed process-wide by
default.  Instrumentation sites fetch it through the module-level
:func:`get_monitor` (no per-call imports) and check the single
``enabled`` attribute before doing any work: quantizing kernels pay one
function call and one attribute read, nothing else (see
``results/BENCH_numerics_overhead.json``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ROLES",
    "QuantStats",
    "NumericsMonitor",
    "NULL_MONITOR",
    "get_monitor",
    "set_monitor",
]

ROLES = ("weight", "activation", "kv", "tensor")


@dataclass
class QuantStats:
    """Accumulated quantization health of one (layer, precision, role) key.

    ``code_bits`` is the magnitude width of the grid (``man_bits - 1`` for
    block-fp, ``bits - 1`` for integer, the stored+implicit mantissa for
    half floats); utilization is measured against it.  ``sum_ref_sq`` /
    ``sum_err_sq`` are the streaming-SQNR accumulators.
    """

    code_bits: int
    tensors: int = 0
    elements: int = 0
    saturated: int = 0
    underflow: int = 0
    nonzero: int = 0
    bits_used: float = 0.0
    blocks: int = 0
    zero_blocks: int = 0
    sum_ref_sq: float = 0.0
    sum_err_sq: float = 0.0
    exp_hist: dict[int, int] = field(default_factory=dict)
    exp_spread_sum: float = 0.0
    exp_spread_max: int = 0

    # -- derived -------------------------------------------------------------
    def sqnr_db(self) -> float | None:
        """Streaming SQNR in dB; ``None`` when undefined (no signal or no
        error recorded — an exact encoding has no noise to measure)."""
        if self.sum_ref_sq <= 0.0 or self.sum_err_sq <= 0.0:
            return None
        return float(10.0 * np.log10(self.sum_ref_sq / self.sum_err_sq))

    def snapshot(self) -> dict:
        n = self.elements or 1
        nz = self.nonzero or 1
        nonzero_blocks = self.blocks - self.zero_blocks
        exp_keys = sorted(self.exp_hist)
        return {
            "code_bits": self.code_bits,
            "tensors": self.tensors,
            "elements": self.elements,
            "saturation_rate": self.saturated / n,
            "underflow_rate": self.underflow / n,
            "mantissa_utilization": self.bits_used / (nz * self.code_bits)
            if self.code_bits
            else 0.0,
            "sqnr_db": self.sqnr_db(),
            "exponent": {
                "min": exp_keys[0] if exp_keys else 0,
                "max": exp_keys[-1] if exp_keys else 0,
                "hist": {str(k): self.exp_hist[k] for k in exp_keys},
                "spread_mean": (
                    self.exp_spread_sum / self.tensors if self.tensors else 0.0
                ),
                "spread_max": self.exp_spread_max,
                "zero_blocks": self.zero_blocks,
                "blocks": self.blocks,
            },
            "nonzero_block_fraction": (
                nonzero_blocks / self.blocks if self.blocks else 0.0
            ),
        }


def _used_bits(man_abs: np.ndarray) -> float:
    """Sum over nonzero codes of the magnitude bits each occupies."""
    nz = man_abs[man_abs > 0]
    if not nz.size:
        return 0.0
    _, e = np.frexp(nz.astype(np.float64))
    return float(e.sum())


def _assemble_tiles(man: np.ndarray, exp: np.ndarray) -> np.ndarray:
    """Dequantize ``(..., Rb, Cb, r, c)`` tiles to ``(..., Rb*r, Cb*c)``."""
    vals = np.asarray(man, dtype=np.float64) * np.exp2(
        np.asarray(exp, dtype=np.float64)[..., None, None]
    )
    rb, cb, r, c = vals.shape[-4:]
    return vals.swapaxes(-3, -2).reshape(*vals.shape[:-4], rb * r, cb * c)


class NumericsMonitor:
    """Accumulates value-domain quantization statistics for a run.

    Instrumentation sites call :meth:`observe_bfp` /
    :meth:`observe_bfp_tiles` / :meth:`observe_int` /
    :meth:`observe_int_sliced` / :meth:`observe_half` with the source
    tensor and its quantized encoding; the monitor derives every statistic
    itself, so call sites stay one line.  All methods no-op when
    ``enabled`` is ``False`` — :data:`NULL_MONITOR` is the shared disabled
    instance, checked by a single attribute read in the hot paths.
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self.stats: dict[tuple[str, str, str], QuantStats] = {}
        self.alignment: dict[tuple[str, str], dict] = {}
        self._stack: list[str] = []

    # -- scoping -------------------------------------------------------------
    @contextmanager
    def scope(self, name: str):
        """Layer scope, shared with the cycle profiler via the backend."""
        self._stack.append(name)
        try:
            yield self
        finally:
            self._stack.pop()

    @property
    def current_layer(self) -> str:
        return ".".join(self._stack) if self._stack else "<root>"

    def _entry(self, precision: str, role: str, code_bits: int) -> QuantStats:
        key = (self.current_layer, precision, role)
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = QuantStats(code_bits=code_bits)
        return st

    # -- core accumulation ---------------------------------------------------
    def _accumulate(
        self,
        st: QuantStats,
        *,
        source: np.ndarray,
        decoded: np.ndarray,
        codes_abs: np.ndarray,
        code_max: int,
        n_tensors: int,
    ) -> None:
        src = np.asarray(source, dtype=np.float64)
        err = src - decoded
        st.tensors += n_tensors
        st.elements += int(src.size)
        st.saturated += int((codes_abs >= code_max).sum())
        st.underflow += int(((codes_abs == 0) & (src != 0.0)).sum())
        st.nonzero += int((codes_abs > 0).sum())
        st.bits_used += _used_bits(codes_abs)
        st.sum_ref_sq += float((src * src).sum())
        st.sum_err_sq += float((err * err).sum())

    def _exponent_stats(
        self, st: QuantStats, man: np.ndarray, exp: np.ndarray
    ) -> None:
        """Histogram + per-tensor spread over *nonzero* blocks.

        An all-zero block carries the artificial minimum exponent (it has
        nothing to scale), so it is counted separately instead of
        polluting the spread — the spread measures how far an outlier
        block's exponent sits from its tensor's typical block.
        """
        man = np.asarray(man)
        exp = np.asarray(exp, dtype=np.int64)
        nz = man.astype(bool).any(axis=(-2, -1))  # (..., Rb, Cb)
        st.blocks += int(exp.size)
        st.zero_blocks += int(exp.size - nz.sum())
        live = exp[nz]
        vals, counts = np.unique(live, return_counts=True)
        for v, c in zip(vals.tolist(), counts.tolist()):
            st.exp_hist[int(v)] = st.exp_hist.get(int(v), 0) + int(c)
        # Per-tensor spread: reduce the trailing block-grid axes.
        grid_axes = (-2, -1)
        hi = np.where(nz, exp, np.int64(-(10**6))).max(axis=grid_axes)
        lo = np.where(nz, exp, np.int64(10**6)).min(axis=grid_axes)
        spread = np.maximum(hi - lo, 0)  # all-zero tensor -> 0
        st.exp_spread_sum += float(np.asarray(spread, dtype=np.float64).sum())
        st.exp_spread_max = max(st.exp_spread_max, int(np.max(spread, initial=0)))

    # -- observation entry points --------------------------------------------
    def observe_bfp(
        self, role: str, source: np.ndarray, matrix, *, man_bits: int = 8
    ) -> None:
        """One block-fp quantization event (``matrix``: a ``BfpMatrix``)."""
        if not self.enabled:
            return
        self.observe_bfp_tiles(
            role, source, matrix.mantissas, matrix.exponents, man_bits=man_bits
        )

    def observe_bfp_tiles(
        self,
        role: str,
        source: np.ndarray,
        mantissas: np.ndarray,
        exponents: np.ndarray,
        *,
        man_bits: int = 8,
    ) -> None:
        """Block-fp tiles ``(..., Rb, Cb, r, c)`` against their unpadded
        ``(..., m, k)`` source (zero padding contributes nothing)."""
        if not self.enabled:
            return
        src = np.asarray(source, dtype=np.float64)
        st = self._entry(f"bfp{man_bits}", role, man_bits - 1)
        dense = _assemble_tiles(mantissas, exponents)
        m, k = src.shape[-2:]
        decoded = dense[..., :m, :k]
        # Padding rows/cols hold zero mantissas from zero sources: slice
        # the codes the same way the decoded view is sliced.
        rb, cb, r, c = np.asarray(mantissas).shape[-4:]
        codes = (
            np.abs(np.asarray(mantissas, dtype=np.int64))
            .swapaxes(-3, -2)
            .reshape(*np.asarray(mantissas).shape[:-4], rb * r, cb * c)
        )[..., :m, :k]
        n_tensors = int(np.prod(src.shape[:-2])) if src.ndim > 2 else 1
        self._accumulate(
            st,
            source=src,
            decoded=decoded,
            codes_abs=codes,
            code_max=(1 << (man_bits - 1)) - 1,
            n_tensors=n_tensors,
        )
        self._exponent_stats(st, mantissas, exponents)

    def observe_int(self, role: str, source: np.ndarray, tensor, *, bits: int = 8) -> None:
        """One per-tensor integer quantization (``tensor``: Int8Tensor)."""
        if not self.enabled:
            return
        src = np.asarray(source, dtype=np.float64)
        st = self._entry(f"int{bits}", role, bits - 1)
        codes = np.abs(tensor.values.astype(np.int64))
        self._accumulate(
            st,
            source=src,
            decoded=tensor.values.astype(np.float64) * tensor.scale,
            codes_abs=codes,
            code_max=(1 << (bits - 1)) - 1,
            n_tensors=1,
        )
        # Per-tensor scale exponent stands in for the (absent) block grid.
        _, e = np.frexp(tensor.scale)
        st.blocks += 1
        st.exp_hist[int(e)] = st.exp_hist.get(int(e), 0) + 1

    def observe_int_sliced(
        self,
        role: str,
        source: np.ndarray,
        values: np.ndarray,
        scales: np.ndarray,
        *,
        bits: int = 8,
    ) -> None:
        """A ``(B, m, n)`` stack quantized per-slice (values + scales)."""
        if not self.enabled:
            return
        src = np.asarray(source, dtype=np.float64)
        st = self._entry(f"int{bits}", role, bits - 1)
        codes = np.abs(values.astype(np.int64))
        decoded = values.astype(np.float64) * np.asarray(scales)[:, None, None]
        self._accumulate(
            st,
            source=src,
            decoded=decoded,
            codes_abs=codes,
            code_max=(1 << (bits - 1)) - 1,
            n_tensors=int(src.shape[0]),
        )
        _, es = np.frexp(np.asarray(scales, dtype=np.float64))
        vals, counts = np.unique(es.astype(np.int64), return_counts=True)
        for v, c in zip(vals.tolist(), counts.tolist()):
            st.exp_hist[int(v)] = st.exp_hist.get(int(v), 0) + int(c)
        st.blocks += int(np.asarray(scales).size)

    def observe_half(
        self,
        fmt_name: str,
        *,
        man_bits: int,
        overflow: int,
        underflow: int,
        source: np.ndarray,
        quantized: np.ndarray,
        role: str = "tensor",
    ) -> None:
        """One half-precision rounding event (bf16/fp16 grids).

        ``overflow`` counts saturations to the format's max finite value,
        ``underflow`` flush-to-zero events — the two flag paths of
        :func:`repro.formats.halfprec.quantize_half`.
        """
        if not self.enabled:
            return
        src = np.asarray(source, dtype=np.float64)
        q = np.asarray(quantized, dtype=np.float64)
        st = self._entry(fmt_name, role, man_bits)
        err = src - q
        st.tensors += 1
        st.elements += int(src.size)
        st.saturated += int(overflow)
        st.underflow += int(underflow)
        st.nonzero += int((q != 0.0).sum())
        st.sum_ref_sq += float((src * src).sum())
        st.sum_err_sq += float((err * err).sum())

    def observe_alignment(self, probe, *, role: str = "matmul") -> None:
        """Fold an :class:`repro.arith.bfp_matmul.AlignmentProbe` into the
        run: the loss-free evidence (``under_predictions`` must stay 0)
        and the measured narrow fraction for the cost model's
        ``align_narrow_frac`` knob travel with the numerics report."""
        if not self.enabled or not probe.steps:
            return
        key = (self.current_layer, role)
        agg = self.alignment.setdefault(
            key,
            {
                "steps": 0,
                "narrow_steps": 0,
                "under_predictions": 0,
                "max_predicted_width": 0,
                "max_actual_width": 0,
            },
        )
        agg["steps"] += probe.steps
        agg["narrow_steps"] += probe.narrow_steps
        agg["under_predictions"] += probe.under_predictions
        agg["max_predicted_width"] = max(
            agg["max_predicted_width"], probe.max_predicted_width
        )
        agg["max_actual_width"] = max(
            agg["max_actual_width"], probe.max_actual_width
        )

    def alignment_summary(self) -> dict:
        """Run-wide aligned-width-prediction totals across all keys."""
        out = {
            "steps": 0,
            "narrow_steps": 0,
            "under_predictions": 0,
            "max_predicted_width": 0,
            "max_actual_width": 0,
        }
        for agg in self.alignment.values():
            out["steps"] += agg["steps"]
            out["narrow_steps"] += agg["narrow_steps"]
            out["under_predictions"] += agg["under_predictions"]
            out["max_predicted_width"] = max(
                out["max_predicted_width"], agg["max_predicted_width"]
            )
            out["max_actual_width"] = max(
                out["max_actual_width"], agg["max_actual_width"]
            )
        out["narrow_frac"] = (
            out["narrow_steps"] / out["steps"] if out["steps"] else 0.0
        )
        return out

    # -- export --------------------------------------------------------------
    def as_dict(self) -> dict:
        """Per-key snapshots, sorted for deterministic serialization."""
        entries = []
        for (layer, precision, role) in sorted(self.stats):
            snap = self.stats[(layer, precision, role)].snapshot()
            entries.append(
                {"layer": layer, "precision": precision, "role": role, **snap}
            )
        return {"entries": entries}

    def totals(self) -> dict:
        """Run-wide aggregates across all keys, by precision."""
        out: dict[str, dict] = {}
        for (_, precision, _), st in sorted(self.stats.items()):
            g = out.setdefault(
                precision,
                {
                    "tensors": 0,
                    "elements": 0,
                    "saturated": 0,
                    "underflow": 0,
                    "sum_ref_sq": 0.0,
                    "sum_err_sq": 0.0,
                },
            )
            g["tensors"] += st.tensors
            g["elements"] += st.elements
            g["saturated"] += st.saturated
            g["underflow"] += st.underflow
            g["sum_ref_sq"] += st.sum_ref_sq
            g["sum_err_sq"] += st.sum_err_sq
        for g in out.values():
            n = g["elements"] or 1
            g["saturation_rate"] = g["saturated"] / n
            g["underflow_rate"] = g["underflow"] / n
            g["sqnr_db"] = (
                float(10.0 * np.log10(g["sum_ref_sq"] / g["sum_err_sq"]))
                if g["sum_ref_sq"] > 0 and g["sum_err_sq"] > 0
                else None
            )
            del g["sum_ref_sq"], g["sum_err_sq"]
        return out

    def publish(self, registry=None) -> None:
        """Write final aggregates into a metrics registry (counters +
        gauges under ``numerics.*``)."""
        from repro.obs.metrics import get_registry

        reg = get_registry() if registry is None else registry
        if not reg.enabled:
            return
        for (layer, precision, role), st in sorted(self.stats.items()):
            base = f"numerics.{precision}.{role}"
            reg.counter(f"{base}.tensors").inc(st.tensors)
            reg.counter(f"{base}.elements").inc(st.elements)
            reg.counter(f"{base}.saturated").inc(st.saturated)
            reg.counter(f"{base}.underflow").inc(st.underflow)
            sqnr = st.sqnr_db()
            if sqnr is not None:
                reg.gauge(f"numerics.layer.{layer}.{precision}.{role}.sqnr_db").set(
                    sqnr
                )
        for precision, g in self.totals().items():
            reg.gauge(f"numerics.{precision}.saturation_rate").set(
                g["saturation_rate"]
            )
            reg.gauge(f"numerics.{precision}.underflow_rate").set(
                g["underflow_rate"]
            )
            if g["sqnr_db"] is not None:
                reg.gauge(f"numerics.{precision}.sqnr_db").set(g["sqnr_db"])
        if self.alignment:
            a = self.alignment_summary()
            reg.counter("numerics.alignment.steps").inc(a["steps"])
            reg.counter("numerics.alignment.narrow_steps").inc(
                a["narrow_steps"]
            )
            reg.counter("numerics.alignment.under_predictions").inc(
                a["under_predictions"]
            )
            reg.gauge("numerics.alignment.narrow_frac").set(a["narrow_frac"])

    def annotate_tracer(self, tracer, *, track: str = "numerics") -> None:
        """Attach each key's summary as span arguments on a tracer track.

        Emitted as zero-length spans at cycle 0 — the value domain has no
        duration; the spans exist so a Perfetto view of a run carries the
        quantization health alongside the cycle timeline.
        """
        if not tracer.enabled:
            return
        for (layer, precision, role) in sorted(self.stats):
            snap = self.stats[(layer, precision, role)].snapshot()
            tracer.span(
                f"{layer}/{precision}/{role}",
                track=track,
                start=0,
                end=0,
                cat="numerics",
                args={
                    "layer": layer,
                    "precision": precision,
                    "role": role,
                    "saturation_rate": snap["saturation_rate"],
                    "underflow_rate": snap["underflow_rate"],
                    "sqnr_db": snap["sqnr_db"],
                    "mantissa_utilization": snap["mantissa_utilization"],
                    "exp_spread_max": snap["exponent"]["spread_max"],
                },
            )

    def reset(self) -> None:
        self.stats.clear()
        self.alignment.clear()


NULL_MONITOR = NumericsMonitor(enabled=False)

_default_monitor: NumericsMonitor = NULL_MONITOR


def get_monitor() -> NumericsMonitor:
    """The process-wide numerics monitor (disabled by default)."""
    return _default_monitor


def set_monitor(monitor: NumericsMonitor) -> NumericsMonitor:
    """Swap the process-wide monitor; returns the previous one."""
    global _default_monitor
    previous = _default_monitor
    _default_monitor = monitor
    return previous
