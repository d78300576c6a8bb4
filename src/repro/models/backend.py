"""Compute backend: the arithmetic regimes a Transformer can run under.

The paper's deployment story is *mixed precision*: linear layers in bfp8 on
the systolic array, non-linear layers in fp32 on the vector personality,
no retraining.  The comparison points are conventional int8 quantization
(which needs retraining to recover accuracy) and full fp32.

A backend supplies the primitives a model forward calls:

* ``matmul(x, w)`` / ``matmul_batched(a, b)`` — how linear layers and the
  per-head attention products multiply;
* ``nonlinear(kind, fn, x)`` — how a non-linear function (softmax / gelu /
  layernorm internals) is evaluated: exactly, or squeezed through a
  quantization grid first;
* ``requantize(x)`` — how the residual stream is stored between sublayers.

There is one engine, :class:`PolicyBackend`: it resolves every operation
through a :class:`~repro.models.policy.PrecisionPolicy` — (layer scope
path, tensor role) -> a :class:`~repro.formats.registry.QuantFormat` — so
one model forward can run attention in bfp8, the MLP in minifloat fp8 and
the non-linear functions in exact fp32.  A regime is a policy name, and
:func:`get_backend` builds the engine for it.  :data:`BACKENDS` lists the
six regimes the results tables compare:

``fp32``          float32 everywhere (reference).
``bfp8-mixed``    the paper's regime: bfp8 linear + fp32 non-linear.
``bfp8-all``      ablation: non-linear inputs/outputs also pass through
                  the bfp8 grid.
``int8-linear``   int8 per-tensor linear + fp32 non-linear.
``int8-all``      conventional int8 inference: non-linear tensors are also
                  snapped to the int8 grid (what an integer-only
                  accelerator without retraining does).
``ibert``         int8 linear + I-BERT integer non-linear programs.

Other widths are names too (``bfp4-mixed``, ``int6-all``, ...; see
:func:`~repro.models.policy.get_policy`).
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import Callable

import numpy as np

from repro.cost.modes import ModeOptions, resolve_unit_mode
from repro.errors import ConfigurationError
from repro.formats.registry import QuantFormat, get_format
from repro.models.policy import PrecisionPolicy, get_policy
from repro.obs.numerics import get_monitor
from repro.obs.profile import Profiler
from repro.perf.prepared import PreparedTensor

__all__ = [
    "PolicyBackend",
    "FP32Backend",
    "BFP8MixedBackend",
    "BACKENDS",
    "get_backend",
]


class _ScopeGuard:
    """Zero-overhead scope exit for the unobserved fast path."""

    __slots__ = ("_scopes",)

    def __init__(self, scopes: list) -> None:
        self._scopes = scopes

    def __enter__(self):
        return None

    def __exit__(self, *exc) -> bool:
        self._scopes.pop()
        return False


class PolicyBackend:
    """The arithmetic engine: a policy decides each operation's format.

    Every matmul / batched matmul / non-linear evaluation / residual
    requantization resolves ``(layer_path, role)`` through the
    :class:`~repro.models.policy.PrecisionPolicy` into a registry
    :class:`~repro.formats.registry.QuantFormat`, whose kernel then runs
    — with profiler attribution under the format's precision label and
    its unit mode (``modes`` overrides a format's default mode), and
    numerics-monitor taps keyed the same way.

    ``matmul_count`` counts weight passes (streams of Y through the
    array) and ``matmul_rows`` the activation rows they served — their
    ratio is the amortization a batched decode step achieves: B sessions
    stepped together do one weight pass per linear layer instead of B.

    Attaching a :class:`~repro.obs.profile.Profiler` makes every matmul
    and non-linear evaluation land in the profiler's current scope with
    its hardware cycle cost; models push scopes via :meth:`scope`.  The
    scope stack is always maintained: it is also the layer path the
    policy resolves against.
    """

    def __init__(
        self, policy: PrecisionPolicy, *, modes: ModeOptions | None = None
    ) -> None:
        self.policy = policy
        self.name = policy.name
        self.profiler: Profiler | None = None
        self.modes = modes
        self.matmul_count = self.matmul_macs = self.matmul_rows = 0
        self._scopes: list[str] = []
        self._fmt_cache: dict[tuple[str, str], QuantFormat] = {}
        self._mode_cache: dict[str, str] = {}

    def _fmt_at(self, layer: str, role: str) -> QuantFormat:
        key = (layer, role)
        fmt = self._fmt_cache.get(key)
        if fmt is None:
            fmt = get_format(self.policy.resolve_name(layer, role))
            self._fmt_cache[key] = fmt
        return fmt

    def _fmt(self, role: str) -> QuantFormat:
        return self._fmt_at(self.layer_path, role)

    def _unit_mode(self, fmt: QuantFormat) -> str:
        """Profiler costing handle: the registry name of the unit mode the
        format's matmuls execute under (``"fp32_vector"`` for formats with
        no array mapping)."""
        mode = self._mode_cache.get(fmt.name)
        if mode is None:
            mode = resolve_unit_mode(fmt.name, self.modes).name
            self._mode_cache[fmt.name] = mode
        return mode

    def _quantize_recorder(self, fmt: QuantFormat):
        if self.profiler is None:
            return None
        profiler = self.profiler
        return lambda n: profiler.record_quantize(
            int(n), precision=fmt.precision
        )

    # -- primitives ----------------------------------------------------------
    def matmul(
        self, x: np.ndarray, w: "np.ndarray | PreparedTensor"
    ) -> np.ndarray:
        fmt = self._fmt("linear")
        self.matmul_count += 1
        self.matmul_macs += x.shape[0] * x.shape[1] * w.shape[1]
        self.matmul_rows += x.shape[0]
        if self.profiler is not None:
            self.profiler.record_matmul(
                x.shape[0], x.shape[1], w.shape[1],
                precision=fmt.precision, mode=self._unit_mode(fmt),
            )
        return fmt.matmul(x, w, record=self._quantize_recorder(fmt))

    def matmul_batched(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Stack of independent matmuls: ``(B, m, k) @ (B, k, n)``.

        One kernel invocation for the whole stack (per-head attention,
        batched decode steps) instead of ``B`` Python-level calls; op
        statistics and profiler attribution count the ``B`` logical
        weight passes exactly as ``B`` separate :meth:`matmul` calls
        would, so amortization accounting is unchanged.
        """
        a = np.asarray(a)
        b = np.asarray(b)
        if (
            a.ndim != 3 or b.ndim != 3
            or a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]
        ):
            raise ConfigurationError(
                f"bad batched matmul shapes: {a.shape} @ {b.shape}"
            )
        fmt = self._fmt("attention")
        n_slices, m, k = a.shape
        n = b.shape[2]
        self.matmul_count += n_slices
        self.matmul_macs += n_slices * m * k * n
        self.matmul_rows += n_slices * m
        if self.profiler is not None:
            mode = self._unit_mode(fmt)
            for _ in range(n_slices):
                self.profiler.record_matmul(
                    m, k, n, precision=fmt.precision, mode=mode,
                )
        return fmt.matmul_batched(a, b, record=self._quantize_recorder(fmt))

    def prepare_weight(
        self, w: "np.ndarray | PreparedTensor"
    ) -> "np.ndarray | PreparedTensor":
        """Quantize-once handle for a weight matrix (Y-stationary residency).

        Quantizing formats return a cached :class:`PreparedTensor`
        (quantizing on first sight, reusing afterwards); exact fp32 needs
        no preparation and returns the array unchanged.  Activation and
        KV-derived tensors must NOT pass through here — they change
        every call and would churn the cache.
        """
        fmt = self._fmt("linear")
        return fmt.prepare_weight(w, record=self._quantize_recorder(fmt))

    def nonlinear(
        self, kind: str, fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray
    ) -> np.ndarray:
        """Evaluate a non-linear function under this regime."""
        fmt = self._fmt("nonlinear")
        if self.profiler is not None:
            self.profiler.record_nonlinear(
                kind, int(x.size), precision=fmt.precision
            )
        return fmt.nonlinear(kind, fn, x)

    def requantize(self, x: np.ndarray) -> np.ndarray:
        """Snap an intermediate tensor (e.g. the residual stream) to the
        regime's storage grid.  Exact-fp32 regimes return it unchanged."""
        return self._fmt("residual").requantize(x)

    # -- statistics ----------------------------------------------------------
    def stats(self) -> dict[str, int]:
        return {
            "matmuls": self.matmul_count,
            "macs": self.matmul_macs,
            "rows": self.matmul_rows,
        }

    # -- scopes --------------------------------------------------------------
    def scope(self, name: str):
        """Profiling/policy scope for a model component.

        The same scope name feeds the cycle profiler, the value-domain
        numerics monitor and the policy layer path, so cycle attribution,
        quantization-health attribution and per-layer precision all share
        one layer taxonomy.

        The unobserved path (no profiler, monitor disabled) returns a
        slotted guard — a plain list append/pop with no generator frame
        or ExitStack (this runs per layer per token in decode, and used
        to be the monitor's disabled-path residue on the hot loop)."""
        if self.profiler is None and not get_monitor().enabled:
            self._scopes.append(name)
            return _ScopeGuard(self._scopes)
        return self._observed_scope(name)

    @contextmanager
    def _observed_scope(self, name: str):
        mon = get_monitor()
        self._scopes.append(name)
        try:
            with ExitStack() as stack:
                if self.profiler is not None:
                    stack.enter_context(self.profiler.scope(name))
                if mon.enabled:
                    stack.enter_context(mon.scope(name))
                yield
        finally:
            self._scopes.pop()

    @property
    def layer_path(self) -> str:
        """Dotted scope path of the component currently executing."""
        return ".".join(self._scopes)


#: The regimes the results tables compare (paper Section IV-A).
BACKENDS = ("fp32", "bfp8-mixed", "bfp8-all", "int8-linear", "int8-all", "ibert")


def get_backend(name: str) -> PolicyBackend:
    """The engine for a regime: any :func:`~repro.models.policy.get_policy`
    name (a preset or a width name such as ``bfp4-mixed``)."""
    return PolicyBackend(get_policy(name))


def FP32Backend() -> PolicyBackend:
    """``get_backend("fp32")``, under the name the benchmark harness imports."""
    return get_backend("fp32")


def BFP8MixedBackend() -> PolicyBackend:
    """``get_backend("bfp8-mixed")``, under the name the benchmark harness
    imports."""
    return get_backend("bfp8-mixed")
