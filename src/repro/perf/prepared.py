"""Prepared-operand cache: quantize a weight once, reuse it every matmul.

The modeled accelerator is Y-stationary (paper Section III): a weight
matrix is quantized to block floating point *once* and kept resident in
the processing units' Y BRAM buffers; every stream of activations reuses
the resident blocks.  The functional emulation, by contrast, used to
re-run block quantization on **both** operands of every matmul — so a
KV-cache decode step paid O(d^2) weight-quantization work for O(d)
useful row work, exactly the cost the hardware never pays.

:class:`PreparedOperandCache` closes that gap.  It memoizes the quantized
form of a weight — a :class:`~repro.arith.bfp_matmul.BfpWeight` (block
encoding plus its matmul-ready flat layout) for the block-fp formats, an
:class:`~repro.formats.int8q.Int8Tensor` for the integer formats, a
grid-snapped float32 array for the half/minifloat formats — keyed by the
full format id from the format registry (``bfp8``, ``int6``,
``fp8-e4m3``, ...), any residual parameters (rounding mode) and the
identity of the source array.  A hit needs the very array object the
entry was built from: the entry's weak reference must still resolve to
it, and its callback drops the entry when the array is collected.

A lookup never reads the weight's bytes, so the cache cannot see an
in-place edit.  As with the accelerator's ``update_A`` flag, the writer
says when a resident operand changed: code that writes weights in place
calls :meth:`PreparedOperandCache.clear` afterwards.  The library's two
in-place writers, :meth:`repro.models.training.Adam.step` and
:func:`repro.models.serialization.load_state_dict`, do; replacing an
array (``lin.params["w"] = new``) needs nothing, since the new object
misses.  ``clear()`` also bumps :attr:`~PreparedOperandCache.generation`,
which compiled decode plans key on.  Cached payload arrays are marked
read-only so a consumer cannot corrupt the cache through a served
reference.

Hits and misses are counted in the process
:class:`~repro.obs.metrics.MetricsRegistry` under ``prepared.cache.*``;
the compute backends additionally attribute quantization work they
actually perform to a ``quantize`` bucket in the attached
:class:`~repro.obs.profile.Profiler`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.obs.metrics import get_registry
from repro.obs.numerics import get_monitor

if TYPE_CHECKING:  # pragma: no cover
    from repro.arith.bfp_matmul import BfpWeight
    from repro.formats.int8q import Int8Tensor

__all__ = ["PreparedTensor", "PreparedOperandCache", "get_cache"]

_METRIC_PREFIX = "prepared.cache"


@dataclass(frozen=True)
class PreparedTensor:
    """A quantized operand ready for repeated matmul use.

    ``payload`` is the format-specific quantized form (``BfpWeight``,
    ``Int8Tensor``, grid-snapped float32 array) with its arrays frozen
    read-only; ``shape`` is the source matrix shape, so a prepared weight
    can stand in for the dense array wherever only the shape is consulted
    (op statistics, profiler).
    """

    fmt: str  # registry format id: "bfp8" | "int8" | "fp8-e4m3" | ...
    params: tuple
    payload: object
    shape: tuple[int, ...]


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        try:
            a.flags.writeable = False
        except ValueError:  # a view whose base we do not own
            pass


class PreparedOperandCache:
    """Prepared (quantized) weights, keyed by format and array identity.

    Entries are keyed by ``(format_id, params, id(array))``, so two
    formats (or two widths of one family) never serve each other's
    payloads, and each holds a weak reference to its source array: a
    lookup hits only while that reference resolves to the array passed
    in, and the entry is dropped when the array is collected.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, tuple[weakref.ref, PreparedTensor]] = {}
        #: bumped by clear(); consumers that hold prepared handles across
        #: calls (compiled decode plans) key their validity on it.
        self.generation = 0

    def prepare(
        self,
        arr: np.ndarray,
        fmt: str,
        params: tuple,
        build: Callable[[np.ndarray], object],
    ) -> tuple[PreparedTensor, bool]:
        """Look up or build the prepared form of ``arr``.

        ``build`` maps the dense array to its payload; it only runs on a
        miss.  Returns ``(prepared, hit)``.
        """
        arr = np.asarray(arr)
        reg = get_registry()
        key = (fmt, params, id(arr))
        entry = self._entries.get(key)
        if entry is not None and entry[0]() is arr:
            reg.counter(f"{_METRIC_PREFIX}.hits").inc()
            return entry[1], True
        reg.counter(f"{_METRIC_PREFIX}.misses").inc()
        prepared = PreparedTensor(fmt, params, build(arr), tuple(arr.shape))
        # CPython runs the callback as ``arr`` is freed, before its id
        # can be reused, so it only ever drops this entry.
        ref = weakref.ref(arr, lambda _, key=key: self._entries.pop(key, None))
        self._entries[key] = (ref, prepared)
        return prepared, False

    # -- format-specific entry points ---------------------------------------
    def prepare_bfp(
        self,
        arr: np.ndarray,
        *,
        man_bits: int = 8,
        rounding: str = "nearest_even",
    ) -> tuple[PreparedTensor, bool]:
        """Prepared :class:`BfpWeight` encoding of a dense matrix.

        The payload holds the codes once, in the kernel's matmul-ready
        float32 layout, so a cache hit skips the per-call re-layout as
        well as the quantization."""
        from repro.arith.bfp_matmul import BfpWeight

        def build(a: np.ndarray) -> "BfpWeight":
            bw = BfpWeight.from_dense(a, man_bits=man_bits, rounding=rounding)
            mon = get_monitor()
            if mon.enabled:
                # Build runs only on a miss — weights are observed exactly
                # once per residency, matching quantize-once semantics.
                mon.observe_bfp("weight", a, bw.matrix, man_bits=man_bits)
            _freeze(bw.man, bw.exp)
            return bw

        return self.prepare(arr, f"bfp{man_bits}", (rounding,), build)

    def prepare_int(
        self, arr: np.ndarray, *, bits: int = 8
    ) -> tuple[PreparedTensor, bool]:
        """Prepared :class:`Int8Tensor` encoding of a dense tensor."""
        from repro.formats.int8q import quantize_intn

        def build(a: np.ndarray) -> "Int8Tensor":
            q = quantize_intn(np.asarray(a, dtype=np.float64), bits)
            mon = get_monitor()
            if mon.enabled:
                mon.observe_int("weight", a, q, bits=bits)
            _freeze(q.values)
            return q

        return self.prepare(arr, f"int{bits}", (), build)

    def prepare_half(self, arr: np.ndarray, *, fmt) -> tuple[PreparedTensor, bool]:
        """Prepared half/minifloat encoding: the grid-snapped float32 array.

        ``fmt`` is a :class:`~repro.formats.halfprec.HalfFormat`; the
        emulation keeps the decoded float32 values since that is what the
        matmul kernel consumes."""
        from repro.formats.halfprec import quantize_half

        def build(a: np.ndarray) -> np.ndarray:
            # Build runs only on a miss — the observe tap inside
            # quantize_half fires exactly once per weight residency.
            q = quantize_half(np.asarray(a, dtype=np.float32), fmt, role="weight")
            _freeze(q)
            return q

        return self.prepare(arr, fmt.name, (fmt.exp_bits, fmt.man_bits), build)

    # -- bookkeeping ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry: call after writing weights in place."""
        self._entries.clear()
        self.generation += 1


_default_cache = PreparedOperandCache()


def get_cache() -> PreparedOperandCache:
    """The process-wide prepared-operand cache the backends share."""
    return _default_cache
