"""Prepared-operand cache: quantize a weight once, reuse it every matmul.

The modeled accelerator is Y-stationary (paper Section III): a weight
matrix is quantized to block floating point *once* and kept resident in
the processing units' Y BRAM buffers; every stream of activations reuses
the resident blocks.  The functional emulation, by contrast, used to
re-run block quantization on **both** operands of every matmul — so a
KV-cache decode step paid O(d^2) weight-quantization work for O(d)
useful row work, exactly the cost the hardware never pays.

:class:`PreparedOperandCache` closes that gap without knowing any number
format.  It memoizes whatever payload a caller's ``build`` makes of a
weight, keyed by the caller's ``key`` and the identity of the source
array.  The formats of :mod:`repro.formats.registry` are its callers:
each passes its weight key (``bfp8``, ``int6``, ``fp8-e4m3``, ...) and
its one weight build, so the quantization, the payload's layout and the
numerics-monitor tap all live with the format.  A hit needs the very
array object the entry was built from: the entry's weak reference must
still resolve to it, and its callback drops the entry when the array is
collected.

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
from typing import Callable

import numpy as np

from repro.obs.metrics import get_registry

__all__ = ["PreparedTensor", "PreparedOperandCache", "get_cache"]

_METRIC_PREFIX = "prepared.cache"


@dataclass(frozen=True)
class PreparedTensor:
    """A quantized operand ready for repeated matmul use.

    ``payload`` is the format's quantized form (``BfpWeight``,
    ``Int8Tensor``, grid-snapped float32 array) with its arrays frozen
    read-only; ``shape`` is the source matrix shape, so a prepared weight
    can stand in for the dense array wherever only the shape is consulted
    (op statistics, profiler).
    """

    payload: object
    shape: tuple[int, ...]


def _freeze(payload: object) -> None:
    """Mark the payload's arrays read-only: the payload itself when it is
    an array, else every array among its fields."""
    fields = (payload,) if isinstance(payload, np.ndarray) else vars(payload).values()
    for a in fields:
        if isinstance(a, np.ndarray):
            a.flags.writeable = False


class PreparedOperandCache:
    """Prepared (quantized) weights, keyed by caller key and array identity.

    Entries are keyed by ``(key, id(array))``, so two formats (or two
    widths of one family) never serve each other's payloads, and each
    holds a weak reference to its source array: a lookup hits only while
    that reference resolves to the array passed in, and the entry is
    dropped when the array is collected.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, tuple[weakref.ref, PreparedTensor]] = {}
        #: bumped by clear(); consumers that hold prepared handles across
        #: calls (compiled decode plans) key their validity on it.
        self.generation = 0

    def prepare(
        self,
        arr: np.ndarray,
        key: str,
        build: Callable[[np.ndarray], object],
    ) -> tuple[PreparedTensor, bool]:
        """Look up or build the prepared form of ``arr`` under ``key``.

        ``build`` maps the dense array to its payload; it only runs on a
        miss.  Returns ``(prepared, hit)``.
        """
        arr = np.asarray(arr)
        reg = get_registry()
        entry_key = (key, id(arr))
        entry = self._entries.get(entry_key)
        if entry is not None and entry[0]() is arr:
            reg.counter(f"{_METRIC_PREFIX}.hits").inc()
            return entry[1], True
        reg.counter(f"{_METRIC_PREFIX}.misses").inc()
        payload = build(arr)
        _freeze(payload)
        prepared = PreparedTensor(payload, tuple(arr.shape))
        # CPython runs the callback as ``arr`` is freed, before its id
        # can be reused, so it only ever drops this entry.
        ref = weakref.ref(
            arr, lambda _, k=entry_key: self._entries.pop(k, None)
        )
        self._entries[entry_key] = (ref, prepared)
        return prepared, False

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
