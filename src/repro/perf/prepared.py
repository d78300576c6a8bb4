"""Prepared-operand cache: quantize an operand once, reuse it every matmul.

The modeled accelerator is Y-stationary (paper Section III): a weight
matrix is quantized to block floating point *once* and kept resident in
the processing units' Y BRAM buffers; every stream of activations reuses
the resident blocks.  The functional emulation, by contrast, used to
re-run block quantization on **both** operands of every matmul — so a
KV-cache decode step paid O(d^2) weight-quantization work for O(d)
useful row work, exactly the cost the hardware never pays.

:class:`PreparedOperandCache` closes that gap.  It memoizes the quantized
form of an operand — a :class:`~repro.arith.bfp_matmul.BfpWeight` (block
encoding plus its matmul-ready flat layout) for the block-fp formats, an
:class:`~repro.formats.int8q.Int8Tensor` for the integer formats, a
grid-snapped float32 array for the half/minifloat formats — keyed by the
full format id from the format registry (``bfp8``, ``int6``,
``fp8-e4m3``, ...) plus any residual parameters (rounding mode), crossed
with a content fingerprint of the source array.  The fingerprint makes
in-place mutation safe: updating a weight changes its digest, so the
next lookup re-quantizes instead of serving stale data (an
array-identity memo skips re-hashing only while the same array object
provably cannot have changed).  Cached payload arrays are marked
read-only so a consumer cannot corrupt the cache through a served
reference.

Hits, misses, evictions and resident bytes are published to the process
:class:`~repro.obs.metrics.MetricsRegistry` under ``prepared.cache.*``;
the compute backends additionally attribute quantization work they
actually perform to a ``quantize`` bucket in the attached
:class:`~repro.obs.profile.Profiler`.

A cache built with ``capacity=0`` never stores anything — every lookup
is a miss that quantizes fresh.  That is the uncached baseline the
kernel microbenchmarks compare against (``benchmarks/bench_kernels.py``).
"""

from __future__ import annotations

import hashlib
import weakref
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.obs.metrics import get_registry
from repro.obs.numerics import get_monitor

if TYPE_CHECKING:  # pragma: no cover
    from repro.arith.bfp_matmul import BfpWeight
    from repro.formats.int8q import Int8Tensor

__all__ = [
    "PreparedTensor",
    "PreparedOperandCache",
    "content_fingerprint",
    "get_cache",
    "set_cache",
]

_METRIC_PREFIX = "prepared.cache"


def _raw_bytes(arr: np.ndarray) -> memoryview:
    a = np.ascontiguousarray(arr)
    return memoryview(a).cast("B")


def content_fingerprint(arr: np.ndarray) -> str:
    """Digest of an array's dtype, shape and raw bytes (blake2b-128).

    O(n) in the array size, but a single streaming pass — 1-2 orders of
    magnitude cheaper than block quantization, which is what a cache hit
    replaces.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(str(arr.dtype).encode())
    h.update(str(arr.shape).encode())
    h.update(_raw_bytes(arr))
    return h.hexdigest()


def _checksum(arr: np.ndarray) -> int:
    """Fast CRC32 over the array bytes — the identity memo's revalidator.

    Several times cheaper than the blake2b digest; it still reads every
    byte, so any in-place edit of a memoized array is caught (CRC32
    guarantees detection of contiguous edits, which is what weight
    updates and the invalidation tests perform)."""
    return zlib.crc32(_raw_bytes(arr))


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
    fingerprint: str
    nbytes: int


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        try:
            a.flags.writeable = False
        except ValueError:  # a view whose base we do not own
            pass


class PreparedOperandCache:
    """LRU cache of prepared (quantized) operands.

    Entries are keyed by ``(format_id, params, fingerprint)`` so arrays
    with identical content share one prepared form regardless of object
    identity — and two formats (or two widths of one family) never serve
    each other's payloads.  An identity memo (``id`` -> weak ref + checksum + digest)
    lets lookups of an unchanged array skip the blake2b content hash: a
    read-only array is trusted outright, a writable one is revalidated
    with a fast CRC32 over its bytes — every byte is still read on every
    lookup, which is what detects in-place mutation.
    """

    def __init__(self, *, capacity: int = 256) -> None:
        self.capacity = int(capacity)
        self._entries: OrderedDict[tuple, PreparedTensor] = OrderedDict()
        self._ids: dict[int, tuple[weakref.ref, int, str]] = {}
        self._bytes = 0
        #: bumped by clear(); consumers that hold prepared handles across
        #: calls (compiled decode plans) key their validity on it.
        self.generation = 0

    # -- internals -----------------------------------------------------------
    def _fingerprint(self, arr: np.ndarray) -> str:
        memo = self._ids.get(id(arr))
        if memo is not None:
            ref, crc, digest = memo
            if ref() is arr:
                if not arr.flags.writeable or _checksum(arr) == crc:
                    return digest
        digest = content_fingerprint(arr)
        if len(self._ids) > 4 * self.capacity + 1024:
            self._ids = {
                k: v for k, v in self._ids.items() if v[0]() is not None
            }
        try:
            self._ids[id(arr)] = (weakref.ref(arr), _checksum(arr), digest)
        except TypeError:  # pragma: no cover - non-weakrefable subclass
            pass
        return digest

    def _publish(self) -> None:
        reg = get_registry()
        reg.gauge(f"{_METRIC_PREFIX}.bytes").set(float(self._bytes))
        reg.gauge(f"{_METRIC_PREFIX}.entries").set(float(len(self._entries)))

    def _evict_to_capacity(self) -> None:
        reg = get_registry()
        while len(self._entries) > self.capacity:
            _, old = self._entries.popitem(last=False)
            self._bytes -= old.nbytes
            reg.counter(f"{_METRIC_PREFIX}.evictions").inc()

    def prepare(
        self,
        arr: np.ndarray,
        fmt: str,
        params: tuple,
        build: Callable[[np.ndarray], tuple[object, int]],
    ) -> tuple[PreparedTensor, bool]:
        """Look up or build the prepared form of ``arr``.

        ``build`` maps the dense array to ``(payload, payload_nbytes)``;
        it only runs on a miss.  Returns ``(prepared, hit)``.
        """
        arr = np.asarray(arr)
        reg = get_registry()
        digest = self._fingerprint(arr)
        key = (fmt, params, digest)
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            reg.counter(f"{_METRIC_PREFIX}.hits").inc()
            return cached, True
        reg.counter(f"{_METRIC_PREFIX}.misses").inc()
        payload, nbytes = build(arr)
        prepared = PreparedTensor(
            fmt=fmt,
            params=params,
            payload=payload,
            shape=tuple(arr.shape),
            fingerprint=digest,
            nbytes=int(nbytes),
        )
        if self.capacity > 0:
            self._entries[key] = prepared
            self._bytes += prepared.nbytes
            self._evict_to_capacity()
        self._publish()
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
        well as the quantization; ``nbytes`` counts those codes and their
        exponents."""
        from repro.arith.bfp_matmul import BfpWeight

        def build(a: np.ndarray) -> tuple["BfpWeight", int]:
            bw = BfpWeight.from_dense(a, man_bits=man_bits, rounding=rounding)
            mon = get_monitor()
            if mon.enabled:
                # Build runs only on a miss — weights are observed exactly
                # once per residency, matching quantize-once semantics.
                mon.observe_bfp("weight", a, bw.matrix, man_bits=man_bits)
            _freeze(bw.man, bw.exp)
            return bw, bw.man.nbytes + bw.exp.nbytes

        return self.prepare(arr, f"bfp{man_bits}", (rounding,), build)

    def prepare_int(
        self, arr: np.ndarray, *, bits: int = 8
    ) -> tuple[PreparedTensor, bool]:
        """Prepared :class:`Int8Tensor` encoding of a dense tensor."""
        from repro.formats.int8q import quantize_intn

        def build(a: np.ndarray) -> tuple["Int8Tensor", int]:
            q = quantize_intn(np.asarray(a, dtype=np.float64), bits)
            mon = get_monitor()
            if mon.enabled:
                mon.observe_int("weight", a, q, bits=bits)
            _freeze(q.values)
            return q, q.values.nbytes + 8  # values + the float scale

        return self.prepare(arr, f"int{bits}", (), build)

    def prepare_half(self, arr: np.ndarray, *, fmt) -> tuple[PreparedTensor, bool]:
        """Prepared half/minifloat encoding: the grid-snapped float32 array.

        ``fmt`` is a :class:`~repro.formats.halfprec.HalfFormat`; the
        stored payload carries one byte per mantissa/exponent/sign field
        pair in the modeled hardware, but the emulation keeps the decoded
        float32 values (4 bytes each) since that is what the matmul
        kernel consumes."""
        from repro.formats.halfprec import quantize_half

        def build(a: np.ndarray) -> tuple[np.ndarray, int]:
            # Build runs only on a miss — the observe tap inside
            # quantize_half fires exactly once per weight residency.
            q = quantize_half(np.asarray(a, dtype=np.float32), fmt, role="weight")
            _freeze(q)
            return q, q.nbytes

        return self.prepare(arr, fmt.name, (fmt.exp_bits, fmt.man_bits), build)

    # -- bookkeeping ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        return self._bytes

    def clear(self) -> None:
        self._entries.clear()
        self._ids.clear()
        self._bytes = 0
        self.generation += 1
        self._publish()


_default_cache = PreparedOperandCache()


def get_cache() -> PreparedOperandCache:
    """The process-wide prepared-operand cache the backends share."""
    return _default_cache


def set_cache(cache: PreparedOperandCache) -> PreparedOperandCache:
    """Swap the process-wide cache; returns the previous one.

    Installing ``PreparedOperandCache(capacity=0)`` disables reuse — the
    uncached baseline for benchmarking and for differential tests."""
    global _default_cache
    previous = _default_cache
    _default_cache = cache
    return previous
