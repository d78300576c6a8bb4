"""Dynamic batcher: coalesce compatible phase items under a wait window.

Items are only coalesced within a *batch class* — work that can share one
unit-occupancy job:

* ``("vit", None)`` — image classifications (any unit can take them);
* ``("prefill", None)`` — prompt prefills (any unit with a free session
  slot; the batch pins the sessions to the chosen unit);
* ``("decode", u)`` — decode steps of sessions resident on unit ``u``
  (KV-cache affinity: only unit ``u`` may run them).

A class's batch *closes* (becomes dispatchable) when it reaches
``max_batch`` items or its oldest item has waited ``max_wait_us``.  The
window is the classic latency/throughput knob: 0 degenerates to
dispatch-what-is-queued, large windows trade first-token latency for
stream efficiency (Eqn 9 via ``batched_bfp_efficiency``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter

from repro.errors import ConfigurationError
from repro.perf.throughput import DEFAULT_CLOCK, ClockConfig
from repro.serve.request import PHASES, PhaseItem

__all__ = ["BatchPolicy", "Batch", "DynamicBatcher"]

ClassKey = tuple[str, int | None]
VIT: ClassKey = ("vit", None)
PREFILL: ClassKey = ("prefill", None)


@dataclass(frozen=True)
class BatchPolicy:
    """Coalescing limits of the dynamic batcher.

    ``max_batch`` governs decode and prefill.  ViT gets its own cap,
    default 1: a 197-token image is already a wide matmul (N_X ~ 25 block
    rows in Eqn 9), so batching gains ~1.0x per item while serializing
    completions behind a multi-second unit occupancy.  Decode is the
    N_X = 1 worst case and gains ~4.5x per item at batch 8 — batching is
    a *decode* economics story on this hardware.
    """

    max_batch: int = 8
    max_wait_us: float = 200.0
    vit_max_batch: int = 1

    def __post_init__(self) -> None:
        if self.max_batch <= 0 or self.vit_max_batch <= 0:
            raise ConfigurationError("batch limits must be positive")
        if self.max_wait_us < 0:
            raise ConfigurationError("max_wait_us cannot be negative")

    def batch_limit(self, phase: str) -> int:
        return self.vit_max_batch if phase == "vit" else self.max_batch

    def max_wait_cycles(self, clock: ClockConfig = DEFAULT_CLOCK) -> int:
        return int(round(self.max_wait_us * 1e-6 * clock.freq_hz))


_CONTEXT = attrgetter("context")


@dataclass(slots=True)
class Batch:
    """A closed batch: one unit-occupancy job's worth of phase items.

    ``size`` and ``context`` are set once, at construction: the pricer,
    the ledger, the metrics and the trace writers all read them, and a
    closed batch never gains or loses an item.
    """

    phase: str
    items: list[PhaseItem]
    formed_at: int
    unit: int | None = None  # decode affinity pin
    size: int = field(init=False)
    #: Cost-model context: the worst (longest) item in the batch.
    context: int = field(init=False)

    def __post_init__(self) -> None:
        self.size = len(self.items)
        self.context = max(map(_CONTEXT, self.items), default=0)


class DynamicBatcher:
    """FIFO per-class queues with size/window batch closing."""

    def __init__(
        self,
        policy: BatchPolicy = BatchPolicy(),
        clock: ClockConfig = DEFAULT_CLOCK,
    ) -> None:
        self.policy = policy
        self._wait = policy.max_wait_cycles(clock)
        self._limit = {phase: policy.batch_limit(phase) for phase in PHASES}
        #: Per-class FIFO queues.  ``add`` creates a class's queue and
        #: ``_pop`` deletes it when it empties, so none is ever empty.
        self._queues: dict[ClassKey, deque[PhaseItem]] = {}
        self._count = 0  # items over all queues, kept by add/_pop
        #: Units with a non-empty decode queue, kept by add/_pop: the
        #: only units a pinned batch can dispatch to.
        self.decode_units: set[int] = set()

    # -- intake --------------------------------------------------------------
    def add(self, item: PhaseItem) -> None:
        phase = item.phase
        if phase == "decode":
            if item.unit is None:
                raise ConfigurationError("decode items must carry a unit pin")
            self.decode_units.add(item.unit)
            key: ClassKey = (phase, item.unit)
        else:
            key = (phase, None)
        q = self._queues.get(key)
        if q is None:
            self._queues[key] = deque((item,))
        else:
            q.append(item)
        self._count += 1

    def depth(self) -> int:
        """Total queued items, O(1): the admission/routing pressure signal."""
        return self._count

    def empty(self) -> bool:
        return not self._count

    # -- batch closing -------------------------------------------------------
    def _ready(self, key: ClassKey, now: int) -> bool:
        q = self._queues.get(key)
        if not q:
            return False
        return len(q) >= self._limit[key[0]] or now - q[0].ready >= self._wait

    def global_ready(self, now: int) -> bool:
        """Whether a vit or prefill batch is ready at ``now``.

        Without one, only a unit in :attr:`decode_units` can get a batch
        from :meth:`pop_ready`.
        """
        queues = self._queues
        return (VIT in queues and self._ready(VIT, now)
                or PREFILL in queues and self._ready(PREFILL, now))

    def _pop(self, key: ClassKey, now: int, limit: int | None = None) -> Batch:
        q = self._queues[key]
        phase, unit = key
        take = self._limit[phase]
        if limit is not None and limit < take:
            take = limit
        if take >= len(q):  # the batch empties the queue: take all of it
            items = list(q)
            del self._queues[key]
            if phase == "decode":
                self.decode_units.discard(unit)
        else:
            items = [q.popleft() for _ in range(take)]
        self._count -= len(items)
        return Batch(phase, items, now, unit)

    def pop_ready(
        self,
        now: int,
        unit: int,
        *,
        prefill_slots: int | None = None,
        decode_sessions: int | None = None,
    ) -> Batch | None:
        """The batch unit ``unit`` should run now, or None to stay idle.

        Decode work pinned to this unit has priority (it holds live KV and
        is per-token latency-critical); otherwise the global class whose
        head item has waited longest wins.  ``prefill_slots`` caps a
        prefill batch to the unit's free session slots — 0 suppresses
        prefill entirely (KV backpressure).

        ``decode_sessions`` is the unit's resident session count: once
        that many decode items are queued, only a *new* prefill landing on
        this unit could grow the batch (each resident session has at most
        one outstanding step).  So when the session slots are full, or no
        prefill is queued anywhere, waiting out the window would be pure
        added latency and the batch closes early.  While prefills are
        still pending and admissible the window runs — it is the pacing
        that lets residency (and with it decode batch size) build up.
        """
        decode_key: ClassKey = ("decode", unit)
        dq = self._queues.get(decode_key)
        if dq:
            at_residency = (
                decode_sessions is not None and len(dq) >= decode_sessions
            )
            slots_full = prefill_slots is not None and prefill_slots <= 0
            prefill_pending = PREFILL in self._queues
            if self._ready(decode_key, now) or (
                at_residency and (slots_full or not prefill_pending)
            ):
                return self._pop(decode_key, now)
        candidates: list[tuple[int, ClassKey, int | None]] = []
        for key in (VIT, PREFILL):
            limit = None
            if key[0] == "prefill":
                if prefill_slots is not None and prefill_slots <= 0:
                    continue
                limit = prefill_slots
            if key in self._queues and self._ready(key, now):
                candidates.append((self._queues[key][0].ready, key, limit))
        if not candidates:
            return None
        _, key, limit = min(candidates)
        return self._pop(key, now, limit)

    def next_expiry(self, after: int | None = None) -> int | None:
        """Earliest time any queued class's wait window closes.

        With ``after``, only windows closing strictly later count: an
        already-expired class needs a dispatch opportunity (a unit or a
        session slot freeing up), not a timer — without the filter its
        stale expiry would mask the next real one.
        """
        best = None
        for q in self._queues.values():
            e = q[0].ready + self._wait
            if (after is None or e > after) and (best is None or e < best):
                best = e
        return best
