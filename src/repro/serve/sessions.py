"""Decoder session state: KV-cache residency and unit affinity.

A prefill allocates a *session* on the unit that runs it: the KV cache is
written into that unit's HBM region, so every subsequent decode step of
the request must execute there (migrating KV across units is not modeled
— the paper's units have private AXI channels).  The table bounds live
sessions per unit (KV capacity) and accounts resident KV bytes, which is
the backpressure signal that throttles new prefills.

The cost-level table mirrors the *functional* path: a batch of resident
sessions stepping together is exactly
:meth:`repro.models.decoder.TinyLM.forward_step_batch`, which shares one
weight pass across the batch — the same amortization the cost model
charges via ``compile_decoder(batch=B, phase="decode")``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, InvariantError
from repro.serve.request import PhaseItem, Request

__all__ = ["Session", "SessionTable"]


@dataclass
class Session:
    """One resident generation: KV cache on a unit, tokens still owed."""

    rid: int
    unit: int
    context: int  # current KV length, tokens
    remaining: int  # decode steps still to run
    request: Request

    def kv_bytes(self, bytes_per_token: int) -> int:
        return self.context * bytes_per_token


class SessionTable:
    """Per-unit session residency with bounded capacity."""

    def __init__(
        self,
        n_units: int,
        *,
        max_sessions_per_unit: int = 8,
        kv_bytes_per_token: int = 4096,
    ) -> None:
        if max_sessions_per_unit <= 0:
            raise ConfigurationError("need at least one session slot per unit")
        self.max_sessions_per_unit = max_sessions_per_unit
        self.kv_bytes_per_token = kv_bytes_per_token
        self._by_unit: dict[int, dict[int, Session]] = {u: {} for u in range(n_units)}
        self._by_rid: dict[int, Session] = {}
        #: Resident KV tokens over every unit, kept by open/step.
        self.kv_tokens = 0
        #: Largest resident KV over every unit, sampled when a session
        #: opens (growth from decode steps between opens is not seen).
        self.peak_kv_bytes = 0

    # -- capacity ------------------------------------------------------------
    def free_slots(self, unit: int) -> int:
        return self.max_sessions_per_unit - len(self._by_unit[unit])

    def active(self, unit: int | None = None) -> int:
        if unit is not None:
            return len(self._by_unit[unit])
        return len(self._by_rid)

    def kv_bytes(self, unit: int) -> int:
        return sum(
            s.kv_bytes(self.kv_bytes_per_token) for s in self._by_unit[unit].values()
        )

    # -- lifecycle -----------------------------------------------------------
    def open(self, request: Request, unit: int) -> Session:
        """Pin a new session to ``unit`` (called when its prefill dispatches)."""
        if request.rid in self._by_rid:
            raise ConfigurationError(f"request {request.rid} already has a session")
        if self.free_slots(unit) <= 0:
            raise ConfigurationError(f"unit {unit} has no free session slot")
        s = Session(request.rid, unit, request.prompt_tokens,
                    request.gen_tokens, request)
        self._by_unit[unit][request.rid] = s
        self._by_rid[request.rid] = s
        self.kv_tokens += s.context
        self.peak_kv_bytes = max(self.peak_kv_bytes,
                                 self.kv_tokens * self.kv_bytes_per_token)
        return s

    def first_decode_item(self, rid: int, now: int) -> PhaseItem:
        """The decode step that becomes ready when the prefill finishes."""
        s = self._by_rid[rid]
        return PhaseItem(s.request, "decode", ready=now, step=0,
                         context=s.context, unit=s.unit)

    def step(self, rid: int, now: int) -> PhaseItem | None:
        """Advance a session one generated token.

        Returns the next decode :class:`PhaseItem` (ready at ``now``,
        pinned to the session's unit), or ``None`` when the generation is
        complete — the session is then evicted and its KV freed.  Raises
        :class:`~repro.errors.InvariantError` if freeing it would leave
        fewer than zero KV tokens resident.
        """
        s = self._by_rid[rid]
        s.context += 1
        s.remaining -= 1
        self.kv_tokens += 1
        if s.remaining <= 0:
            if s.context > self.kv_tokens:
                raise InvariantError(
                    f"unit {s.unit}: closing request {rid} frees {s.context} "
                    f"KV tokens, but only {self.kv_tokens} are resident")
            del self._by_unit[s.unit][rid]
            del self._by_rid[rid]
            self.kv_tokens -= s.context
            return None
        step = s.request.gen_tokens - s.remaining
        return PhaseItem(s.request, "decode", ready=now, step=step,
                         context=s.context, unit=s.unit)
