"""The one shared batch-job cost model every serving layer derives from.

Serve's ``CostModel``, cluster's ``ShardedCostModel`` and the incident
layer's ``SpikedCostModel`` used to each re-implement the batched-job
cycle lookup.  :class:`PolicyCostModel` is that lookup, once: phase
dispatch, context bucketing, and the memoized lowering through the
compiler (:mod:`repro.perf.latency`) under an optional per-layer
precision policy and :class:`~repro.cost.modes.ModeOptions`.  The layers
above it add exactly their own concern — batching (serve), sharding and
interconnect (cluster), fault injection (incidents).

The profile is duck-typed (``vit``/``vocab``/``dim``/``depth``/
``n_heads``/``context``/``mlp_ratio`` attributes) so this module never
imports the serving stack; ``repro.serve`` imports it, not the reverse.
"""

from __future__ import annotations

from math import ceil

from repro.cost.modes import ModeOptions
from repro.perf.memory import DEFAULT_MEMORY, MemoryModel
from repro.perf.throughput import DEFAULT_CLOCK, ClockConfig

__all__ = ["PolicyCostModel"]


class PolicyCostModel:
    """Cycle cost of one batched forward-pass job on one unit.

    Context buckets keep the compile cache small without distorting the
    cost materially: one bucket spans less than a block row of streams.

    :meth:`job_cycles` memoizes per instance on the raw ``(phase, batch,
    context)``: a hit skips the bucketing and the hashing of the
    ``perf.latency`` memo's key (profile, clock, memory and policy
    fields), which the dispatcher would otherwise pay on every batch.
    """

    DECODE_BUCKET = 16
    PREFILL_BUCKET = 8

    def __init__(
        self,
        profile,
        *,
        clock: ClockConfig = DEFAULT_CLOCK,
        mem: MemoryModel = DEFAULT_MEMORY,
        precision=None,
        modes: ModeOptions | None = None,
    ) -> None:
        self.profile = profile
        self.clock = clock
        self.mem = mem
        self.precision = precision
        self.modes = modes
        self._jobs: dict[tuple[str, int, int], int] = {}

    def bucket_context(self, phase: str, context: int) -> int:
        """The context bucket a job's compile is keyed under."""
        bucket = self.DECODE_BUCKET if phase == "decode" else self.PREFILL_BUCKET
        return min(
            max(ceil(context / bucket), 1) * bucket,
            max(self.profile.context, bucket),
        )

    def vit_cycles(self, batch: int) -> int:
        # Lazy: perf.latency imports the mode registry from this package,
        # so the memoized lookups resolve at call time, not import time.
        from repro.perf.latency import vit_batch_unit_cycles

        return vit_batch_unit_cycles(
            self.profile.vit, batch, mem=self.mem, clock=self.clock,
            policy=self.precision, modes=self.modes,
        )

    def decoder_cycles(self, phase: str, batch: int, context: int) -> int:
        from repro.perf.latency import decoder_batch_unit_cycles

        p = self.profile
        return decoder_batch_unit_cycles(
            phase, batch, self.bucket_context(phase, context),
            vocab=p.vocab, dim=p.dim, depth=p.depth, n_heads=p.n_heads,
            mlp_ratio=p.mlp_ratio, mem=self.mem, clock=self.clock,
            policy=self.precision, modes=self.modes,
        )

    def job_cycles(self, phase: str, batch: int, context: int = 0) -> int:
        """Unit-occupancy cycles of one dispatched (phase, batch, ctx) job."""
        key = (phase, batch, context)
        cycles = self._jobs.get(key)
        if cycles is None:
            cycles = self._jobs[key] = (
                self.vit_cycles(batch) if phase == "vit"
                else self.decoder_cycles(phase, batch, context))
        return cycles
