"""The one batch-job cost lookup every serving layer derives from.

:class:`PolicyCostModel` prices one ``(phase, batch, context)`` job on
one unit: phase dispatch, context bucketing, and the memoized lowering
through the compiler (:mod:`repro.perf.latency`) under an optional
per-layer precision policy and :class:`~repro.cost.modes.ModeOptions`.
The serving pricer, :class:`~repro.cluster.sharding.ShardedCostModel`,
adds sharding, interconnect and fault injection on top of it.

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

    def bucket_context(self, phase: str, context: int) -> int:
        """The context bucket a job's compile is keyed under."""
        bucket = self.DECODE_BUCKET if phase == "decode" else self.PREFILL_BUCKET
        return min(
            max(ceil(context / bucket), 1) * bucket,
            max(self.profile.context, bucket),
        )

    def job_cycles(self, phase: str, batch: int, context: int = 0) -> int:
        """Unit-occupancy cycles of one dispatched (phase, batch, ctx) job."""
        # Lazy: perf.latency imports the mode registry from this package,
        # so the memoized lookups resolve at call time, not import time.
        from repro.perf.latency import (
            decoder_batch_unit_cycles,
            vit_batch_unit_cycles,
        )

        p = self.profile
        if phase == "vit":
            return vit_batch_unit_cycles(
                p.vit, batch, mem=self.mem, clock=self.clock,
                policy=self.precision, modes=self.modes,
            )
        return decoder_batch_unit_cycles(
            phase, batch, self.bucket_context(phase, context),
            vocab=p.vocab, dim=p.dim, depth=p.depth, n_heads=p.n_heads,
            mlp_ratio=p.mlp_ratio, mem=self.mem, clock=self.clock,
            policy=self.precision, modes=self.modes,
        )
