"""Sharding plans: tensor- and pipeline-parallel decoder placement.

A :class:`ShardPlan` says how one model replica's forward pass is split
across ``tp * pp`` processing units — ``tp``-way tensor parallelism
inside each of ``pp`` pipeline stages.  The serving dispatcher keeps
scheduling whole batches onto *lanes*; a lane is now a shard group of
``tp * pp`` units instead of a single unit, and the lane-occupancy cycles
of a batch come from :class:`ShardedCostModel`:

* **compute** shrinks by the shard degree (the same Eqn-9 stream schedule,
  divided across units, with a ceil per stage chunk);
* **tensor-parallel comm** adds two ring all-reduces per transformer
  layer over the batch activations (attention output + MLP output — the
  Megatron cut points);
* **pipeline comm** adds the classic fill/drain term: per extra stage,
  one microbatch chunk of compute plus one boundary activation transfer,
  and each of the ``m + pp - 1`` pipeline slots pays the boundary
  transfer once.

Interconnect terms price through
:class:`~repro.cluster.interconnect.InterconnectModel`, with the tier
(intra- vs inter-board) chosen by where the plan's cut points land in the
:class:`~repro.cluster.topology.ClusterSpec` placement.  The model
accumulates its compute/interconnect split so cluster reports can state
the interconnect-cycle share of every replica.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from repro.cluster.interconnect import DEFAULT_INTERCONNECT, InterconnectModel
from repro.errors import ConfigurationError
from repro.serve.batcher import Batch
from repro.serve.dispatcher import CostModel, ServeConfig

__all__ = ["ShardPlan", "ShardedCostModel"]


@dataclass(frozen=True)
class ShardPlan:
    """How one replica splits the model: ``tp``-way tensor parallel inside
    each of ``pp`` pipeline stages (``degree = tp * pp`` units per lane)."""

    tp: int = 1
    pp: int = 1

    def __post_init__(self) -> None:
        if self.tp <= 0 or self.pp <= 0:
            raise ConfigurationError("shard degrees must be positive")

    @property
    def degree(self) -> int:
        return self.tp * self.pp

    def describe(self) -> str:
        return f"tp{self.tp}xpp{self.pp}"


class ShardedCostModel(CostModel):
    """Per-batch lane-occupancy under a shard plan, interconnect included.

    Wraps the single-unit :class:`~repro.serve.dispatcher.CostModel`
    (whose base cycles stay memoized in ``perf.latency``) and applies the
    plan split.  ``tp_cross_board`` / ``pp_cross_boundaries`` come from
    the topology placement: whether tensor-parallel rings span boards,
    and how many of the ``pp - 1`` stage boundaries do.

    Instances are per-replica and accumulate
    ``compute_cycles_total`` / ``interconnect_cycles_total`` over the
    replica's lifetime — the interconnect-cycle share reported per
    replica is exactly their ratio.
    """

    def __init__(
        self,
        cfg: ServeConfig,
        plan: ShardPlan = ShardPlan(),
        *,
        interconnect: InterconnectModel = DEFAULT_INTERCONNECT,
        tp_cross_board: bool = False,
        pp_cross_boundaries: int = 0,
    ) -> None:
        super().__init__(cfg)
        if pp_cross_boundaries > max(plan.pp - 1, 0):
            raise ConfigurationError(
                "more cross-board stage boundaries than stage boundaries"
            )
        self.plan = plan
        self.interconnect = interconnect
        self.tp_cross_board = tp_cross_board
        self.pp_cross_boundaries = pp_cross_boundaries
        self.compute_cycles_total = 0
        self.interconnect_cycles_total = 0

    # -- workload shape ------------------------------------------------------
    def _tokens(self, batch: Batch) -> int:
        """Activation tokens per item crossing a layer boundary."""
        if batch.phase == "vit":
            return self.cfg.profile.vit.n_tokens
        if batch.phase == "prefill":
            return max(batch.context, 1)
        return 1  # decode: one token per step

    def _layers(self, batch: Batch) -> int:
        if batch.phase == "vit":
            return self.cfg.profile.vit.depth
        return self.cfg.profile.depth

    # -- split ---------------------------------------------------------------
    def _split3(self, batch: Batch) -> tuple[int, int, int]:
        """``(compute, allreduce, pp_transfer)`` cycles of one batch.

        The named split feeds request-path tracing (the ``shard_compute``
        / ``allreduce`` / ``pp_transfer`` stages); the parts sum exactly
        to the lane-occupancy :meth:`batch_cycles` charges.
        """
        base = super().batch_cycles(batch)
        plan = self.plan
        if plan.degree == 1:
            return base, 0, 0
        act_bytes = batch.size * self._tokens(batch) * self.cfg.profile.dim * 4
        # Compute: the whole pass divided across the shard group, with the
        # pipeline's fill overhead ((pp-1) microbatch chunks of the first
        # stage run before the pipe is full).
        per_unit = ceil(base / plan.degree)
        micro = max(batch.size, 1)
        compute = per_unit
        allreduce = 0
        pp_transfer = 0
        if plan.pp > 1:
            compute += (plan.pp - 1) * ceil(per_unit / micro)
            # Stage-boundary activation hand-offs: every pipeline slot
            # crosses each boundary once; cross-board boundaries pay the
            # serial-link tier, the rest the on-board tier.
            slot_bytes = ceil(act_bytes / micro)
            slots = micro + plan.pp - 1
            cross = self.pp_cross_boundaries
            intra = (plan.pp - 1) - cross
            pp_transfer = slots * (
                cross * self.interconnect.transfer_cycles(
                    slot_bytes, cross_board=True)
                + intra * self.interconnect.transfer_cycles(
                    slot_bytes, cross_board=False)
            )
        if plan.tp > 1:
            # Two ring all-reduces per layer (attention out + MLP out)
            # over the batch activations each stage holds.
            stage_bytes = ceil(act_bytes / plan.pp)
            allreduce = 2 * self._layers(batch) * self.interconnect.allreduce_cycles(
                stage_bytes, plan.tp, cross_board=self.tp_cross_board
            )
        return compute, allreduce, pp_transfer

    def split_cycles(self, batch: Batch) -> tuple[int, int]:
        """``(compute, interconnect)`` lane-occupancy cycles of one batch."""
        compute, allreduce, pp_transfer = self._split3(batch)
        return compute, allreduce + pp_transfer

    def batch_cycles(self, batch: Batch) -> int:
        compute, allreduce, pp_transfer = self._split3(batch)
        comm = allreduce + pp_transfer
        self.compute_cycles_total += compute
        self.interconnect_cycles_total += comm
        return compute + comm

    def batch_breakdown(self, batch: Batch) -> dict[str, int]:
        """Named stage split of one batch (pure — no accumulation)."""
        compute, allreduce, pp_transfer = self._split3(batch)
        out = {"shard_compute": compute}
        if allreduce:
            out["allreduce"] = allreduce
        if pp_transfer:
            out["pp_transfer"] = pp_transfer
        return out

    @property
    def interconnect_share(self) -> float:
        """Fraction of accumulated lane-occupancy spent on interconnect."""
        total = self.compute_cycles_total + self.interconnect_cycles_total
        return self.interconnect_cycles_total / total if total else 0.0
