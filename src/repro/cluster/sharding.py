"""Sharding plans: tensor- and pipeline-parallel decoder placement.

A :class:`ShardPlan` says how one model replica's forward pass is split
across ``tp * pp`` processing units — ``tp``-way tensor parallelism
inside each of ``pp`` pipeline stages.  The serving dispatcher schedules
whole batches onto *lanes*; a lane is a shard group of ``tp * pp`` units
(one unit under the single-pool plan), and :class:`ShardedCostModel` is
the one object that prices a dispatched batch's lane occupancy:

* **compute** shrinks by the shard degree (the same Eqn-9 stream schedule,
  divided across units, with a ceil per stage chunk);
* **tensor-parallel comm** adds two ring all-reduces per transformer
  layer over the batch activations (attention output + MLP output — the
  Megatron cut points);
* **pipeline comm** adds the classic fill/drain term: per extra stage,
  one microbatch chunk of compute plus one boundary activation transfer,
  and each of the ``m + pp - 1`` pipeline slots pays the boundary
  transfer once;
* an injected **spike** (:class:`~repro.obs.incident_cli.SpikeInjection`)
  adds its extra cycles to batches whose newest item became ready inside
  the spike window.

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
from typing import TYPE_CHECKING

from repro.cost import PolicyCostModel
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # topology imports ShardPlan from this module
    from repro.cluster.topology import ClusterSpec
    from repro.obs.incident_cli import SpikeInjection
    from repro.serve.batcher import Batch
    from repro.serve.dispatcher import ServeConfig

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


class ShardedCostModel:
    """Per-batch lane occupancy under a replica's shard plan.

    The plan, the interconnect and the placement tiers come from the
    :class:`~repro.cluster.topology.ClusterSpec`; the single-unit cycles
    come from a :class:`~repro.cost.model.PolicyCostModel` built from the
    serve config.  The ``(compute, allreduce, pp_transfer)`` split of a
    batch is a pure function of its ``(phase, size, context)``, so it is
    memoized on that key.  ``spike`` (optional) adds its extra cycles
    after the lookup: they depend on the batch's newest ready cycle, not
    its shape.

    Instances are per-replica and accumulate
    ``compute_cycles_total`` / ``interconnect_cycles_total`` over the
    replica's lifetime, without the spike's extra cycles — the
    interconnect-cycle share reported per replica is exactly their ratio.
    """

    def __init__(
        self,
        serve_config: ServeConfig,
        spec: ClusterSpec,
        *,
        spike: SpikeInjection | None = None,
    ) -> None:
        self.cfg = serve_config
        self.spec = spec
        self.spike = spike
        self.core = PolicyCostModel(
            serve_config.profile, clock=serve_config.clock,
            mem=serve_config.mem, precision=serve_config.precision,
            modes=serve_config.modes,
        )
        self._splits: dict[tuple[str, int, int], tuple[int, int, int]] = {}
        self.compute_cycles_total = 0
        self.interconnect_cycles_total = 0

    # -- split ---------------------------------------------------------------
    def _split(self, batch: Batch) -> tuple[int, int, int]:
        """``(compute, allreduce, pp_transfer)`` cycles of one batch.

        The named split feeds request-path tracing (the ``shard_compute``
        / ``allreduce`` / ``pp_transfer`` stages); the parts sum exactly
        to the lane occupancy :meth:`batch_cycles` charges, spike aside.
        """
        key = (batch.phase, batch.size, batch.context)
        split = self._splits.get(key)
        if split is None:
            split = self._splits[key] = self._price(*key)
        return split

    def _price(self, phase: str, size: int, context: int) -> tuple[int, int, int]:
        base = self.core.job_cycles(phase, size, context)
        spec, plan = self.spec, self.spec.plan
        if plan.degree == 1:
            return base, 0, 0
        profile = self.cfg.profile
        # Activation tokens per item crossing a layer boundary: the image,
        # the prompt, or one decode step.
        tokens = (profile.vit.n_tokens if phase == "vit"
                  else max(context, 1) if phase == "prefill" else 1)
        act_bytes = size * tokens * profile.dim * 4
        # Compute: the whole pass divided across the shard group, with the
        # pipeline's fill overhead ((pp-1) microbatch chunks of the first
        # stage run before the pipe is full).
        per_unit = ceil(base / plan.degree)
        micro = max(size, 1)
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
            cross = spec.pp_cross_boundaries
            intra = (plan.pp - 1) - cross
            pp_transfer = slots * (
                cross * spec.interconnect.transfer_cycles(
                    slot_bytes, cross_board=True)
                + intra * spec.interconnect.transfer_cycles(
                    slot_bytes, cross_board=False)
            )
        if plan.tp > 1:
            # Two ring all-reduces per layer (attention out + MLP out)
            # over the batch activations each stage holds.
            layers = profile.vit.depth if phase == "vit" else profile.depth
            stage_bytes = ceil(act_bytes / plan.pp)
            allreduce = 2 * layers * spec.interconnect.allreduce_cycles(
                stage_bytes, plan.tp, cross_board=spec.tp_cross_board
            )
        return compute, allreduce, pp_transfer

    def _extra(self, batch: Batch) -> int:
        """The spike's extra cycles for ``batch`` (0 outside its window)."""
        spike = self.spike
        if spike is None:
            return 0
        t = max(item.ready for item in batch.items)
        return spike.extra_cycles if spike.start_cycle <= t < spike.end_cycle else 0

    def batch_cycles(self, batch: Batch) -> int:
        """Lane-occupancy cycles of one dispatched batch (accumulated).

        The memo lookup of :meth:`_split` is written out here, because
        this runs once per dispatch.
        """
        key = (batch.phase, batch.size, batch.context)
        split = self._splits.get(key)
        if split is None:
            split = self._splits[key] = self._price(*key)
        compute, allreduce, pp_transfer = split
        comm = allreduce + pp_transfer
        self.compute_cycles_total += compute
        self.interconnect_cycles_total += comm
        if self.spike is None:
            return compute + comm
        return compute + comm + self._extra(batch)

    def batch_breakdown(self, batch: Batch) -> dict[str, int]:
        """Named stage split of one batch (pure — no accumulation); the
        spike folds into ``shard_compute``, so the stages sum to
        :meth:`batch_cycles`."""
        compute, allreduce, pp_transfer = self._split(batch)
        out = {"shard_compute": compute + self._extra(batch)}
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
