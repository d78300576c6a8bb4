"""Cluster topology: boards, replicas, and shard-group placement.

A **board** is one U280 — ``units_per_board`` independent processing
units (the paper deploys 15).  A **replica** is one servable model
instance: it owns ``boards_per_replica`` whole boards and organizes their
units into *lanes* of ``tp * pp`` units each (see
:class:`~repro.cluster.sharding.ShardPlan`).  The serving dispatcher
schedules batches onto lanes exactly as the single-board dispatcher
schedules onto units — request-level parallelism across lanes, shard-level
parallelism inside one.

Placement determines which interconnect tier the shard plan's cut points
pay:

* pipeline stages are laid out across the replica's boards round-robin,
  so with ``boards_per_replica > 1`` the outermost
  ``min(pp, boards_per_replica) - 1`` stage boundaries cross a board edge;
* tensor-parallel rings stay inside one stage; they only cross boards
  when a single stage's ``tp`` units cannot fit on one board
  (``tp > units_per_board``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.interconnect import DEFAULT_INTERCONNECT, InterconnectModel
from repro.cluster.sharding import ShardPlan
from repro.errors import ConfigurationError

__all__ = ["ClusterSpec", "Board", "Replica"]


@dataclass(frozen=True)
class ClusterSpec:
    """Static shape of the fleet: boards, replica footprint, shard plan."""

    boards: int = 4
    units_per_board: int = 15
    boards_per_replica: int = 1
    plan: ShardPlan = ShardPlan()
    interconnect: InterconnectModel = DEFAULT_INTERCONNECT

    def __post_init__(self) -> None:
        if self.boards <= 0 or self.units_per_board <= 0:
            raise ConfigurationError("cluster needs boards with units")
        if self.boards_per_replica <= 0:
            raise ConfigurationError("a replica needs at least one board")
        if self.boards_per_replica > self.boards:
            raise ConfigurationError(
                f"replica footprint ({self.boards_per_replica} boards) "
                f"exceeds the fleet ({self.boards})"
            )
        if self.plan.degree > self.units_per_replica:
            raise ConfigurationError(
                f"shard degree {self.plan.degree} exceeds the "
                f"{self.units_per_replica} units of one replica"
            )

    # -- derived footprint ---------------------------------------------------
    @property
    def units_per_replica(self) -> int:
        return self.boards_per_replica * self.units_per_board

    @property
    def lanes_per_replica(self) -> int:
        """Parallel shard groups one replica schedules batches onto."""
        return self.units_per_replica // self.plan.degree

    @property
    def max_replicas(self) -> int:
        """Fleet capacity: how many replicas the boards can host at once."""
        return self.boards // self.boards_per_replica

    # -- placement -> interconnect tiers --------------------------------------
    @property
    def tp_cross_board(self) -> bool:
        """Tensor rings span boards only when a stage overflows one board."""
        return self.plan.tp > self.units_per_board

    @property
    def pp_cross_boundaries(self) -> int:
        """Stage boundaries that land on a board edge (round-robin stages)."""
        if self.plan.pp <= 1 or self.boards_per_replica <= 1:
            return 0
        return min(self.plan.pp, self.boards_per_replica) - 1


@dataclass
class Board:
    """One physical board and its current owner (a replica id or None)."""

    bid: int
    owner: int | None = None

    @property
    def free(self) -> bool:
        return self.owner is None


@dataclass
class Replica:
    """One servable model instance: boards, lanes, dispatcher, lifecycle.

    ``state`` walks ``active`` (routable) -> ``draining`` (finishes its
    queued/resident work, accepts nothing new) -> ``retired`` (boards
    freed).  The cluster simulator attaches ``dispatcher`` (which holds
    the replica's batch pricer) when the replica spawns.
    """

    rid: int
    boards: tuple[int, ...]
    spawned_at: int
    dispatcher: object = field(default=None, repr=False)
    state: str = "active"
    retired_at: int | None = None
    #: Queue depth at the driver's last sample of this replica.
    queued: int = 0

    @property
    def active(self) -> bool:
        return self.state == "active"

    def active_span(self, horizon: int) -> int:
        """Cycles this replica existed (spawn to retirement or horizon)."""
        end = self.retired_at if self.retired_at is not None else horizon
        return max(end - self.spawned_at, 0)

    def drained(self) -> bool:
        """True when no queued items, no resident sessions, all lanes idle."""
        d = self.dispatcher
        return (
            d.depth() == 0
            and d.active_sessions() == 0
            and len(d.idle) == d.pool.n_units
        )
