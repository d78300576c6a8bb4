"""Unified cost-model stack: unit-mode registry + shared batch-job model.

``repro.cost`` is the single source of cycle truth.  Per-chunk cycles of
every execution personality live in the :class:`~repro.cost.modes.
UnitMode` registry; scheduler stages and ``perf.latency`` lookups read
it, and the serving batch pricer
(:class:`~repro.cluster.sharding.ShardedCostModel`) prices every job
through :class:`~repro.cost.model.PolicyCostModel` on top of it.
"""

from repro.cost.model import PolicyCostModel
from repro.cost.modes import (
    ModeOptions,
    StageCost,
    UnitMode,
    available_modes,
    get_mode,
    resolve_unit_mode,
)

__all__ = [
    "PolicyCostModel",
    "UnitMode",
    "StageCost",
    "ModeOptions",
    "get_mode",
    "available_modes",
    "resolve_unit_mode",
]
