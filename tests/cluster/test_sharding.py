"""Sharded cost model: plan validation, compute/comm split, monotonicity."""

import pytest

from repro.cluster.sharding import ShardedCostModel, ShardPlan
from repro.cluster.topology import ClusterSpec
from repro.cost import PolicyCostModel
from repro.errors import ConfigurationError
from repro.serve.batcher import Batch
from repro.serve.dispatcher import ServeConfig
from repro.serve.request import PhaseItem, Request


def _batch(phase="decode", size=4, context=64):
    req = Request(rid=0, kind="llm", arrival=0,
                  prompt_tokens=context, gen_tokens=8)
    items = [PhaseItem(req, phase, ready=0, context=context)
             for _ in range(size)]
    return Batch(phase=phase, items=items, formed_at=0)


def _base_cycles(cfg, b):
    core = PolicyCostModel(cfg.profile, clock=cfg.clock, mem=cfg.mem,
                           precision=cfg.precision, modes=cfg.modes)
    return core.job_cycles(b.phase, b.size, b.context)


def _split(model, b):
    """``(compute, interconnect)`` cycles of one batch's breakdown."""
    stages = model.batch_breakdown(b)
    return (stages["shard_compute"],
            stages.get("allreduce", 0) + stages.get("pp_transfer", 0))


def test_plan_validation():
    with pytest.raises(ConfigurationError):
        ShardPlan(tp=0)
    with pytest.raises(ConfigurationError):
        ShardPlan(pp=-1)
    assert ShardPlan(tp=3, pp=2).degree == 6
    assert ShardPlan(tp=3, pp=2).describe() == "tp3xpp2"


def test_degree_one_matches_base_cost():
    cfg = ServeConfig()
    sharded = ShardedCostModel(cfg, ClusterSpec())
    for phase in ("prefill", "decode", "vit"):
        b = _batch(phase)
        assert sharded.batch_cycles(b) == _base_cycles(cfg, b)
    assert sharded.interconnect_cycles_total == 0
    assert sharded.interconnect_share == 0.0


def test_tp_split_reduces_compute_adds_comm():
    cfg = ServeConfig()
    sharded = ShardedCostModel(cfg, ClusterSpec(plan=ShardPlan(tp=4)))
    b = _batch("prefill", size=4, context=64)
    compute, comm = _split(sharded, b)
    assert compute < _base_cycles(cfg, b)
    assert comm > 0


def test_pp_split_adds_fill_and_boundary_transfers():
    cfg = ServeConfig()
    sharded = ShardedCostModel(cfg, ClusterSpec(plan=ShardPlan(pp=3)))
    b = _batch("prefill", size=4, context=64)
    compute, comm = _split(sharded, b)
    base = _base_cycles(cfg, b)
    per_unit = -(-base // 3)
    assert compute > per_unit  # fill overhead on top of the split
    assert comm > 0


def test_cross_board_costs_more_than_intra():
    cfg = ServeConfig()
    b = _batch("prefill", size=8, context=128)
    # A tp=4 ring fits one 15-unit board, but not one 2-unit board.
    on_spec = ClusterSpec(plan=ShardPlan(tp=4))
    off_spec = ClusterSpec(units_per_board=2, boards_per_replica=2,
                           plan=ShardPlan(tp=4))
    assert not on_spec.tp_cross_board and off_spec.tp_cross_board
    on_board = ShardedCostModel(cfg, on_spec)
    off_board = ShardedCostModel(cfg, off_spec)
    assert _split(off_board, b)[1] > _split(on_board, b)[1]

    # Two stages on one board vs one stage on each of two boards.
    pp_on_spec = ClusterSpec(plan=ShardPlan(pp=2))
    pp_off_spec = ClusterSpec(boards=2, boards_per_replica=2,
                              plan=ShardPlan(pp=2))
    assert pp_on_spec.pp_cross_boundaries == 0
    assert pp_off_spec.pp_cross_boundaries == 1
    pp_on = ShardedCostModel(cfg, pp_on_spec)
    pp_off = ShardedCostModel(cfg, pp_off_spec)
    assert _split(pp_off, b)[1] > _split(pp_on, b)[1]


def test_accumulators_track_dispatches():
    cfg = ServeConfig()
    sharded = ShardedCostModel(cfg, ClusterSpec(plan=ShardPlan(tp=2)))
    b = _batch("decode", size=8, context=64)
    total = sharded.batch_cycles(b)
    assert (sharded.compute_cycles_total
            + sharded.interconnect_cycles_total) == total
    assert 0.0 < sharded.interconnect_share < 1.0
