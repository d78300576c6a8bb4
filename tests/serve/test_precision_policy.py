"""Serving under a precision policy: cost-model threading end-to-end."""

from __future__ import annotations

from repro.cluster.sharding import ShardedCostModel
from repro.cluster.topology import ClusterSpec
from repro.models.policy import get_policy
from repro.serve.batcher import Batch, BatchPolicy
from repro.serve.dispatcher import ServeConfig, simulate
from repro.serve.request import PhaseItem, Request, TrafficConfig, poisson_trace


def _decode_batch() -> Batch:
    req = Request(rid=0, arrival=0, kind="llm", prompt_tokens=16,
                  gen_tokens=4)
    return Batch(phase="decode",
                 items=[PhaseItem(req, "decode", ready=0, context=16)],
                 formed_at=0)


def test_cost_model_uses_precision_policy():
    base = ShardedCostModel(ServeConfig(), ClusterSpec())
    fp32 = ShardedCostModel(ServeConfig(precision=get_policy("fp32")),
                            ClusterSpec())
    same = ShardedCostModel(ServeConfig(precision=get_policy("bfp8-all")),
                            ClusterSpec())
    b = _decode_batch()
    assert fp32.batch_cycles(b) > base.batch_cycles(b)
    assert same.batch_cycles(b) == base.batch_cycles(b)


def test_simulation_runs_under_mixed_policy():
    trace = poisson_trace(40, TrafficConfig(rate_rps=200.0, vit_fraction=0.25),
                          seed=3)
    cfg = ServeConfig(policy=BatchPolicy(max_batch=4),
                      precision=get_policy("mixed-fp8"))
    report = simulate(trace, cfg)
    assert report.summary["completed"] + report.summary["rejected"] == 40
    assert report.summary["tokens_per_s"] > 0

    # The same trace under the (costlier) all-fp32 policy keeps units
    # busy longer for the same completed work.
    slow = simulate(trace, ServeConfig(policy=BatchPolicy(max_batch=4),
                                       precision=get_policy("fp32")))
    busy = sum(t.busy_cycles for t in report.pool.timelines)
    busy_slow = sum(t.busy_cycles for t in slow.pool.timelines)
    assert busy_slow > busy
