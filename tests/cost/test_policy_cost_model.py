"""One shared batch-job cost core, and the layers composed over it.

Serve's ``CostModel``, cluster's ``ShardedCostModel`` and the incident
layer's ``SpikedCostModel`` all derive from :class:`repro.cost.model.
PolicyCostModel` since the unification; these tests pin that the layers
agree with the core, that spike injection composes over *any* cost model
(the ``--inject-spike-* --cluster`` fix), and that the new ``modes``
config field survives the incident-bundle snapshot round trip.
"""

import pytest

from repro.cluster import ClusterConfig, ClusterSpec, simulate_cluster
from repro.cluster.sharding import ShardedCostModel, ShardPlan
from repro.cost import ModeOptions, PolicyCostModel
from repro.models.policy import get_policy
from repro.obs.incident_cli import SpikedCostModel, SpikeInjection
from repro.serve.dispatcher import (
    CostModel,
    ServeConfig,
    serve_config_from_dict,
    serve_config_to_dict,
)
from repro.serve.request import TrafficConfig, poisson_trace

from tests.cost.test_golden_cycles import make_batch

BATCHES = [
    ("vit", 1, 0), ("prefill", 4, 100), ("decode", 8, 128),
]


def test_serve_cost_model_is_the_shared_core():
    for policy in (None, get_policy("bfp8-mixed"), get_policy("mixed-fp8")):
        cfg = ServeConfig(precision=policy)
        serve = CostModel(cfg)
        core = PolicyCostModel(cfg.profile, clock=cfg.clock, mem=cfg.mem,
                               precision=policy)
        for ph, sz, ctx in BATCHES:
            batch = make_batch(ph, sz, ctx)
            assert serve.batch_cycles(batch) == core.job_cycles(ph, sz, ctx)


def test_modes_flow_through_serve_cost_model():
    pol = get_policy("fp16-linear")
    cliff = CostModel(ServeConfig(precision=pol))
    dot = CostModel(ServeConfig(precision=pol, modes=ModeOptions.parse("fp16")))
    for ph, sz, ctx in BATCHES:
        batch = make_batch(ph, sz, ctx)
        assert dot.batch_cycles(batch) < cliff.batch_cycles(batch)


def test_context_bucketing_shared():
    cm = PolicyCostModel(ServeConfig().profile)
    assert cm.bucket_context("decode", 1) == cm.DECODE_BUCKET
    assert cm.bucket_context("decode", 17) == 2 * cm.DECODE_BUCKET
    assert cm.bucket_context("prefill", 9) == 2 * cm.PREFILL_BUCKET
    # Buckets saturate at the profile's max context.
    assert cm.bucket_context("decode", 10**6) == ServeConfig().profile.context


# ---------------------------------------------------------------------------
# SpikedCostModel: a wrapper over any cost model
# ---------------------------------------------------------------------------

SPIKE = SpikeInjection(start_cycle=0, end_cycle=10**12, extra_cycles=5000)
COLD = SpikeInjection(start_cycle=10**14, end_cycle=10**15, extra_cycles=5000)


def test_spike_wraps_serve_cost_model():
    serve = CostModel(ServeConfig())
    spiked = SpikedCostModel(serve, SPIKE)
    batch = make_batch("decode", 8, 128)
    base = serve.batch_cycles(batch)
    assert spiked.batch_cycles(batch) == base + 5000
    # Outside the window the wrapper is transparent.
    assert SpikedCostModel(serve, COLD).batch_cycles(batch) == base


def test_spike_wraps_sharded_cost_model():
    sharded = ShardedCostModel(ServeConfig(), ShardPlan(tp=2, pp=2),
                               tp_cross_board=True, pp_cross_boundaries=1)
    spiked = SpikedCostModel(sharded, SPIKE)
    batch = make_batch("prefill", 4, 100)
    assert spiked.batch_cycles(batch) == sharded.batch_cycles(batch) + 5000
    # The breakdown folds the spike into compute and still sums to total.
    breakdown = spiked.batch_breakdown(batch)
    assert sum(breakdown.values()) == spiked.batch_cycles(batch)
    assert breakdown["shard_compute"] == (
        sharded.batch_breakdown(batch)["shard_compute"] + 5000
    )


def test_spike_delegates_wrapped_attributes():
    sharded = ShardedCostModel(ServeConfig(), ShardPlan(tp=2, pp=1))
    spiked = SpikedCostModel(sharded, SPIKE)
    assert spiked.plan.tp == 2  # sharding attrs visible through the wrapper
    assert spiked.spike is SPIKE
    with pytest.raises(AttributeError):
        spiked.not_a_cost_model_attribute


def test_cluster_spike_injection_end_to_end():
    # The satellite fix: --inject-spike-* now composes with --cluster.
    trace = poisson_trace(120, TrafficConfig(rate_rps=800.0), seed=7,
                          n_users=16)
    base_cfg = ClusterConfig(spec=ClusterSpec(boards=2), initial_replicas=2)
    spiked_cfg = ClusterConfig(spec=ClusterSpec(boards=2), initial_replicas=2,
                               spike=SPIKE)
    base = simulate_cluster(trace, base_cfg)
    spiked = simulate_cluster(trace, spiked_cfg)
    assert spiked.summary["latency_p99_ms"] > base.summary["latency_p99_ms"]
    assert spiked.summary["completed"] + spiked.summary["rejected"] == 120
    # A cold window is byte-identical to no spike at all.
    cold = simulate_cluster(trace, ClusterConfig(
        spec=ClusterSpec(boards=2), initial_replicas=2, spike=COLD))
    assert cold.to_json() == base.to_json()


# ---------------------------------------------------------------------------
# Config snapshots
# ---------------------------------------------------------------------------

def test_serve_config_modes_roundtrip():
    cfg = ServeConfig(precision=get_policy("fp16-linear"),
                      modes=ModeOptions.parse("fp16", align_narrow_frac=0.5))
    back = serve_config_from_dict(serve_config_to_dict(cfg))
    assert back.modes == cfg.modes
    assert back.precision.resolve_name("block0.mlp", "linear") == "fp16"
    # The historical snapshot (no modes key) still loads.
    doc = serve_config_to_dict(ServeConfig())
    doc.pop("modes")
    assert serve_config_from_dict(doc).modes is None
