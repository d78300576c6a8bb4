"""One shared batch-job cost core, and the batch pricer over it.

:class:`repro.cluster.sharding.ShardedCostModel` prices every dispatched
batch on top of :class:`repro.cost.model.PolicyCostModel`.  These tests
pin that a single-lane pricer agrees with the core, that it memoizes one
split per batch shape, that an injected spike applies on any shard plan
(single-pool and ``--cluster`` runs alike), and that the ``modes`` config
field survives the incident-bundle snapshot round trip.
"""

from repro.cluster import ClusterConfig, ClusterSpec, simulate_cluster
from repro.cluster.sharding import ShardedCostModel, ShardPlan
from repro.cost import ModeOptions, PolicyCostModel
from repro.models.policy import get_policy
from repro.obs.incident_cli import SpikeInjection
from repro.serve.dispatcher import (
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
        serve = ShardedCostModel(cfg, ClusterSpec())
        core = PolicyCostModel(cfg.profile, clock=cfg.clock, mem=cfg.mem,
                               precision=policy)
        for ph, sz, ctx in BATCHES:
            batch = make_batch(ph, sz, ctx)
            assert serve.batch_cycles(batch) == core.job_cycles(ph, sz, ctx)


def test_modes_flow_through_serve_cost_model():
    pol = get_policy("fp16-linear")
    cliff = ShardedCostModel(ServeConfig(precision=pol), ClusterSpec())
    dot = ShardedCostModel(
        ServeConfig(precision=pol, modes=ModeOptions.parse("fp16")),
        ClusterSpec())
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


def test_split_memoized_per_batch_shape(monkeypatch):
    pricer = ShardedCostModel(ServeConfig(), ClusterSpec())
    calls = []
    job_cycles = pricer.core.job_cycles
    monkeypatch.setattr(pricer.core, "job_cycles",
                        lambda *key: calls.append(key) or job_cycles(*key))
    batch = make_batch("decode", 8, 128)
    first = pricer.batch_cycles(batch)
    assert pricer.batch_cycles(batch) == first
    assert pricer.batch_breakdown(batch) == {"shard_compute": first}
    pricer.batch_cycles(make_batch("decode", 8, 112))
    assert calls == [("decode", 8, 128), ("decode", 8, 112)]


# ---------------------------------------------------------------------------
# Spike injection: applied by the pricer, after the split memo
# ---------------------------------------------------------------------------

SPIKE = SpikeInjection(start_cycle=0, end_cycle=10**12, extra_cycles=5000)
COLD = SpikeInjection(start_cycle=10**14, end_cycle=10**15, extra_cycles=5000)
#: A tp2 x pp2 replica whose rings span boards and whose one stage
#: boundary lands on a board edge.
CROSS = ClusterSpec(boards=4, units_per_board=1, boards_per_replica=4,
                    plan=ShardPlan(tp=2, pp=2))


def test_spike_wraps_serve_cost_model():
    cfg = ServeConfig()
    batch = make_batch("decode", 8, 128)
    base = ShardedCostModel(cfg, ClusterSpec()).batch_cycles(batch)
    spiked = ShardedCostModel(cfg, ClusterSpec(), spike=SPIKE)
    assert spiked.batch_cycles(batch) == base + 5000
    # Outside the window the spike adds nothing.
    cold = ShardedCostModel(cfg, ClusterSpec(), spike=COLD)
    assert cold.batch_cycles(batch) == base


def test_spike_wraps_sharded_cost_model():
    sharded = ShardedCostModel(ServeConfig(), CROSS)
    spiked = ShardedCostModel(ServeConfig(), CROSS, spike=SPIKE)
    batch = make_batch("prefill", 4, 100)
    total = spiked.batch_cycles(batch)
    assert total == sharded.batch_cycles(batch) + 5000
    # The breakdown folds the spike into compute and still sums to total.
    breakdown = spiked.batch_breakdown(batch)
    assert sum(breakdown.values()) == total
    assert breakdown["shard_compute"] == (
        sharded.batch_breakdown(batch)["shard_compute"] + 5000
    )
    # The accumulators leave the spike out.
    assert (spiked.compute_cycles_total, spiked.interconnect_cycles_total) == (
        sharded.compute_cycles_total, sharded.interconnect_cycles_total)


def test_spike_keyed_on_ready_cycle_not_shape():
    spike = SpikeInjection(start_cycle=100, end_cycle=200, extra_cycles=7)
    pricer = ShardedCostModel(ServeConfig(), CROSS, spike=spike)
    batch = make_batch("decode", 8, 128)  # every item ready at cycle 0
    outside = pricer.batch_cycles(batch)
    batch.items[-1].ready = 150
    assert pricer.batch_cycles(batch) == outside + 7
    batch.items[-1].ready = 200
    assert pricer.batch_cycles(batch) == outside


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
