"""End-to-end cluster runs: completion, determinism, scaling, autoscale,
and the single pool as a one-replica cluster."""

import json

import pytest

from repro.cluster import (
    AutoscalerConfig,
    ClusterConfig,
    ClusterSpec,
    Replica,
    ShardPlan,
    simulate_cluster,
)
from repro.errors import ConfigurationError, InvariantError
from repro.obs.anomaly import AnomalyConfig
from repro.obs.incident_cli import SpikeInjection, replay_bundle, verify_replay
from repro.obs.recorder import FlightRecorder, RecorderConfig
from repro.obs.tracer import Tracer
from repro.serve.dispatcher import (
    Dispatcher,
    ServeConfig,
    serve_config_to_dict,
    simulate,
)
from repro.serve.request import (
    DiurnalConfig,
    TrafficConfig,
    diurnal_trace,
    poisson_trace,
)
from repro.serve.sessions import SessionTable


def _trace(n=200, rate=800.0, seed=11):
    return poisson_trace(n, TrafficConfig(rate_rps=rate), seed=seed,
                         n_users=32)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ClusterConfig(initial_replicas=9)  # > max_replicas of default spec
    with pytest.raises(ConfigurationError):
        ClusterConfig(autoscaler=AutoscalerConfig(max_replicas=9))
    with pytest.raises(ConfigurationError):
        ClusterConfig(autoscaler=AutoscalerConfig(min_replicas=2,
                                                  max_replicas=4),
                      initial_replicas=1)


def test_fixed_fleet_completes_everything():
    report = simulate_cluster(
        _trace(), ClusterConfig(spec=ClusterSpec(boards=2),
                                initial_replicas=2))
    s = report.summary
    assert s["completed"] + s["rejected"] == s["arrivals"] == 200
    assert s["rejected"] == 0
    assert s["tokens_per_s"] > 0
    assert 0.0 < s["utilization"] <= 1.0
    assert len(report.per_replica) == 2
    for row in report.per_replica:
        assert row["state"] == "active"
        assert 0.0 <= row["utilization"] <= 1.0


def test_runs_are_byte_identical_per_seed():
    cfg = ClusterConfig(spec=ClusterSpec(boards=2), initial_replicas=2)
    trace = _trace()
    a = simulate_cluster(trace, cfg)
    b = simulate_cluster(trace, cfg)
    assert a.to_json() == b.to_json()


def test_router_seed_changes_placement_not_totals():
    trace = _trace()
    a = simulate_cluster(trace, ClusterConfig(
        spec=ClusterSpec(boards=2), initial_replicas=2, router_seed=0))
    b = simulate_cluster(trace, ClusterConfig(
        spec=ClusterSpec(boards=2), initial_replicas=2, router_seed=99))
    assert a.summary["completed"] == b.summary["completed"] == 200
    per_a = [r["completed"] for r in a.per_replica]
    per_b = [r["completed"] for r in b.per_replica]
    assert sum(per_a) == sum(per_b)


def test_two_replicas_scale_saturating_throughput():
    """The acceptance gate: >=1.8x tokens/s from 1 -> 2 replicas when one
    replica is saturated (open-loop trace, admission-bounded queues)."""
    trace = poisson_trace(600, TrafficConfig(rate_rps=2000.0), seed=7,
                          n_users=64)
    one = simulate_cluster(trace, ClusterConfig(
        spec=ClusterSpec(boards=2), initial_replicas=1))
    two = simulate_cluster(trace, ClusterConfig(
        spec=ClusterSpec(boards=2), initial_replicas=2))
    scaling = two.summary["tokens_per_s"] / one.summary["tokens_per_s"]
    assert one.summary["utilization"] > 0.9  # the single replica saturates
    assert scaling >= 1.8, f"1->2 replica scaling only {scaling:.2f}x"


def test_sharded_run_reports_interconnect_share():
    report = simulate_cluster(_trace(), ClusterConfig(
        spec=ClusterSpec(boards=2, plan=ShardPlan(tp=3)),
        initial_replicas=2))
    s = report.summary
    assert s["completed"] == 200
    assert s["shard_plan"] == "tp3xpp1"
    assert s["lanes_per_replica"] == 5
    assert 0.0 < s["interconnect_share"] < 1.0
    for row in report.per_replica:
        assert row["interconnect_share"] > 0.0


def test_session_affinity_hits():
    report = simulate_cluster(_trace(), ClusterConfig(
        spec=ClusterSpec(boards=2), initial_replicas=2))
    assert report.summary["affinity_hit_rate"] > 0.5


def test_autoscaler_scales_up_and_down():
    trace = diurnal_trace(
        1000, TrafficConfig(rate_rps=1500.0),
        DiurnalConfig(period_s=0.6, amplitude=0.9),
        seed=42, n_users=64,
    )
    cfg = ClusterConfig(
        spec=ClusterSpec(boards=4),
        autoscaler=AutoscalerConfig(min_replicas=1, max_replicas=4),
        initial_replicas=1,
    )
    report = simulate_cluster(trace, cfg)
    s = report.summary
    assert s["scale_ups"] >= 1
    assert s["scale_downs"] >= 1
    assert s["completed"] + s["rejected"] == 1000
    # scale events carry their evidence
    for ev in report.scale_events:
        assert ev["action"] in ("scale_up", "scale_down")
        assert ev["reason"]
        assert ev["n_active"] >= 1
    # draining never kills live work: every admitted request completes
    assert s["completed"] == 1000 - s["rejected"]
    # and the run stays deterministic with scaling in the loop
    again = simulate_cluster(trace, cfg)
    assert report.to_json() == again.to_json()


def test_autoscaled_replicas_retire_and_free_boards():
    trace = diurnal_trace(
        800, TrafficConfig(rate_rps=1500.0),
        DiurnalConfig(period_s=0.6, amplitude=0.9),
        seed=42, n_users=64,
    )
    report = simulate_cluster(trace, ClusterConfig(
        spec=ClusterSpec(boards=4),
        autoscaler=AutoscalerConfig(min_replicas=1, max_replicas=4),
        initial_replicas=1,
    ))
    states = {r["state"] for r in report.per_replica}
    assert "retired" in states  # at least one drained replica gave back boards
    for row in report.per_replica:
        if row["state"] == "retired":
            assert row["retired_at"] is not None


def test_edge_admission_bound():
    trace = poisson_trace(300, TrafficConfig(rate_rps=5000.0), seed=3)
    report = simulate_cluster(trace, ClusterConfig(
        spec=ClusterSpec(boards=2), initial_replicas=1,
        max_cluster_queue=32))
    s = report.summary
    assert s["edge_rejected"] > 0
    assert s["completed"] + s["rejected"] == 300


def test_cluster_tracer_and_registry_outputs():
    from repro.obs.metrics import MetricsRegistry

    tracer = Tracer()
    registry = MetricsRegistry()
    simulate_cluster(_trace(), ClusterConfig(
        spec=ClusterSpec(boards=2), initial_replicas=2),
        tracer=tracer, registry=registry)
    tracks = {s.track for s in tracer.spans}
    assert any(t.startswith("r0.unit") for t in tracks)
    assert any(t.startswith("r1.unit") for t in tracks)
    snap = registry.to_json()
    assert "cluster.arrivals" in snap
    assert "serve.dispatches.prefill" in snap


# ---------------------------------------------------------------------------
# One driver: the single pool is a one-board, one-replica cluster
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rate", [100, 200, 300, 400, 500])
def test_single_pool_equals_one_board_cluster(rate):
    trace = poisson_trace(500, TrafficConfig(rate_rps=rate, vit_fraction=0.1),
                          seed=rate)
    cfg = ServeConfig()
    single = simulate(trace, cfg).summary
    fleet = simulate_cluster(trace, ClusterConfig(
        serve=cfg, spec=ClusterSpec(boards=1,
                                    units_per_board=cfg.clock.n_units),
    )).summary
    assert single == {k: fleet[k] for k in single}


def test_dispatcher_rejections_match_one_board_cluster():
    # Rejections come from the dispatcher's own max_queue in both front
    # ends (the fleet edge bound sits above it).
    trace = poisson_trace(300, TrafficConfig(rate_rps=5000.0), seed=3)
    cfg = ServeConfig(max_queue=16)
    single = simulate(trace, cfg).summary
    fleet = simulate_cluster(trace, ClusterConfig(
        serve=cfg, spec=ClusterSpec(boards=1))).summary
    assert single["rejected"] > 0 and fleet["edge_rejected"] == 0
    assert single == {k: fleet[k] for k in single}


def test_spiked_single_pool_bundle_replays_exactly():
    cfg = ServeConfig()
    cyc = cfg.clock.freq_hz
    spike = SpikeInjection(start_cycle=int(1.0 * cyc),
                           end_cycle=int(1.2 * cyc),
                           extra_cycles=int(0.3 * cyc))
    recorder = FlightRecorder(
        RecorderConfig(anomaly=AnomalyConfig(warmup=16, latency_z=3.0)),
        capture={"serve_config": serve_config_to_dict(cfg),
                 "injection": spike.as_dict()})
    trace = poisson_trace(300, TrafficConfig(rate_rps=100.0), seed=5)
    simulate(trace, cfg, recorder=recorder, spike=spike)
    assert recorder.incidents
    bundle = json.loads(json.dumps(recorder.incidents[0]))
    assert bundle["replay"]["supported"], bundle["replay"]
    assert verify_replay(bundle, replay_bundle(bundle)) == []


@pytest.mark.parametrize("run", [
    lambda trace: simulate(trace, ServeConfig()),
    lambda trace: simulate_cluster(trace, ClusterConfig(
        spec=ClusterSpec(boards=2), initial_replicas=2)),
], ids=["single_pool", "cluster"])
def test_conservation_check_trips_on_a_lost_completion(monkeypatch, run):
    original = Dispatcher._complete_request
    dropped = []

    def lossy(self, req, now):
        if not dropped:  # the run's first completion never lands
            dropped.append(req.rid)
            return
        original(self, req, now)

    monkeypatch.setattr(Dispatcher, "_complete_request", lossy)
    with pytest.raises(InvariantError, match=r"replica \d: .* arrivals"):
        run(_trace(n=40))


@pytest.mark.parametrize("run", [
    lambda trace: simulate(trace, ServeConfig()),
    lambda trace: simulate_cluster(trace, ClusterConfig(
        spec=ClusterSpec(boards=2), initial_replicas=2)),
], ids=["single_pool", "cluster"])
def test_conservation_check_trips_on_leaked_kv(monkeypatch, run):
    original = SessionTable.step

    def leaky(self, rid, now):
        nxt = original(self, rid, now)
        if nxt is None:  # a closing session leaves one token counted
            self.kv_tokens += 1
        return nxt

    monkeypatch.setattr(SessionTable, "step", leaky)
    with pytest.raises(InvariantError,
                       match=r"replica \d: 0 sessions and \d+ KV tokens"):
        run(_trace(n=40))


def test_conservation_check_bounds_busy_cycles(monkeypatch):
    monkeypatch.setattr(Replica, "active_span", lambda self, horizon: 1)
    with pytest.raises(InvariantError, match="replica 0: .* busy cycles"):
        simulate(_trace(n=40), ServeConfig())
