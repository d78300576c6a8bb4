"""Unit and end-to-end tests for the flight recorder.

The end-to-end test is the tentpole contract in miniature: capture a
seeded serving run with an injected latency fault, then rebuild the
simulation from the written bundle *alone* and verify the anomaly
reproduces exactly (trigger, deadline misses, completion digest).
"""

import json
from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError
from repro.obs.anomaly import AnomalyConfig
from repro.obs.incident_cli import SpikeInjection, replay_bundle, verify_replay
from repro.obs.recorder import (
    NULL_RECORDER,
    FlightRecorder,
    RecorderConfig,
    canonical_sha256,
)
from repro.serve.dispatcher import ServeConfig, serve_config_to_dict, simulate
from repro.serve.request import Request, TrafficConfig, poisson_trace


def rec(**kw):
    cfg = kw.pop("config", None) or RecorderConfig(**kw)
    return FlightRecorder(cfg)


def req(rid, arrival=0, deadline=None):
    return Request(rid=rid, kind="llm", arrival=arrival, deadline=deadline,
                   prompt_tokens=8, gen_tokens=4)


# -- null object ----------------------------------------------------------
def test_null_recorder_is_inert():
    assert NULL_RECORDER.enabled is False
    NULL_RECORDER.record_arrival(req(0), 0)
    NULL_RECORDER.record_completion(req(0), 5, False)
    NULL_RECORDER.observe_queue(5, 3)
    NULL_RECORDER.end_event(9, True)
    assert NULL_RECORDER.finalize(9) == {}
    assert NULL_RECORDER.incidents == []
    assert NULL_RECORDER.active_incident_id() is None


# -- rings and epochs -----------------------------------------------------
def test_rings_are_bounded():
    r = rec(ring_requests=4, ring_metrics=3)
    for i in range(10):
        r.record_completion(req(i), now=i + 1, missed=False)
        r.observe_queue(i + 1, i)  # strictly increasing: no dedupe
    assert len(r.ring_requests) == 4
    assert len(r.ring_metrics) == 3
    # Ring keeps the newest entries.
    assert [ev[1].rid for ev in r.ring_requests] == [6, 7, 8, 9]


def test_epoch_resets_at_idle_points():
    r = rec()
    r.record_arrival(req(0), 5)
    r.record_completion(req(0), 9, missed=False)
    r.end_event(10, idle=True)
    assert r.epoch_start == 10
    assert r._epoch_arrivals == [] and r._epoch_completions == []
    r.end_event(11, idle=False)  # non-idle events never mark an epoch
    assert r.epoch_start == 10


def test_queue_observation_dedupes_equal_depths():
    r = rec()
    r.observe_queue(10, 3)
    r.observe_queue(20, 3)  # same depth: dropped
    r.observe_queue(30, 4)
    assert [ev[2] for ev in r.ring_metrics] == [3, 4]


# -- incident lifecycle ---------------------------------------------------
def test_trigger_opens_incident_and_idle_closes_bundle(tmp_path):
    r = FlightRecorder(RecorderConfig(), run="t", out_dir=tmp_path,
                       capture={"kind": "serve"})
    r.record_arrival(req(0), 5)
    r.external_trigger(50, "external", "test_signal", 1.0)
    assert r.active_incident_id() == "inc-000"
    r.external_trigger(60, "external", "chained", 2.0)  # rides along
    assert len(r.incidents) == 0  # still open
    r.end_event(100, idle=True)
    assert len(r.incidents) == 1
    b = r.incidents[0]
    assert b["trigger"]["signal"] == "test_signal"
    assert [c["signal"] for c in b["cause_chain"]] == ["chained"]
    assert b["window"] == {"epoch_start": 0, "closed_cycle": 100}
    assert b["subtrace"]["requests"][0][0] == 0  # rid serialized
    # Written to disk under <out_dir>/<run>/<id>.json, loadable JSON.
    assert json.loads(r.incident_paths[0].read_text())["id"] == "inc-000"


def test_cooldown_suppresses_follow_on_triggers():
    r = rec(cooldown_cycles=1000)
    r.external_trigger(50, "external", "a", 1.0)
    r.end_event(100, idle=True)  # closes; cooldown until 1100
    r.external_trigger(500, "external", "b", 1.0)
    assert r.active_incident_id() is None and r.suppressed == 1
    r.external_trigger(1200, "external", "c", 1.0)  # cooldown expired
    assert r.active_incident_id() == "inc-001"


def test_record_dispatch_needs_policy_only_for_occupancy():
    batch = SimpleNamespace(phase="decode", size=4)
    quiet = rec()  # occupancy stream disabled by default
    quiet.record_dispatch(10, batch, unit=0)
    occ = rec(anomaly=AnomalyConfig(occupancy_z=6.0))
    with pytest.raises(ConfigurationError):
        occ.record_dispatch(10, batch, unit=0)  # no bind_policy()


def test_finalize_closes_open_incident():
    r = rec()
    r.external_trigger(50, "external", "a", 1.0)
    summary = r.finalize(99)
    assert summary["incidents"] == 1
    assert r.incidents[0]["window"]["closed_cycle"] == 99


# -- replay plumbing ------------------------------------------------------
def test_non_replayable_capture_refuses_replay():
    r = FlightRecorder(RecorderConfig(), replayable=False,
                       replayable_reason="cluster capture")
    r.external_trigger(50, "external", "a", 1.0)
    r.end_event(100, idle=True)
    b = r.incidents[0]
    assert b["replay"] == {"supported": False, "reason": "cluster capture"}
    with pytest.raises(ConfigurationError, match="cluster capture"):
        replay_bundle(b)


def test_preload_state_seeds_detectors_and_recorder():
    src = rec()
    for i in range(80):
        src.record_completion(req(i), now=100 * (i + 1), missed=False)
    src.observe_queue(9000, 7)
    src.external_trigger(9500, "external", "a", 1.0)
    src.end_event(10_000, idle=True)
    bundle = src.incidents[0]

    dst = rec()
    dst.preload_state(bundle)
    lat = dst.engine.detectors["latency_cycles"]
    ref = bundle["detector_state"]["streams"]["latency_cycles"]
    assert (lat.count, lat.mean, lat.var) == \
        (ref["count"], ref["mean"], ref["var"])
    assert dst._last_depth == bundle["recorder_state"]["last_depth"]
    assert dst._cooldown_until == bundle["recorder_state"]["cooldown_until"]


def test_spiked_cost_model_validation():
    with pytest.raises(ConfigurationError):
        SpikeInjection(start_cycle=10, end_cycle=10, extra_cycles=5)
    with pytest.raises(ConfigurationError):
        SpikeInjection(start_cycle=0, end_cycle=10, extra_cycles=0)
    s = SpikeInjection(start_cycle=1, end_cycle=9, extra_cycles=5)
    assert SpikeInjection.from_dict(s.as_dict()) == s


# -- end to end: capture then deterministic replay ------------------------
def _capture(tmp_path, seed=5):
    cfg = ServeConfig()
    cyc = cfg.clock.freq_hz
    spike = SpikeInjection(start_cycle=int(1.0 * cyc),
                           end_cycle=int(1.2 * cyc),
                           extra_cycles=int(0.5 * cyc))
    trace = poisson_trace(
        200, TrafficConfig(rate_rps=100.0, vit_fraction=0.1), seed=seed)
    capture = {
        "kind": "serve",
        "seed": seed,
        "serve_config": serve_config_to_dict(cfg),
        "injection": spike.as_dict(),
    }
    recorder = FlightRecorder(
        RecorderConfig(anomaly=AnomalyConfig(warmup=16, latency_z=3.0)),
        run=f"t-{seed}", out_dir=tmp_path, capture=capture)
    simulate(trace, cfg, recorder=recorder, spike=spike)
    return recorder


def test_capture_replay_round_trip(tmp_path):
    recorder = _capture(tmp_path)
    assert len(recorder.incidents) >= 1
    bundle = json.loads(recorder.incident_paths[0].read_text())
    assert bundle["replay"]["supported"], bundle["replay"]
    replayed = replay_bundle(bundle)
    assert verify_replay(bundle, replayed) == []


def test_replay_divergence_is_reported(tmp_path):
    recorder = _capture(tmp_path)
    bundle = json.loads(recorder.incident_paths[0].read_text())
    bundle["expected"]["deadline_misses"] += 1
    mismatches = verify_replay(bundle, replay_bundle(bundle))
    assert len(mismatches) == 1 and "deadline_misses" in mismatches[0]


def test_capture_is_deterministic(tmp_path):
    a = _capture(tmp_path / "a")
    b = _capture(tmp_path / "b")
    assert canonical_sha256(a.incidents) == canonical_sha256(b.incidents)
