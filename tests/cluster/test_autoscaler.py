"""Autoscaler policy: thresholds, hysteresis, cool-down, signal math."""

import heapq

import pytest

from repro.cluster.autoscaler import Autoscaler, AutoscalerConfig
from repro.cluster.sharding import ShardedCostModel
from repro.cluster.topology import ClusterSpec, Replica
from repro.errors import ConfigurationError
from repro.hw.system import UnitPool
from repro.serve.dispatcher import Dispatcher, ServeConfig
from repro.serve.request import Request


def _replica(rid, n_units=2):
    events = []
    seq = [0]

    def push(t, tag, payload=None):
        heapq.heappush(events, (t, seq[0], tag, payload))
        seq[0] += 1

    r = Replica(rid, (rid,), spawned_at=0)
    r.dispatcher = Dispatcher(
        ServeConfig(), UnitPool(n_units), push,
        cost=ShardedCostModel(ServeConfig(), ClusterSpec()))
    return r


def _fill(r, n):
    for i in range(n):
        r.dispatcher.enqueue(
            Request(rid=i, kind="vit", arrival=0), now=0
        )


def _cfg(**kw):
    base = dict(min_replicas=1, max_replicas=4, interval_us=1000.0,
                cooldown_us=3000.0, provision_us=500.0,
                scale_up_queue=8.0, scale_down_queue=1.0,
                scale_up_utilization=0.85, scale_down_utilization=0.30)
    base.update(kw)
    return AutoscalerConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        AutoscalerConfig(min_replicas=0)
    with pytest.raises(ConfigurationError):
        AutoscalerConfig(min_replicas=3, max_replicas=2)
    with pytest.raises(ConfigurationError):
        AutoscalerConfig(scale_up_queue=4.0, scale_down_queue=4.0)
    with pytest.raises(ConfigurationError):
        AutoscalerConfig(scale_up_utilization=0.3,
                         scale_down_utilization=0.3)


@pytest.mark.parametrize("field", ["provision_us", "cooldown_us"])
def test_negative_delays_rejected(field):
    # A negative provisioning delay would spawn replicas before the run
    # starts (spawned_at < 0), and utilization would count that span.
    with pytest.raises(ConfigurationError, match="cannot be negative"):
        AutoscalerConfig(**{field: -5000.0})
    assert getattr(AutoscalerConfig(**{field: 0.0}), field) == 0.0


def test_scale_up_on_queue_pressure():
    s = Autoscaler(_cfg())
    r = _replica(0)
    _fill(r, 20)
    assert s.decide(s.interval, [r], free_capacity=3) == "up"


def test_no_scale_up_without_free_boards():
    s = Autoscaler(_cfg())
    r = _replica(0)
    _fill(r, 20)
    assert s.decide(s.interval, [r], free_capacity=0) is None


def test_no_scale_up_past_max():
    s = Autoscaler(_cfg(max_replicas=2))
    replicas = [_replica(0), _replica(1)]
    for r in replicas:
        _fill(r, 20)
    assert s.decide(s.interval, replicas, free_capacity=2) is None
    # provisioning replicas count against the budget too
    s2 = Autoscaler(_cfg(max_replicas=2))
    r = _replica(0)
    _fill(r, 20)
    assert s2.decide(s2.interval, [r], pending_up=1, free_capacity=2) is None


def test_scale_down_needs_both_signals_low():
    s = Autoscaler(_cfg())
    idle = [_replica(0), _replica(1)]
    assert s.decide(s.interval, idle) == "down"
    # queue low but utilization high: stay
    s2 = Autoscaler(_cfg(scale_down_utilization=0.3))
    busy = [_replica(0), _replica(1)]
    for r in busy:
        r.dispatcher.pool.assign(0, 0, s2.interval, "x")
        r.dispatcher.pool.assign(1, 0, s2.interval, "x")
    assert s2.decide(s2.interval, busy) is None


def test_scale_down_respects_min():
    s = Autoscaler(_cfg(min_replicas=1))
    assert s.decide(s.interval, [_replica(0)]) is None


def test_cooldown_gates_consecutive_actions():
    s = Autoscaler(_cfg())
    r = _replica(0)
    _fill(r, 20)
    assert s.decide(s.interval, [r], free_capacity=3) == "up"
    _fill(r, 20)
    # still hot one interval later, but inside the cool-down window
    assert s.decide(2 * s.interval, [r], free_capacity=3) is None
    # after the cool-down expires the signal counts again
    later = s.interval + s.cooldown
    assert s.decide(later, [r], free_capacity=3) == "up"


def test_hysteresis_band_holds_steady():
    # pressure between the two thresholds: no action either way
    s = Autoscaler(_cfg(scale_up_queue=10.0, scale_down_queue=2.0))
    r = _replica(0)
    _fill(r, 5)
    r.dispatcher.pool.assign(0, 0, s.interval // 2, "x")  # util ~0.25... mid
    assert s.decide(s.interval, [_replica(1), r],
                    free_capacity=2) is None


def test_window_utilization_is_delta_based():
    s = Autoscaler(_cfg())
    r = _replica(0, n_units=1)
    r.dispatcher.pool.assign(0, 0, s.interval, "x")
    _, util1 = s.signals(s.interval, [r])
    assert util1 == pytest.approx(1.0)
    # nothing new in the second window: utilization collapses
    _, util2 = s.signals(2 * s.interval, [r])
    assert util2 == 0.0


def test_events_record():
    s = Autoscaler(_cfg())
    ev = s.record(100, "scale_up", 1, 2, 12.0, 0.9, "queue 12 > 8")
    assert s.events == [ev]
    d = ev.as_dict()
    assert d["action"] == "scale_up" and d["cycle"] == 100
    assert d["burn_rate"] == 0.0  # no SLO wired: annotated as zero


def test_events_record_burn_rate():
    s = Autoscaler(_cfg(scale_up_burn_rate=2.0))
    ev = s.record(100, "scale_up", 1, 2, 1.0, 0.1, "burn 3.10 > 2", 3.1)
    assert ev.burn_rate == 3.1
    assert ev.as_dict()["burn_rate"] == 3.1


def test_burn_rate_config_validation():
    with pytest.raises(ConfigurationError):
        _cfg(scale_up_burn_rate=0.0)
    with pytest.raises(ConfigurationError):
        _cfg(scale_up_burn_rate=-1.0)


def test_burn_triggers_scale_up_before_load_signals():
    s = Autoscaler(_cfg(scale_up_burn_rate=2.0))
    r = _replica(0)  # idle: queue and utilization far below thresholds
    assert s.decide(s.interval, [r], free_capacity=3, burn_rate=2.5) == "up"
    # without SLO coupling the same burn is ignored
    s2 = Autoscaler(_cfg())
    assert s2.decide(s2.interval, [_replica(0)], free_capacity=3,
                     burn_rate=2.5) is None
    # burn at/below the trigger is not enough either
    s3 = Autoscaler(_cfg(scale_up_burn_rate=2.0))
    assert s3.decide(s3.interval, [_replica(0)], free_capacity=3,
                     burn_rate=2.0) is None


def test_burn_scale_up_races_cooldown():
    """A burn spike inside the cool-down window must wait it out: the
    cool-down exists to let the previous action land, and the burn signal
    gets no special bypass."""
    s = Autoscaler(_cfg(scale_up_burn_rate=2.0))
    r = _replica(0)
    _fill(r, 20)
    assert s.decide(s.interval, [r], free_capacity=3) == "up"
    # budget starts burning immediately after the queue-triggered action
    assert s.decide(2 * s.interval, [r], free_capacity=3,
                    burn_rate=5.0) is None
    # once the cool-down expires the pending burn finally fires, even
    # with the queue drained below its threshold
    idle = _replica(1)
    later = s.interval + s.cooldown
    assert s.decide(later, [idle], free_capacity=3, burn_rate=5.0) == "up"


def test_active_burn_vetoes_scale_down():
    s = Autoscaler(_cfg())
    idle = [_replica(0), _replica(1)]
    assert s.decide(s.interval, idle, burn_rate=1.0) is None
    # the veto needs no scale_up_burn_rate opt-in; burn < 1 releases it
    s2 = Autoscaler(_cfg())
    idle2 = [_replica(0), _replica(1)]
    assert s2.decide(s2.interval, idle2, burn_rate=0.5) == "down"


def test_scale_down_during_replica_drain():
    """A draining replica is out of the fleet for every signal: it holds
    no budget, contributes no queue/utilization, and the min-replica
    floor is judged on active replicas only."""
    s = Autoscaler(_cfg(min_replicas=1))
    draining = _replica(0)
    draining.state = "draining"
    _fill(draining, 30)  # deep backlog on the drain must not read as load
    idle = [_replica(1), _replica(2)]
    depth, util = s.signals(s.interval, [draining] + idle)
    assert depth == 0.0 and util == 0.0
    # two active idles above the floor: a second drain may start
    s2 = Autoscaler(_cfg(min_replicas=1))
    assert s2.decide(s2.interval, [draining] + idle) == "down"
    # but with one active left, the draining replica does not count
    # toward the floor — never drain the last active instance
    s3 = Autoscaler(_cfg(min_replicas=1))
    assert s3.decide(s3.interval, [draining, _replica(3)]) is None
