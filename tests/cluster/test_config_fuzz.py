"""Config fuzz: every drawn run raises ConfigurationError or runs clean.

Each example draws serving, batching, clock, traffic, fleet and
autoscaler settings, eager or compiled decode, a precision policy preset
or none, unit-mode options or none, an optional latency spike, and
optional SLO and flight-recorder settings, then builds the configs and
the trace and runs the single pool or the cluster.  The unit-mode
options are an alignment-prediction fraction, or fp16 routed onto the
``fp16_dot`` array; the latter is drawn with the ``fp16-linear`` preset,
the one preset it changes.  Up to two of the settings the run uses are
drawn degenerate: a zero or negative capacity, count, rate or duration,
an empty user pool, an empty token range, an alignment fraction outside
[0, 1], a spike whose window ends at or before its start or that adds
no cycles, an SLO objective outside (0, 1) or a window pair out of
order, or a recorder ring, epoch bound, cooldown or anomaly threshold
below its floor.  Every other setting is drawn from values a run can
take, which include one-unit boards, a one-item queue, zero requests, a
spike window inside the trace, one-entry recorder rings and anomaly
thresholds of 0 (a z threshold of 0 disables its stream).

A degenerate setting must raise :class:`~repro.errors.ConfigurationError`
with a message.  Otherwise the configs may still be rejected as a
combination, but anything other than ConfigurationError that escapes
fails the test, and a run that goes through must end clean: every
request completes or is rejected, no replica spawns before the run
starts, and every utilization is in [0, 1].

Some draws also run traced, with request-path stages on at a drawn
sampling rate and span budget; the small budget drops spans.  The
dispatcher then checks that the stages of every request that kept all
its spans tile its latency, and the exported trace must validate.  The
export must also equal the dict-building reference built from the
tracer's event lists, and each list's ``len()`` (read from the tracer's
counts) must equal the number of events it yields.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    AutoscalerConfig,
    ClusterConfig,
    ClusterSpec,
    ShardPlan,
    simulate_cluster,
)
from repro.cost.modes import ModeOptions
from repro.errors import ConfigurationError
from repro.models.policy import POLICY_PRESETS
from repro.obs.anomaly import AnomalyConfig
from repro.obs.incident_cli import SpikeInjection
from repro.obs.recorder import FlightRecorder, RecorderConfig
from repro.obs.slo import NULL_SLO, SLOClass, SLOConfig, SLOTracker
from repro.obs.tracer import NULL_TRACER, RequestPathConfig, Tracer, validate_chrome_trace
from repro.perf.throughput import ClockConfig
from repro.serve.batcher import BatchPolicy
from repro.serve.dispatcher import ServeConfig, simulate
from repro.serve.request import (
    DiurnalConfig,
    TrafficConfig,
    diurnal_trace,
    poisson_trace,
)
from tests.obs.trace_reference import reference_json

NON_POSITIVE = st.integers(-1, 0)
TOKENS = st.integers(1, 8).flatmap(
    lambda lo: st.tuples(st.just(lo), st.integers(lo, 12)))
EMPTY_TOKENS = st.sampled_from([(0, 8), (5, 3), (-2, -1)])
#: (start, end, extra) of a spike that must be refused.
BAD_SPIKES = st.one_of(
    st.tuples(st.integers(0, 10**6), st.integers(-10**6, 0),
              st.integers(1, 10**5)).map(lambda t: (t[0], t[0] + t[1], t[2])),
    st.tuples(st.integers(0, 10**6), st.integers(1, 10**6),
              st.integers(-10**5, 0)).map(lambda t: (t[0], t[0] + t[1], t[2])),
)

#: setting -> (usable values, degenerate values)
SERVE = {
    "max_batch": (st.integers(1, 8), NON_POSITIVE),
    "max_wait_us": (st.sampled_from([0.0, 100.0, 400.0]), st.just(-500.0)),
    "vit_max_batch": (st.integers(1, 2), NON_POSITIVE),
    "max_queue": (st.integers(1, 24), NON_POSITIVE),
    "max_sessions_per_unit": (st.integers(1, 4), NON_POSITIVE),
    "freq_hz": (st.sampled_from([150e6, 300e6]),
                st.sampled_from([-1.0, 0.0])),
    "rate_rps": (st.sampled_from([200.0, 4000.0]),
                 st.sampled_from([-10.0, 0.0])),
    "vit_fraction": (st.sampled_from([0.0, 0.3, 1.0]),
                     st.sampled_from([-0.5, 1.5])),
    "prompt_tokens": (TOKENS, EMPTY_TOKENS),
    "gen_tokens": (TOKENS, EMPTY_TOKENS),
    "n_users": (st.one_of(st.none(), st.integers(1, 4)), NON_POSITIVE),
    # Usable: no options, fp16 routed onto the fp16_dot array, or an
    # alignment-prediction fraction; degenerate: a fraction outside [0, 1].
    "modes": (st.sampled_from([None, "fp16", 0.0, 0.5, 1.0]),
              st.sampled_from([-0.5, 1.5])),
    # Usable: whether to inject a spike, its window drawn once the trace
    # is known.
    "spike": (st.booleans(), BAD_SPIKES),
}
SINGLE_POOL = {"n_units": (st.integers(1, 3), NON_POSITIVE)}
CLUSTER = {
    "boards": (st.integers(1, 4), NON_POSITIVE),
    "units_per_board": (st.integers(1, 4), NON_POSITIVE),
    "boards_per_replica": (st.integers(1, 2), NON_POSITIVE),
    "tp": (st.integers(1, 2), NON_POSITIVE),
    "pp": (st.integers(1, 2), NON_POSITIVE),
    "initial_replicas": (st.integers(1, 2), NON_POSITIVE),
    "max_cluster_queue": (st.integers(1, 24), NON_POSITIVE),
}
AUTOSCALER = {
    "min_replicas": (st.integers(1, 2), NON_POSITIVE),
    "max_replicas": (st.integers(1, 3), NON_POSITIVE),
    "interval_us": (st.sampled_from([500.0, 2000.0]),
                    st.sampled_from([-500.0, 0.0])),
    "cooldown_us": (st.sampled_from([0.0, 100.0, 2000.0]), st.just(-500.0)),
    "provision_us": (st.sampled_from([0.0, 100.0, 2000.0]),
                     st.just(-5000.0)),
}

SLO = {
    "objective": (st.sampled_from([0.5, 0.99, 0.999]),
                  st.sampled_from([0.0, 1.0, 1.5])),
    # (short, long) burn windows in ms.
    "windows": (st.sampled_from([(0.1, 1.0), (250.0, 1000.0)]),
                st.sampled_from([(0.0, 10.0), (50.0, 50.0), (100.0, 10.0)])),
}
Z = (st.sampled_from([0.0, 1.0, 5.0]), st.just(-1.0))
RECORDER = {
    "ring_requests": (st.integers(1, 64), NON_POSITIVE),
    "ring_metrics": (st.integers(1, 64), NON_POSITIVE),
    "ring_decisions": (st.integers(1, 64), NON_POSITIVE),
    "ring_numerics": (st.integers(1, 8), NON_POSITIVE),
    "max_epoch_requests": (st.integers(1, 64), NON_POSITIVE),
    "cooldown_cycles": (st.sampled_from([0, 10**4, 3 * 10**7]), st.just(-1)),
    "latency_z": Z,
    "queue_z": Z,
    "occupancy_z": Z,
    "sqnr_z": Z,
    "burn_threshold": (st.sampled_from([0.0, 0.5, 8.0]), st.just(-1.0)),
}


def _observers(draw, v: dict, clock: ClockConfig, cluster: bool,
               tracer) -> dict:
    """The SLO tracker and flight recorder the drawn settings ask for."""
    obs = {}
    if "objective" in v:
        short, long = v["windows"]
        obs["slo"] = SLOTracker(SLOConfig(
            classes=(SLOClass("vit", v["objective"]), SLOClass("llm")),
            short_window_ms=short, long_window_ms=long,
            count_rejections=draw(st.booleans())), clock=clock)
    if "ring_requests" in v:
        anomaly = AnomalyConfig(**{k: v[k] for k in (
            "latency_z", "queue_z", "occupancy_z", "sqnr_z",
            "burn_threshold")}, warmup=draw(st.sampled_from([0, 4, 64])))
        config = RecorderConfig(anomaly=anomaly, **{k: v[k] for k in (
            "ring_requests", "ring_metrics", "ring_decisions",
            "ring_numerics", "max_epoch_requests", "cooldown_cycles")})
        slo = obs.get("slo", NULL_SLO)
        capture = ({"slo": {"long_window_cycles": slo._long_cycles}}
                   if slo.enabled else {})
        obs["recorder"] = FlightRecorder(
            config, capture=capture, tracer=tracer, replayable=not cluster)
    return obs


def _run(draw, settings_used: dict, bad: set, cluster: bool, autoscale: bool,
         obs: dict):
    """Build the configs and the trace from the drawn settings and run
    with the ``obs`` keywords (tracer and request path), plus the SLO
    tracker and recorder the drawn settings ask for."""
    v = {}
    for name, (usable, degenerate) in settings_used.items():
        v[name] = draw(degenerate if name in bad else usable)
    clock = ClockConfig(freq_hz=v["freq_hz"], n_units=v.get("n_units", 15))
    obs = {**obs, **_observers(draw, v, clock, cluster, obs["tracer"])}
    modes, preset = None, draw(st.sampled_from([None, *sorted(POLICY_PRESETS)]))
    if v["modes"] == "fp16":
        modes, preset = ModeOptions(overrides=(("fp16", "fp16_dot"),)), "fp16-linear"
    elif v["modes"] is not None:
        modes = ModeOptions(align_narrow_frac=v["modes"])
    serve = ServeConfig(
        policy=BatchPolicy(max_batch=v["max_batch"],
                           max_wait_us=v["max_wait_us"],
                           vit_max_batch=v["vit_max_batch"]),
        max_queue=v["max_queue"],
        max_sessions_per_unit=v["max_sessions_per_unit"],
        clock=clock,
        precision=POLICY_PRESETS[preset]() if preset is not None else None,
        modes=modes,
        compiled=draw(st.booleans()),
    )
    traffic = TrafficConfig(
        rate_rps=v["rate_rps"], vit_fraction=v["vit_fraction"],
        prompt_tokens=v["prompt_tokens"], gen_tokens=v["gen_tokens"],
        vit_deadline_ms=draw(st.sampled_from([None, 0.0, 50.0])),
        llm_deadline_ms=draw(st.sampled_from([None, 0.0, 200.0])),
    )
    n, seed = draw(st.integers(0, 40)), draw(st.integers(0, 3))
    if draw(st.booleans()):
        trace = diurnal_trace(n, traffic, DiurnalConfig(period_s=0.01),
                              seed=seed, clock=clock, n_users=v["n_users"])
    else:
        trace = poisson_trace(n, traffic, seed=seed, clock=clock,
                              n_users=v["n_users"])
    spike = None
    if "spike" in bad:
        spike = SpikeInjection(*v["spike"])
    elif v["spike"]:
        last = trace[-1].arrival if trace else 0
        start = draw(st.integers(0, last))
        spike = SpikeInjection(start, draw(st.integers(start + 1, last + 1)),
                               draw(st.integers(1, 10**5)))
    if not cluster:
        return trace, simulate(trace, serve, spike=spike, **obs), []
    autoscaler = None
    if autoscale:
        autoscaler = AutoscalerConfig(
            min_replicas=v["min_replicas"], max_replicas=v["max_replicas"],
            interval_us=v["interval_us"], cooldown_us=v["cooldown_us"],
            provision_us=v["provision_us"],
        )
    config = ClusterConfig(
        serve=serve,
        spec=ClusterSpec(
            boards=v["boards"], units_per_board=v["units_per_board"],
            boards_per_replica=v["boards_per_replica"],
            plan=ShardPlan(tp=v["tp"], pp=v["pp"]),
        ),
        autoscaler=autoscaler,
        initial_replicas=v["initial_replicas"],
        max_cluster_queue=v["max_cluster_queue"],
        spike=spike,
    )
    report = simulate_cluster(trace, config, **obs)
    return trace, report, report.per_replica


@settings(max_examples=400)
@given(data=st.data())
def test_config_fuzz_raises_cleanly_or_runs_clean(data):
    draw = data.draw
    cluster = draw(st.booleans())
    autoscale = cluster and draw(st.booleans())
    used = {**SERVE, **(CLUSTER if cluster else SINGLE_POOL),
            **(AUTOSCALER if autoscale else {}),
            **(SLO if draw(st.booleans()) else {}),
            **(RECORDER if draw(st.booleans()) else {})}
    bad = draw(st.sets(st.sampled_from(sorted(used)), max_size=2))
    obs = {"tracer": NULL_TRACER, "path": None}
    if draw(st.booleans()):
        obs = {"tracer": Tracer(), "path": RequestPathConfig(
            detail_every=draw(st.sampled_from([1, 3])),
            max_spans_per_request=draw(st.sampled_from([8, 512])))}
    if bad:
        with pytest.raises(ConfigurationError, match="."):
            _run(draw, used, bad, cluster, autoscale, obs)
        return
    try:
        trace, report, replicas = _run(draw, used, bad, cluster, autoscale, obs)
    except ConfigurationError as e:  # a rejected combination
        assert str(e)
        return
    s = report.summary
    assert s["arrivals"] == len(trace)
    assert s["completed"] + s["rejected"] == len(trace)
    assert 0.0 <= s["utilization"] <= 1.0
    for row in replicas:
        assert row["spawned_at"] >= 0
        assert 0.0 <= row["utilization"] <= 1.0
    tracer = obs["tracer"]
    if not tracer.enabled:
        return
    text = tracer.to_json()
    assert text == reference_json(tracer)
    for view in (tracer.spans, tracer.async_spans, tracer.flows,
                 tracer.counters):
        assert len(view) == len(list(view))
    if tracer.async_spans:
        validate_chrome_trace(json.loads(text))
