"""Tests for the online dispatcher: admission control, backpressure,
accounting, the one-pass dispatch scan and the per-phase completion pass."""

import cProfile
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import RequestPathConfig, Tracer
from repro.perf.throughput import ClockConfig
from repro.serve.batcher import BatchPolicy, DynamicBatcher
from repro.serve.dispatcher import Dispatcher, ServeConfig, simulate
from repro.serve.request import (
    Request,
    TrafficConfig,
    poisson_trace,
    trace_from_rows,
)


def vit_burst(n: int, arrival: int = 0, spacing: int = 1) -> list[Request]:
    return [Request(i, "vit", arrival + i * spacing) for i in range(n)]


def llm_burst(n: int, prompt: int = 8, gen: int = 4, spacing: int = 1) -> list[Request]:
    return [
        Request(i, "llm", i * spacing, prompt_tokens=prompt, gen_tokens=gen)
        for i in range(n)
    ]


class TestAdmissionControl:
    @pytest.mark.parametrize("max_queue", [0, -1])
    def test_queue_must_admit_something(self, max_queue):
        # A zero-length queue would run and reject every request.
        with pytest.raises(ConfigurationError, match="max_queue"):
            ServeConfig(max_queue=max_queue)
        assert ServeConfig(max_queue=1).max_queue == 1

    def test_bounded_queue_sheds_burst(self):
        # A burst beyond what the units can absorb in flight (15 units x
        # max_batch 8 = 120) plus the 16-deep intake queue: the overflow
        # must be rejected, not silently queued.
        cfg = ServeConfig(max_queue=16, policy=BatchPolicy(
            max_batch=8, max_wait_us=1000.0, vit_max_batch=8))
        report = simulate(vit_burst(200, spacing=0), cfg)
        s = report.summary
        assert s["rejected"] == 200 - (15 * 8 + 16)
        assert s["arrivals"] == 200
        assert s["completed"] + s["rejected"] == 200
        assert s["rejection_rate"] == pytest.approx(s["rejected"] / 200)

    def test_no_rejections_when_queue_fits(self):
        cfg = ServeConfig(max_queue=512)
        report = simulate(vit_burst(32, spacing=0), cfg)
        assert report.summary["rejected"] == 0
        assert report.summary["completed"] == 32

    def test_decode_continuations_never_shed(self):
        # A tiny intake queue rejects some *arrivals*, but every admitted
        # LLM request must still produce all its tokens — continuation
        # decode items bypass admission control.
        cfg = ServeConfig(max_queue=4, policy=BatchPolicy(max_batch=8,
                                                          max_wait_us=100.0))
        report = simulate(llm_burst(40, gen=6, spacing=0), cfg)
        s = report.summary
        admitted = s["arrivals"] - s["rejected"]
        assert s["rejected"] > 0
        assert s["completed"] == admitted
        assert s["tokens_out"] == admitted * 6


class TestBackpressure:
    def test_session_slots_throttle_prefill(self):
        # More concurrent generations than total KV slots: the simulation
        # must still drain (prefill waits for slots) and peak resident KV
        # must respect the per-unit bound.
        cfg = ServeConfig(
            max_sessions_per_unit=1,
            policy=BatchPolicy(max_batch=4, max_wait_us=50.0),
        )
        report = simulate(llm_burst(30, gen=8, spacing=0), cfg)
        s = report.summary
        assert s["completed"] == 30
        n_units = cfg.clock.n_units
        per_session = cfg.profile.kv_bytes_per_token * (8 + 8)  # prompt+gen
        cap_mib = n_units * 1 * per_session / 2**20
        assert s["active_sessions_peak_kv_mib"] <= cap_mib + 1e-9

    def test_all_work_accounted(self):
        trace = poisson_trace(
            200, TrafficConfig(rate_rps=500.0, vit_fraction=0.5), seed=2
        )
        report = simulate(trace)
        s = report.summary
        assert s["completed"] + s["rejected"] == 200
        want_tokens = sum(
            r.gen_tokens for r in trace if r.kind == "llm"
        )
        if s["rejected"] == 0:
            assert s["tokens_out"] == want_tokens


class TestDispatchShape:
    def test_batches_form_under_load(self):
        # Saturating arrivals with a generous window must produce
        # multi-item batches, not batch-of-1 dispatches.
        cfg = ServeConfig(policy=BatchPolicy(max_batch=8, max_wait_us=500.0))
        report = simulate(llm_burst(120, spacing=0), cfg)
        assert report.summary["mean_batch_size"] > 1.5

    def test_busy_units_have_positive_utilization(self):
        report = simulate(vit_burst(30, spacing=0))
        s = report.summary
        assert 0.0 < s["utilization"] <= 1.0
        assert report.pool.makespan > 0

    def test_empty_trace(self):
        report = simulate([])
        s = report.summary
        assert s["arrivals"] == 0 and s["completed"] == 0
        assert s["tokens_per_s"] == 0.0


# ---------------------------------------------------------------------------
# The dispatch scan and the completion pass equal their per-unit and
# per-item references
# ---------------------------------------------------------------------------

def reference_try_dispatch(self, now):
    """The scan the single pass replaced: offer every idle unit, lowest
    first, and restart from the lowest idle unit after each launch."""
    while self.idle:
        for u in sorted(self.idle):
            batch = self.batcher.pop_ready(
                now, u,
                prefill_slots=self.sessions.free_slots(u),
                decode_sessions=self.sessions.active(u),
            )
            if batch is not None:
                self._launch(u, batch, now)
                break
        else:
            break
    if self.idle and self.batcher.depth():
        expiry = self.batcher.next_expiry(now)
        if expiry is not None and expiry not in self._pending_wakes:
            self._pending_wakes.add(expiry)
            self.push(expiry, "wake", self)


def reference_on_finish(self, unit, batch, now):
    """The completion the per-phase pass replaced: each item on its own,
    one token-count update per decode item."""
    self.idle.add(unit)
    for item in batch.items:
        req = item.request
        if item.phase == "vit":
            self._complete_request(req, now)
        elif item.phase == "prefill":
            self.batcher.add(self.sessions.first_decode_item(req.rid, now))
        else:  # decode: one generated token
            self.metrics.tokens_out += 1
            if item.step == 0:
                self.metrics.ttft.append(now - req.arrival)
            nxt = self.sessions.step(req.rid, now)
            if nxt is None:
                self._complete_request(req, now)
            else:
                self.batcher.add(nxt)


CONFIGS = st.builds(
    lambda units, max_batch, vit_max_batch, wait_us, max_queue, slots:
    ServeConfig(
        clock=ClockConfig(n_units=units),
        policy=BatchPolicy(max_batch=max_batch, max_wait_us=wait_us,
                           vit_max_batch=vit_max_batch),
        max_queue=max_queue,
        max_sessions_per_unit=slots,
    ),
    st.one_of(st.integers(1, 4), st.just(15)),
    st.integers(1, 8),
    st.integers(1, 3),
    st.sampled_from((0.0, 50.0, 200.0, 1000.0)),
    st.sampled_from((4, 16, 512)),
    st.integers(1, 4),
)

POISSON_TRACES = st.builds(
    lambda n, rate, vit_fraction, seed: poisson_trace(
        n, TrafficConfig(rate_rps=rate, vit_fraction=vit_fraction),
        seed=seed),
    st.integers(1, 80),
    st.floats(50.0, 20000.0),
    st.floats(0.0, 1.0),
    st.integers(0, 2**16),
)

ROWS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("vit")}),
    st.fixed_dictionaries({"kind": st.just("llm"),
                           "prompt_tokens": st.integers(1, 64),
                           "gen_tokens": st.integers(1, 12)}),
)


@st.composite
def burst_traces(draw):
    """Requests arriving at one or two shared cycles.  Poisson gaps are at
    least a cycle, so only these traces can make several vit/prefill
    batches ready at one instant, which the re-check after a vit or
    prefill launch exists for."""
    cycles = draw(st.lists(st.integers(0, 30_000), min_size=1, max_size=2))
    rows = draw(st.lists(ROWS, min_size=2, max_size=60))
    return trace_from_rows(
        [dict(row, arrival=draw(st.sampled_from(cycles))) for row in rows])


def _run(trace, config):
    tracer = Tracer()
    report = simulate(trace, config, tracer=tracer,
                      registry=MetricsRegistry(enabled=False),
                      path=RequestPathConfig(detail_every=1))
    return (report.to_json(), tracer.to_json(),
            [t.jobs for t in report.pool.timelines])


@settings(max_examples=100)
@given(st.one_of(POISSON_TRACES, burst_traces()), CONFIGS)
@example(  # at the window's expiry a vit batch and a slot-capped prefill
    # batch are both ready on two idle units
    trace_from_rows([{"kind": "vit", "arrival": 0}] + [
        {"kind": "llm", "arrival": 0, "prompt_tokens": 8, "gen_tokens": 2}
    ] * 3),
    ServeConfig(clock=ClockConfig(n_units=2),
                policy=BatchPolicy(max_batch=8, max_wait_us=50.0,
                                   vit_max_batch=2),
                max_sessions_per_unit=1),
)
def test_one_pass_scan_matches_restarting_scan(trace, config):
    """Offering work only where it can start, in one lowest-first pass,
    launches exactly what the restarting scan over every idle unit does,
    and completing a finished batch in one pass per phase records exactly
    what completing its items one by one does: the report, the
    request-path trace and every unit's job list are byte-identical."""
    got = _run(trace, config)
    with mock.patch.object(Dispatcher, "try_dispatch", reference_try_dispatch), \
            mock.patch.object(Dispatcher, "on_finish", reference_on_finish):
        want = _run(trace, config)
    assert got == want


def test_scan_offers_work_only_where_it_can_start():
    """Deterministic count guard on the scan: ``pop_ready`` runs about
    once per dispatch (the restarting scan over every idle unit made
    11.2 calls per dispatch on this trace)."""
    calls = 0
    pop_ready = DynamicBatcher.pop_ready

    def counted(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        return pop_ready(self, *args, **kwargs)

    trace = poisson_trace(2000, TrafficConfig(rate_rps=100, vit_fraction=0.1),
                          seed=0)
    with mock.patch.object(DynamicBatcher, "pop_ready", counted):
        report = simulate(trace, ServeConfig(),
                          registry=MetricsRegistry(enabled=False))
    assert calls <= 1.1 * report.summary["dispatches"]


def test_python_calls_per_request_stay_bounded():
    """Deterministic count guard on the Python work per simulated request.

    cProfile counts every call to a Python function or a builtin, and
    after a warm run has filled the cost memos the count repeats exactly:
    543 per request on this run.  Completing batches item by item with
    batch size and context recomputed as properties made 833 (663 with
    only those two put back), so the bound trips on such a layer long
    before a 25% host-time bound would."""
    def run():
        trace = poisson_trace(
            2000, TrafficConfig(rate_rps=300, vit_fraction=0.1), seed=0)
        simulate(trace, ServeConfig(), registry=MetricsRegistry(enabled=False))

    run()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
    calls = sum(entry.callcount for entry in profiler.getstats())
    assert calls <= 600 * 2000
