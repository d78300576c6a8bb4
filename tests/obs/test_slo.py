"""SLO engine: budgets, burn windows, null object, trace reconstruction."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.slo import (
    NULL_SLO,
    SLOClass,
    SLOConfig,
    SLOTracker,
    requests_from_trace,
    slo_report_from_trace,
)
from repro.obs.tracer import Tracer
from repro.serve.request import Request


def req(rid, kind="llm", deadline=None):
    tokens = {"prompt_tokens": 16, "gen_tokens": 4} if kind == "llm" else {}
    return Request(rid=rid, kind=kind, arrival=0, deadline=deadline, **tokens)


def tracker(**kw):
    cfg = dict(classes=(SLOClass("vit"), SLOClass("llm")),
               short_window_ms=1.0, long_window_ms=4.0)
    cfg.update(kw)
    return SLOTracker(SLOConfig(**cfg))


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SLOClass("vit", objective=1.0)
    with pytest.raises(ConfigurationError):
        SLOClass("vit", objective=0.0)
    with pytest.raises(ConfigurationError):
        SLOConfig(classes=())
    with pytest.raises(ConfigurationError):
        SLOConfig(classes=(SLOClass("a"), SLOClass("a")))
    with pytest.raises(ConfigurationError):
        SLOConfig(short_window_ms=100.0, long_window_ms=100.0)
    assert SLOClass("vit", objective=0.99).error_budget == pytest.approx(0.01)


def test_miss_accounting_and_budget():
    t = tracker()
    assert t.record_completion(req(0, deadline=100), now=50) is False
    assert t.record_completion(req(1, deadline=100), now=150) is True
    assert t.record_completion(req(2, deadline=None), now=10**9) is False
    snap = t.snapshot(10**9)
    llm = snap["classes"]["llm"]
    assert llm["completed"] == 3
    assert llm["deadline_misses"] == 1
    assert llm["miss_fraction"] == pytest.approx(1 / 3)
    assert llm["budget_consumed"] == pytest.approx((1 / 3) / llm["error_budget"])


def test_rejections_count_against_budget_by_default():
    t = tracker()
    t.record_rejection(req(0), now=10)
    snap = t.snapshot(10)
    assert snap["classes"]["llm"]["rejected"] == 1
    assert snap["classes"]["llm"]["bad_fraction"] == 1.0

    quiet = tracker(count_rejections=False)
    quiet.record_rejection(req(0), now=10)
    assert quiet.snapshot(10)["classes"]["llm"]["bad_fraction"] == 0.0


def test_burn_is_sustained_min_of_windows():
    t = tracker()
    short = t._short_cycles
    long_ = t._long_cycles
    assert short < long_
    # A burst of misses right now: short window burns hot.
    for i in range(10):
        t.record_completion(req(i, deadline=0), now=long_ - 10 + i)
    now = long_ - 1
    burns = t.burn_rates(now)["llm"]
    assert burns["short"] > 0 and burns["long"] > 0
    assert burns["sustained"] == min(burns["short"], burns["long"])
    assert t.class_burn("llm", now) == burns["sustained"]
    # Move past the short window: the spike decays out of "sustained".
    later = now + short + 1
    assert t.burn_rates(later)["llm"]["short"] == 0.0
    assert t.class_burn("llm", later) == 0.0


def test_fleet_burn_is_worst_class():
    t = tracker()
    t.record_completion(req(0, kind="vit", deadline=0), now=100)  # miss
    t.record_completion(req(1, kind="llm", deadline=10**9), now=100)  # ok
    assert t.fleet_burn(100) == t.class_burn("vit", 100) > 0.0


def test_unknown_class_adopts_default_objective():
    t = SLOTracker(SLOConfig(classes=(SLOClass("vit"),)))
    t.record_completion(req(0, kind="llm", deadline=0), now=5)
    snap = t.snapshot(5)
    assert snap["classes"]["llm"]["objective"] == 0.99
    assert snap["classes"]["llm"]["deadline_misses"] == 1


def test_window_pruning():
    t = tracker()
    t.record_completion(req(0, deadline=0), now=10)  # miss
    far = 10 + t._long_cycles + 1
    assert t.class_burn("llm", far) == 0.0
    # run-level counters are not windowed
    assert t.snapshot(far)["classes"]["llm"]["deadline_misses"] == 1


def test_window_prune_exact_boundary():
    """An event at cycle c leaves the window exactly at now == c + window
    (prune evicts on ``<= cutoff``): the window is a half-open interval
    (now - window, now]."""
    from repro.obs.slo import _WindowCounter

    w = _WindowCounter(100)
    w.add(10, True)
    w.prune(109)  # cutoff 9 < 10: still inside
    assert w.bad == 1 and len(w.events) == 1
    w.prune(110)  # cutoff 10 == 10: evicted on the boundary
    assert w.bad == 0 and len(w.events) == 0
    # Symmetric check through the tracker's long-window burn.
    t = tracker()
    t.record_completion(req(0, deadline=0), now=10)
    assert t.burn_rates(10 + t._long_cycles - 1)["llm"]["long"] > 0.0
    assert t.burn_rates(10 + t._long_cycles)["llm"]["long"] == 0.0


def test_null_tracker_is_inert():
    assert NULL_SLO.enabled is False
    assert isinstance(NULL_SLO, SLOTracker)
    assert NULL_SLO.record_completion(req(0, deadline=0), now=100) is False
    NULL_SLO.record_rejection(req(1), now=100)
    assert NULL_SLO.fleet_burn(100) == 0.0
    assert NULL_SLO.class_burn("llm", 100) == 0.0
    assert NULL_SLO.snapshot(100) == {}


# -- trace reconstruction ----------------------------------------------------

def _request_trace():
    """Two requests: one detailed llm miss, one undetailed vit hit."""
    t = Tracer(meta={"seed": 0})
    # llm request 0: [0, 100], deadline 80 -> miss; full stage detail.
    t.async_span("llm-0", span_id=0, start=0, end=100, cat="llm",
                 args={"deadline": 80})
    t.async_span("queue", span_id=0, start=0, end=40, cat="llm")
    t.async_span("batch_wait", span_id=0, start=40, end=60, cat="llm")
    t.async_span("shard_compute", span_id=0, start=60, end=100, cat="llm")
    # vit request 1: [10, 50], deadline 90 -> hit; no stage detail.
    t.async_span("vit-1", span_id=1, start=10, end=50, cat="vit",
                 args={"deadline": 90})
    return t.to_chrome_trace()


def test_requests_from_trace_rebuilds_records():
    recs = {r["rid"]: r for r in requests_from_trace(_request_trace())}
    llm = recs[0]
    assert llm["kind"] == "llm" and llm["latency"] == 100
    assert llm["missed"] is True and llm["deadline"] == 80
    assert llm["detailed"] is True
    assert llm["stages"] == {"queue": 40, "batch_wait": 20,
                             "shard_compute": 40}
    assert llm["coverage"] == pytest.approx(1.0)
    vit = recs[1]
    assert vit["missed"] is False and vit["detailed"] is False
    assert vit["coverage"] is None


def test_requests_from_trace_rejects_ambiguous_groups():
    t = Tracer()
    t.async_span("llm-0", span_id=0, start=0, end=10, cat="llm")
    t.async_span("also-parent", span_id=0, start=0, end=10, cat="llm")
    with pytest.raises(ConfigurationError):
        requests_from_trace(t.to_chrome_trace())


def test_slo_report_from_trace():
    report = slo_report_from_trace(_request_trace())
    assert report["requests"] == 2
    assert report["deadline_misses"] == 1
    assert report["deadline_miss_rate"] == pytest.approx(0.5)
    assert report["sampled_requests"] == 1
    assert report["coverage_min"] == pytest.approx(1.0)
    assert report["classes"]["llm"]["miss_fraction"] == 1.0
    assert report["classes"]["vit"]["miss_fraction"] == 0.0
    attr = report["attribution"]
    assert attr["queue"]["fraction"] == pytest.approx(0.4)
    assert attr["shard_compute"]["fraction"] == pytest.approx(0.4)
    assert attr["respond"]["cycles"] == 0


def test_slo_report_custom_objectives():
    report = slo_report_from_trace(_request_trace(),
                                   objectives={"llm": 0.5})
    assert report["classes"]["llm"]["objective"] == 0.5
    assert report["classes"]["llm"]["budget_consumed"] == pytest.approx(2.0)
    assert report["classes"]["vit"]["objective"] == 0.99


def test_slo_report_empty_trace_rejected():
    t = Tracer()
    t.span("x", track="u", start=0, end=1)
    with pytest.raises(ConfigurationError):
        slo_report_from_trace(t.to_chrome_trace())
