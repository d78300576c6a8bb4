"""Tracer: span recording, Chrome-trace export, schema validation."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs.tracer import (
    DEFAULT_PROCESS,
    NULL_TRACER,
    RequestPathConfig,
    SpanContext,
    Tracer,
    validate_chrome_trace,
)


def make_trace() -> Tracer:
    t = Tracer(meta={"seed": 3})
    t.span("prefill", track="unit0", start=0, end=100, cat="dispatch",
           args={"size": 2})
    t.span("decode", track="unit1", start=50, end=80, cat="dispatch")
    t.counter("queue_depth", cycle=0, value=1)
    t.counter("queue_depth", cycle=60, value=0)
    t.async_span("llm-0", span_id=0, start=0, end=120, cat="llm",
                 args={"gen_tokens": 4})
    return t


def test_span_recording_and_busy_cycles():
    t = make_trace()
    assert t.busy_cycles() == 130
    assert t.busy_cycles(track="unit0") == 100
    assert t.busy_cycles(cat="dispatch") == 130
    assert t.busy_cycles(cat="other") == 0
    assert t.tracks() == ["unit0", "unit1"]


def test_track_ids_follow_registration_order():
    t = Tracer()
    assert t.track_id("b") == 0
    assert t.track_id("a") == 1
    assert t.track_id("b") == 0  # stable on reuse


def test_backwards_span_rejected():
    t = Tracer()
    with pytest.raises(ConfigurationError):
        t.span("bad", track="u", start=10, end=5)
    with pytest.raises(ConfigurationError):
        t.async_span("bad", span_id=1, start=10, end=5)


def test_chrome_trace_structure():
    doc = make_trace().to_chrome_trace()
    stats = validate_chrome_trace(doc)
    assert stats == {"X": 2, "M": 5, "C": 2, "b": 1, "e": 1,
                     "s": 0, "t": 0, "f": 0}
    assert doc["otherData"]["time_unit"] == "cycles"
    assert doc["otherData"]["seed"] == 3
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert xs[0]["args"] == {"size": 2}
    assert xs[0]["ts"] == 0 and xs[0]["dur"] == 100
    names = {e["args"]["name"] for e in doc["traceEvents"]
             if e["ph"] == "M" and e["name"] == "thread_name"}
    assert names == {"unit0", "unit1"}


def test_export_round_trip_is_byte_identical():
    """Golden round-trip: same recording -> identical bytes, and a parsed
    export re-serializes to the same document."""
    a, b = make_trace().to_json(), make_trace().to_json()
    assert a == b
    parsed = json.loads(a)
    assert json.dumps(parsed, sort_keys=True, separators=(",", ":")) == a


def test_validator_rejects_malformed_documents():
    good = make_trace().to_chrome_trace()
    with pytest.raises(ConfigurationError):
        validate_chrome_trace([])  # not an object
    with pytest.raises(ConfigurationError):
        validate_chrome_trace({"traceEvents": []})  # missing otherData
    with pytest.raises(ConfigurationError):
        validate_chrome_trace({"traceEvents": [], "otherData": {}})  # empty
    bad_phase = json.loads(json.dumps(good))
    bad_phase["traceEvents"][0]["ph"] = "Z"
    with pytest.raises(ConfigurationError):
        validate_chrome_trace(bad_phase)
    bad_ts = json.loads(json.dumps(good))
    for ev in bad_ts["traceEvents"]:
        if ev["ph"] == "X":
            ev["ts"] = -1
            break
    with pytest.raises(ConfigurationError):
        validate_chrome_trace(bad_ts)
    dangling = json.loads(json.dumps(good))
    dangling["traceEvents"] = [e for e in dangling["traceEvents"]
                               if e["ph"] != "e"]
    with pytest.raises(ConfigurationError):
        validate_chrome_trace(dangling)


def test_validator_rejects_boolean_cycles():
    # JSON true parses to a bool, which subclasses int; it is no cycle.
    def one_event(ts: str, dur: str) -> dict:
        return json.loads('{"otherData":{},"traceEvents":[{"dur":%s,"name":"s",'
                          '"ph":"X","pid":0,"tid":0,"ts":%s}]}' % (dur, ts))

    with pytest.raises(ConfigurationError, match="without process_name"):
        validate_chrome_trace(one_event("0", "1"))  # gets past ts and dur
    with pytest.raises(ConfigurationError, match="bad ts True"):
        validate_chrome_trace(one_event("true", "1"))
    with pytest.raises(ConfigurationError, match="bad dur True"):
        validate_chrome_trace(one_event("0", "true"))


def test_validator_rejects_async_end_before_begin():
    # requests_from_trace would read this request's latency as -5 cycles.
    def one_request(end: int) -> dict:
        return json.loads(
            '{"otherData":{},"traceEvents":[{"args":{"name":"repro-sim"},'
            '"name":"process_name","ph":"M","pid":0,"tid":0},{"args":{},'
            '"cat":"llm","id":0,"name":"llm-0","ph":"b","pid":0,"tid":0,"ts":10},'
            '{"cat":"llm","id":0,"name":"llm-0","ph":"e","pid":0,"tid":0,'
            '"ts":%d}]}' % end)

    assert validate_chrome_trace(one_request(10))["e"] == 1
    with pytest.raises(ConfigurationError, match="ends at 5 before it begins at 10"):
        validate_chrome_trace(one_request(5))


def test_null_tracer_records_nothing():
    assert NULL_TRACER.enabled is False
    assert isinstance(NULL_TRACER, Tracer)
    t = Tracer(enabled=False)
    t.span("x", track="u", start=5, end=1)  # not even validated
    t.counter("c", cycle=0, value=1)
    t.async_span("a", span_id=0, start=5, end=1)
    t.flow("s", flow_id=0, cycle=0, track="u")
    assert t.spans == [] and t.counters == [] and t.async_spans == []
    assert t.flows == []


# -- processes, flows, request paths -----------------------------------------

def test_process_registration_and_per_process_tids():
    t = Tracer()
    assert t.process_id(DEFAULT_PROCESS) == 0
    assert t.process_id("board0") == 1
    assert t.process_id("board0") == 1  # stable on reuse
    # thread ids count up independently inside each process
    assert t.track_id("lane0", "board0") == 0
    assert t.track_id("lane1", "board0") == 1
    assert t.track_id("edge") == 0  # default process starts at tid 0 too
    assert t.processes() == [DEFAULT_PROCESS, "board0"]


def test_multi_process_export_declares_every_process():
    t = Tracer()
    t.span("compute", track="lane0", start=0, end=10, process="board0")
    t.span("compute", track="lane0", start=0, end=10, process="board1")
    doc = t.to_chrome_trace()
    stats = validate_chrome_trace(doc)
    assert stats["X"] == 2
    procs = {e["args"]["name"]: e["pid"] for e in doc["traceEvents"]
             if e["ph"] == "M" and e["name"] == "process_name"}
    assert procs == {DEFAULT_PROCESS: 0, "board0": 1, "board1": 2}
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert {e["pid"] for e in xs} == {1, 2}
    assert all(e["tid"] == 0 for e in xs)  # lane0 is tid 0 on each board


def test_flow_events_export_and_validate():
    t = Tracer()
    t.span("edge", track="edge", start=0, end=1)
    t.span("compute", track="lane0", start=5, end=9, process="board0")
    t.flow("s", flow_id=7, cycle=0, track="edge")
    t.flow("t", flow_id=7, cycle=5, track="lane0", process="board0")
    t.flow("f", flow_id=7, cycle=9, track="edge")
    doc = t.to_chrome_trace()
    stats = validate_chrome_trace(doc)
    assert (stats["s"], stats["t"], stats["f"]) == (1, 1, 1)
    finish = next(e for e in doc["traceEvents"] if e["ph"] == "f")
    assert finish["bp"] == "e"  # bind to enclosing slice
    with pytest.raises(ConfigurationError):
        t.flow("q", flow_id=7, cycle=0, track="edge")


def test_validator_rejects_flow_step_before_start():
    t = Tracer()
    t.span("edge", track="edge", start=0, end=1)
    t.flow("s", flow_id=1, cycle=10, track="edge")
    t.flow("t", flow_id=1, cycle=5, track="edge")
    with pytest.raises(ConfigurationError):
        validate_chrome_trace(t.to_chrome_trace())
    t2 = Tracer()
    t2.span("edge", track="edge", start=0, end=1)
    t2.flow("t", flow_id=1, cycle=5, track="edge")  # orphan step
    with pytest.raises(ConfigurationError):
        validate_chrome_trace(t2.to_chrome_trace())


def test_validator_checks_stage_parentage():
    def with_request(child_start, child_end):
        t = Tracer()
        t.async_span("llm-0", span_id=0, start=10, end=100, cat="llm")
        t.async_span("queue", span_id=0, start=child_start, end=child_end,
                     cat="llm")
        return t.to_chrome_trace()

    validate_chrome_trace(with_request(10, 50))  # nested: fine
    with pytest.raises(ConfigurationError):
        validate_chrome_trace(with_request(5, 50))  # escapes left
    with pytest.raises(ConfigurationError):
        validate_chrome_trace(with_request(50, 120))  # escapes right

    # two non-stage parents in one group is ambiguous
    t = Tracer()
    t.async_span("llm-0", span_id=0, start=0, end=100, cat="llm")
    t.async_span("other-parent", span_id=0, start=0, end=100, cat="llm")
    t.async_span("queue", span_id=0, start=0, end=10, cat="llm")
    with pytest.raises(ConfigurationError):
        validate_chrome_trace(t.to_chrome_trace())


def test_validator_requires_flow_stitch_across_processes():
    def cross_process(with_flows):
        t = Tracer()
        t.async_span("llm-0", span_id=0, start=0, end=100, cat="llm")
        t.async_span("shard_compute", span_id=0, start=10, end=90,
                     cat="llm", process="board0")
        if with_flows:
            t.span("edge", track="edge", start=0, end=1)
            t.track_id("lane0", "board0")
            t.flow("s", flow_id=0, cycle=0, track="edge")
            t.flow("t", flow_id=0, cycle=10, track="lane0",
                   process="board0")
        return t.to_chrome_trace()

    with pytest.raises(ConfigurationError):
        validate_chrome_trace(cross_process(False))
    stats = validate_chrome_trace(cross_process(True))
    assert stats["b"] == 2 and stats["s"] == 1


def test_request_path_config():
    with pytest.raises(ConfigurationError):
        RequestPathConfig(detail_every=0)
    with pytest.raises(ConfigurationError):
        RequestPathConfig(max_spans_per_request=4)
    cfg = RequestPathConfig(detail_every=3)
    assert [cfg.samples(r) for r in range(4)] == [True, False, False, True]


def test_span_context_records_children_and_enforces_budget():
    t = Tracer()
    ctx = SpanContext(0, "llm", t, budget=3)
    assert ctx.child("queue", start=0, end=5)
    assert ctx.child("shard_compute", start=5, end=9, process="board0")
    assert ctx.flow("s", cycle=0, track="edge")
    # budget exhausted: drops are counted, nothing more is recorded
    assert not ctx.child("respond", start=9, end=9)
    assert not ctx.flow("f", cycle=9, track="edge")
    assert ctx.dropped == 2
    assert len(t.async_spans) == 2 and len(t.flows) == 1
    assert t.async_spans[0].span_id == 0 and t.async_spans[0].cat == "llm"
