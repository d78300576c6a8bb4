"""The direct Chrome-trace writer against a dict-building reference.

``Tracer.to_json`` writes every event's canonical text straight from the
tracer's log.  :func:`~tests.obs.trace_reference.reference_json` builds
the same document from the event lists as dicts and serializes it with
``json.dumps(sort_keys=True, separators=(",", ":"))``; for any tracer
the two must give equal bytes.
Random tracers carry names, tracks, processes and meta keys that need
escaping, arg values of every JSON type (NaN, infinities, -0.0, large
ints, nested containers), empty args, all three flow phases, int and
float cycles, and counters of every scalar type.  Fixed cases check a
dispatch record and a completion record against the events their views
list, and that a view read mid-run extends as the log grows.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.tracer import CompletionRecord, DispatchRecord, Tracer
from repro.serve.batcher import Batch
from repro.serve.request import PhaseItem, Request
from tests.obs.trace_reference import reference_json


#: Strings JSON must escape: quotes, backslashes, control characters,
#: non-ASCII and astral-plane text, a lone surrogate.
TRICKY = ['"', "\\", "\x00\x1f\x7f", "a\nb\tc\r", "café", "漢字",
          "\U0001f600", "\ud83d", "", "unit0"]
TEXT = st.one_of(st.sampled_from(TRICKY), st.text(max_size=6))
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324]),
    st.sampled_from([1, 1.0, True]),  # equal and equal-hashing, not equal text
    TEXT,
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(TEXT, inner, max_size=3)),
    max_leaves=6,
)
ARGS = st.one_of(
    st.none(),
    st.dictionaries(TEXT, st.one_of(VALUES, st.lists(st.integers())), max_size=4),
    st.sampled_from([1, 1.0, True]).map(lambda v: {"n": v}),
)
CYCLES = st.one_of(st.integers(0, 10**15),
                   st.floats(0, 1e12, allow_nan=False, allow_infinity=False))


@st.composite
def tracers(draw) -> Tracer:
    t = Tracer(meta=draw(st.dictionaries(TEXT, VALUES, max_size=3)))
    processes = draw(st.lists(TEXT, min_size=1, max_size=3))
    tracks = draw(st.lists(TEXT, min_size=1, max_size=3))
    names = draw(st.lists(TEXT, min_size=1, max_size=3))
    pick = st.sampled_from
    for kind in draw(st.lists(pick(["span", "async", "flow", "counter"]),
                              max_size=12)):
        start = draw(CYCLES)
        end = start + draw(CYCLES)
        name, process = draw(pick(names)), draw(pick(processes))
        if kind == "span":
            t.span(name, track=draw(pick(tracks)), start=start, end=end,
                   cat=draw(pick(names)), args=draw(ARGS), process=process)
        elif kind == "async":
            t.async_span(name, span_id=draw(st.integers(-(2**70), 2**70)),
                         start=start, end=end, cat=draw(pick(names)),
                         args=draw(ARGS), process=process)
        elif kind == "flow":
            t.flow(draw(pick("stf")), flow_id=draw(st.integers(0, 2**40)),
                   cycle=start, track=draw(pick(tracks)), process=process,
                   name=name)
        else:
            t.counter(name, cycle=start, value=draw(SCALARS))
    return t


@settings(max_examples=200, deadline=None)
@given(t=tracers())
@example(t=Tracer())
def test_writer_matches_dict_reference(t):
    assert t.to_json() == reference_json(t)


def test_equal_hashing_arg_values_encode_apart():
    # 1, 1.0 and True compare and hash equal; JSON spells them 1, 1.0, true.
    t = Tracer()
    for v in (1, 1.0, True, 1, True):
        t.span("s", track="u", start=0, end=1, args={"n": v})
        t.async_span("a", span_id=0, start=0, end=1, args={"n": v})
        t.counter("c", cycle=0, value=v)
    text = t.to_json()
    assert text == reference_json(t)
    assert '"args":{"n":1.0}' in text and '"args":{"n":true}' in text


def test_float_cycles_keep_their_fraction():
    t = Tracer()
    t.span("s", track="u", start=2.5, end=4.0)
    t.flow("s", flow_id=1, cycle=0.5, track="u")
    t.counter("c", cycle=7.25, value=0)
    text = t.to_json()
    assert text == reference_json(t)
    assert '"dur":1.5' in text and '"ts":2.5' in text and '"ts":7.25' in text


def test_compound_records_write_the_events_their_views_list():
    # Request 7 waited for its batch to close at 150 and queued until the
    # launch at 200; request 8 rode along unsampled.
    req = Request(7, "llm", 100, deadline=250, prompt_tokens=4,
                  gen_tokens=2, user=3)
    a = PhaseItem(req, "prefill", ready=120, context=4)
    b = PhaseItem(Request(8, "llm", 140, prompt_tokens=6, gen_tokens=1),
                  "prefill", ready=150, context=6)
    t = Tracer()
    t.record_dispatch(DispatchRecord(
        "unit0", "board0", 200, 260, Batch("prefill", [a, b], 150), 150,
        (("shard_compute", 50), ("allreduce", 10)), (a,)), 4)
    t.counter("queue_depth", cycle=260, value=0)
    t.record_completion(CompletionRecord(req, 260, "edge", 2, True))
    assert t.to_json() == reference_json(t)
    assert [(s.name, s.args) for s in t.spans] == [
        ("prefillx2", (("context", 6), ("phase", "prefill"),
                       ("rids", [7, 8]), ("size", 2)))]
    assert [(x.name, x.start, x.end) for x in t.async_spans] == [
        ("batch_wait", 120, 150), ("queue", 150, 200),
        ("shard_compute", 200, 250), ("allreduce", 250, 260),
        ("respond", 260, 260), ("llm-7", 100, 260)]
    assert t.async_spans[-1].args == (
        ("deadline", 250), ("gen_tokens", 2), ("missed", True),
        ("prompt_tokens", 4), ("user", 3))
    assert [(f.phase, f.track, f.process) for f in t.flows] == [
        ("t", "unit0", "board0"), ("f", "edge", "repro-sim")]
    assert (len(t.spans), len(t.async_spans), len(t.flows),
            len(t.counters)) == (1, 6, 2, 1)


def test_event_views_extend_as_the_log_grows():
    t = Tracer()
    t.span("a", track="u", start=0, end=1)
    assert [s.name for s in t.spans] == ["a"]
    t.counter("c", cycle=1, value=1)
    t.span("b", track="u", start=1, end=3)
    assert len(t.spans) == 2
    assert [s.name for s in t.spans] == ["a", "b"]
    assert t.spans[-1].duration == 2 and t.busy_cycles() == 3
    assert t.counters == [("c", 1, 1)] and t.async_spans == []
