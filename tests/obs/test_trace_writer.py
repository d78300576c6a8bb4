"""The direct Chrome-trace writer against a dict-building reference.

``Tracer.to_json`` writes every event's canonical text straight from the
recorded tuples.  :func:`reference_json` builds the same document as a
list of dicts and serializes it with ``json.dumps(sort_keys=True,
separators=(",", ":"))``; for any tracer the two must give equal bytes.
Random tracers carry names, tracks, processes and meta keys that need
escaping, arg values of every JSON type (NaN, infinities, -0.0, large
ints, nested containers), empty args, all three flow phases, int and
float cycles, and counters of every scalar type.
"""

import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.tracer import Tracer


def reference_json(t: Tracer) -> str:
    """The trace as dicts, then ``json.dumps`` with sorted keys."""
    events: list[dict] = []
    for process, pid in t._procs.items():
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0, "args": {"name": process}})
    for (process, track), tid in t._tracks.items():
        pid = t._procs[process]
        events.append({"ph": "M", "name": "thread_name", "pid": pid,
                       "tid": tid, "args": {"name": track}})
        events.append({"ph": "M", "name": "thread_sort_index", "pid": pid,
                       "tid": tid, "args": {"sort_index": tid}})
    for s in t.spans:
        events.append({"ph": "X", "name": s.name, "cat": s.cat,
                       "ts": s.start, "dur": s.duration,
                       "pid": t._procs[s.process],
                       "tid": t._tracks[(s.process, s.track)],
                       "args": dict(s.args)})
    for a in t.async_spans:
        common = {"name": a.name, "cat": a.cat, "id": a.span_id,
                  "pid": t._procs[a.process], "tid": 0}
        events.append({"ph": "b", "ts": a.start, "args": dict(a.args),
                       **common})
        events.append({"ph": "e", "ts": a.end, **common})
    for fl in t.flows:
        ev = {"ph": fl.phase, "name": fl.name, "cat": "flow",
              "id": fl.flow_id, "ts": fl.cycle,
              "pid": t._procs[fl.process],
              "tid": t._tracks[(fl.process, fl.track)]}
        if fl.phase == "f":
            ev["bp"] = "e"
        events.append(ev)
    for c in t.counters:
        events.append({"ph": "C", "name": c.name, "ts": c.cycle, "pid": 0,
                       "args": {"value": c.value}})
    doc = {"traceEvents": events, "displayTimeUnit": "ms",
           "otherData": {"time_unit": "cycles", **t.meta}}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


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
