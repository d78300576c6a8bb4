"""A dict-building reference for the tracer's Chrome-trace writer.

:func:`reference_json` builds a tracer's document from its event lists
(``spans``, ``async_spans``, ``flows``, ``counters``) as dicts and
serializes it with ``json.dumps(sort_keys=True, separators=(",", ":"))``.
``Tracer.to_json`` writes the same bytes straight from the tracer's log,
so comparing the two holds the writer and the list views to each other.
"""

import json

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
