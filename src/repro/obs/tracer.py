"""Cycle-domain tracer: hierarchical spans over simulated time.

Every timestamp recorded here is an **integer cycle** of the simulated
system clock — never the wall clock — so a trace is a pure function of
(workload trace, configuration, seed) and two runs with the same seed
produce byte-identical exports.

The export target is the Chrome trace event format, which Perfetto and
``chrome://tracing`` both render: each simulated board becomes one
process, each unit one named track (thread) under it, dispatched batches
become complete ("X") slices on the unit's track, request lifetimes
become async ("b"/"e") spans, queue depth becomes a counter ("C")
series, and cross-process causality (edge -> board -> edge) is carried
by flow ("s"/"t"/"f") events.  One tick of the viewer's time axis is one
clock cycle; the clock frequency rides along in ``otherData`` so
wall-time can always be recovered (``seconds = ts / clock_freq_hz``).

Request-path decomposition uses *async child spans*: every child shares
its parent's ``(cat, id)`` so Perfetto nests them under the request's
async span, and the named stages (:data:`REQUEST_STAGES`) tile the
request's end-to-end latency.  :class:`SpanContext` is the causal handle
a request carries across router/replica/shard boundaries; it enforces a
per-request span budget so a traced run stays bounded even for
pathological requests.

:data:`NULL_TRACER` is the shared disabled tracer (``enabled=False``):
every recording method returns before doing anything, and hot loops check
``enabled`` to skip even argument construction.  Simulation code should
accept a tracer argument defaulting to :data:`NULL_TRACER`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from repro.errors import ConfigurationError

__all__ = [
    "DEFAULT_PROCESS",
    "REQUEST_STAGES",
    "Span",
    "CounterSample",
    "AsyncSpan",
    "FlowEvent",
    "RequestPathConfig",
    "SpanContext",
    "Tracer",
    "NULL_TRACER",
    "validate_chrome_trace",
]

#: The default process every track lands in unless a board process is
#: named explicitly.  Pid 0, so single-process traces are byte-identical
#: to the pre-cluster exporter.
DEFAULT_PROCESS = "repro-sim"

#: Child-span names a request's end-to-end latency decomposes into, in
#: lifecycle order.  The validator uses this set to tell stage spans from
#: their request parent; :mod:`repro.obs.slo` attributes latency to them.
REQUEST_STAGES = (
    "admit",
    "route",
    "queue",
    "batch_wait",
    "shard_compute",
    "allreduce",
    "pp_transfer",
    "respond",
)


class Span(NamedTuple):
    """One complete slice on a track: ``[start, end)`` in cycles."""

    name: str
    track: str
    start: int
    end: int
    cat: str = "sim"
    args: tuple[tuple[str, object], ...] = ()
    process: str = DEFAULT_PROCESS

    @property
    def duration(self) -> int:
        return self.end - self.start


class CounterSample(NamedTuple):
    """One sample of a counter series (rendered as a step graph)."""

    name: str
    cycle: int
    value: float


class AsyncSpan(NamedTuple):
    """A span that may overlap others on the same track (request lifetime).

    Spans sharing ``(cat, span_id)`` form one nesting group in Perfetto:
    the request parent plus its stage children.
    """

    name: str
    span_id: int
    start: int
    end: int
    cat: str = "request"
    args: tuple[tuple[str, object], ...] = ()
    process: str = DEFAULT_PROCESS


class FlowEvent(NamedTuple):
    """One arrow head/tail of a cross-process causal flow.

    ``phase`` is the Chrome flow phase: ``"s"`` (start), ``"t"`` (step),
    ``"f"`` (finish).  Flows with the same ``flow_id`` are stitched into
    one arrow chain by the viewer — and by the validator, which uses them
    to prove cross-process async parentage.
    """

    name: str
    flow_id: int
    cycle: int
    phase: str
    track: str
    process: str = DEFAULT_PROCESS


def _freeze_args(args: dict | None) -> tuple[tuple[str, object], ...]:
    return tuple(sorted(args.items())) if args else ()


@dataclass
class Tracer:
    """Records spans/counters/flows keyed on simulated cycles.

    Tracks and processes are created on first use and keep registration
    order, so the exported thread/process ids are deterministic.  Thread
    ids are allocated per process; the default process is pid 0 so a
    single-process trace exports exactly as it did before boards existed.
    ``meta`` lands in the export's ``otherData`` (put the seed and
    workload shape there, never wall-clock values).  With
    ``enabled=False`` every recording method returns at once.
    """

    enabled: bool = True
    spans: list[Span] = field(default_factory=list)
    counters: list[CounterSample] = field(default_factory=list)
    async_spans: list[AsyncSpan] = field(default_factory=list)
    flows: list[FlowEvent] = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    _tracks: dict[tuple[str, str], int] = field(default_factory=dict)
    _procs: dict[str, int] = field(
        default_factory=lambda: {DEFAULT_PROCESS: 0}
    )

    # -- recording -----------------------------------------------------------
    def process_id(self, process: str) -> int:
        """Stable pid of a named process (registers it on first use)."""
        if process not in self._procs:
            self._procs[process] = len(self._procs)
        return self._procs[process]

    def track_id(self, track: str, process: str = DEFAULT_PROCESS) -> int:
        """Stable thread id of a named track (registers it on first use).

        Thread ids count up per process, so the first track of every
        board is tid 0 on that board's pid.
        """
        self.process_id(process)
        key = (process, track)
        if key not in self._tracks:
            self._tracks[key] = sum(
                1 for p, _ in self._tracks if p == process
            )
        return self._tracks[key]

    def span(
        self,
        name: str,
        *,
        track: str,
        start: int,
        end: int,
        cat: str = "sim",
        args: dict | None = None,
        process: str = DEFAULT_PROCESS,
    ) -> None:
        if not self.enabled:
            return
        if end < start:
            raise ConfigurationError(
                f"span {name!r} ends before it starts ({end} < {start})"
            )
        self.track_id(track, process)
        self.spans.append(
            Span(name, track, start, end, cat, _freeze_args(args), process)
        )

    def counter(self, name: str, *, cycle: int, value: float) -> None:
        if not self.enabled:
            return
        self.counters.append(CounterSample(name, cycle, value))

    def async_span(
        self,
        name: str,
        *,
        span_id: int,
        start: int,
        end: int,
        cat: str = "request",
        args: dict | None = None,
        process: str = DEFAULT_PROCESS,
    ) -> None:
        if not self.enabled:
            return
        if end < start:
            raise ConfigurationError(
                f"async span {name!r} ends before it starts ({end} < {start})"
            )
        self.process_id(process)
        self.async_spans.append(
            AsyncSpan(name, span_id, start, end, cat, _freeze_args(args), process)
        )

    def flow(
        self,
        phase: str,
        *,
        flow_id: int,
        cycle: int,
        track: str,
        process: str = DEFAULT_PROCESS,
        name: str = "request",
    ) -> None:
        """Record one flow arrow endpoint (``"s"``/``"t"``/``"f"``)."""
        if not self.enabled:
            return
        if phase not in ("s", "t", "f"):
            raise ConfigurationError(f"unknown flow phase {phase!r}")
        self.track_id(track, process)
        self.flows.append(FlowEvent(name, flow_id, cycle, phase, track, process))

    # -- queries -------------------------------------------------------------
    def busy_cycles(self, *, track: str | None = None, cat: str | None = None) -> int:
        """Total span duration, optionally filtered by track / category."""
        return sum(
            s.duration
            for s in self.spans
            if (track is None or s.track == track)
            and (cat is None or s.cat == cat)
        )

    def tracks(self) -> list[str]:
        return [track for _, track in self._tracks]

    def processes(self) -> list[str]:
        return list(self._procs)

    # -- export --------------------------------------------------------------
    def to_chrome_trace(self) -> dict:
        """Chrome trace event document (Perfetto-compatible), parsed
        from :meth:`to_json`.

        ``ts``/``dur`` are integer cycles (the viewer's "us" unit reads as
        cycles); ``otherData.clock_freq_hz`` converts to wall time.
        """
        return json.loads(self.to_json())

    def to_json(self) -> str:
        """The Chrome trace as canonical JSON, written straight from the
        recorded tuples.

        Every event is one template whose keys are already in sorted
        order, so the text equals ``json.dumps(doc, sort_keys=True,
        separators=(",", ":"))`` of the document byte for byte.  Names,
        tracks, categories and arg keys are encoded once per call; arg
        values take :func:`_value`.
        """
        q = _Quoted()

        def args_json(args: tuple) -> str:
            return "{" + ",".join(
                [f"{q[k]}:{v if type(v) is int else _value(v)}" for k, v in args]) + "}"

        out = []
        for process, pid in self._procs.items():
            out.append(f'{{"args":{{"name":{q[process]}}},'
                       f'"name":"process_name","ph":"M","pid":{pid},"tid":0}}')
        ids = {}  # (process, track) -> its pid/tid text
        for (process, track), tid in self._tracks.items():
            ids[process, track] = pt = f'"pid":{self._procs[process]},"tid":{tid}'
            out.append(f'{{"args":{{"name":{q[track]}}},'
                       f'"name":"thread_name","ph":"M",{pt}}}')
            out.append(f'{{"args":{{"sort_index":{tid}}},'
                       f'"name":"thread_sort_index","ph":"M",{pt}}}')
        # An f-string prints an exact int as JSON does; any other number
        # (a float cycle, a bool) takes _value -- never "%d".
        for name, track, start, end, cat, args, process in self.spans:
            dur = end - start
            if type(start) is not int or type(dur) is not int:
                start, dur = _value(start), _value(dur)
            out.append(f'{{"args":{args_json(args)},"cat":{q[cat]},"dur":{dur},'
                       f'"name":{q[name]},"ph":"X",{ids[process, track]},"ts":{start}}}')
        async_ids = {p: f'"pid":{pid},"tid":0' for p, pid in self._procs.items()}
        for name, span_id, start, end, cat, args, process in self.async_spans:
            if type(span_id) is not int or type(start) is not int or type(end) is not int:
                span_id, start, end = _value(span_id), _value(start), _value(end)
            common = f'"cat":{q[cat]},"id":{span_id},"name":{q[name]}'
            pt = async_ids[process]
            out.append(f'{{"args":{args_json(args)},{common},"ph":"b",{pt},"ts":{start}}}')
            out.append(f'{{{common},"ph":"e",{pt},"ts":{end}}}')
        for name, flow_id, cycle, phase, track, process in self.flows:
            if type(flow_id) is not int or type(cycle) is not int:
                flow_id, cycle = _value(flow_id), _value(cycle)
            bp = '"bp":"e",' if phase == "f" else ""
            out.append(f'{{{bp}"cat":"flow","id":{flow_id},"name":{q[name]},'
                       f'"ph":{q[phase]},{ids[process, track]},"ts":{cycle}}}')
        for name, cycle, value in self.counters:
            if type(cycle) is not int:
                cycle = _value(cycle)
            out.append(f'{{"args":{{"value":{_value(value)}}},"name":{q[name]},'
                       f'"ph":"C","pid":0,"ts":{cycle}}}')
        other = _encode({"time_unit": "cycles", **self.meta})
        return (f'{{"displayTimeUnit":"ms","otherData":{other},'
                f'"traceEvents":[{",".join(out)}]}}')


class _Quoted(dict):
    """``str -> JSON string literal``, encoded on first lookup."""

    def __missing__(self, s: str) -> str:
        text = self[s] = encode_basestring_ascii(s)
        return text


#: The canonical encoder (``json.dumps(sort_keys=True,
#: separators=(",", ":"))``) for values :func:`_value` has no fast path for.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _value(v: object) -> str:
    """Canonical JSON text of one value: exact ints, strings, ``None``,
    bools and lists of exact ints directly, anything else (floats,
    nested containers, int subclasses) through :data:`_encode`."""
    t = type(v)
    if t is int:
        return repr(v)
    if t is str:
        return encode_basestring_ascii(v)
    if v is None:
        return "null"
    if t is bool:
        return "true" if v else "false"
    if t is list and all(type(x) is int for x in v):
        return "[" + ",".join(map(repr, v)) + "]"
    return _encode(v)


NULL_TRACER = Tracer(enabled=False)


@dataclass(frozen=True)
class RequestPathConfig:
    """Sampling/budget policy for request-path stage decomposition.

    ``detail_every`` samples full stage detail for 1-in-N requests
    (keyed on ``rid % detail_every == 0`` so the sample is deterministic
    and seed-stable); ``max_spans_per_request`` caps how many child spans
    one sampled request may record — a runaway decode can't flood the
    trace, it just stops decomposing and counts the drop.
    """

    detail_every: int = 1
    max_spans_per_request: int = 512

    def __post_init__(self) -> None:
        if self.detail_every < 1:
            raise ConfigurationError(
                f"detail_every must be >= 1, got {self.detail_every}"
            )
        if self.max_spans_per_request < 8:
            raise ConfigurationError(
                "max_spans_per_request must be >= 8 "
                f"(one request phase needs several), got {self.max_spans_per_request}"
            )

    def samples(self, rid: int) -> bool:
        return rid % self.detail_every == 0


class SpanContext:
    """Causal handle of one sampled request, carried across boundaries.

    Created at admission, threaded through router -> replica dispatcher ->
    sharded compute, and closed at completion.  Every :meth:`child` span
    shares the request's ``(cat, id)`` so Perfetto nests the stages under
    the request's async span regardless of which board (process) recorded
    them; :meth:`flow` draws the cross-process arrows that make the
    parentage explicit (and machine-checkable).  ``stage_cycles`` sums
    the durations of the children recorded, so the dispatcher can check
    that a request's stages tile its latency.
    """

    __slots__ = ("trace_id", "cat", "tracer", "remaining", "dropped",
                 "stage_cycles")

    def __init__(self, trace_id: int, cat: str, tracer: Tracer,
                 budget: int) -> None:
        self.trace_id = trace_id
        self.cat = cat
        self.tracer = tracer
        self.remaining = budget
        self.dropped = 0
        self.stage_cycles = 0

    def child(
        self,
        name: str,
        *,
        start: int,
        end: int,
        process: str = DEFAULT_PROCESS,
        args: dict | None = None,
    ) -> bool:
        """Record one named stage span; ``False`` when over budget."""
        if self.remaining <= 0:
            self.dropped += 1
            return False
        self.remaining -= 1
        self.tracer.async_span(
            name, span_id=self.trace_id, start=start, end=end,
            cat=self.cat, args=args, process=process,
        )
        self.stage_cycles += end - start
        return True

    def flow(self, phase: str, *, cycle: int, track: str,
             process: str = DEFAULT_PROCESS) -> bool:
        """Record one flow endpoint for this request (budgeted)."""
        if self.remaining <= 0:
            self.dropped += 1
            return False
        self.remaining -= 1
        self.tracer.flow(phase, flow_id=self.trace_id, cycle=cycle,
                         track=track, process=process)
        return True


_STAGE_SET = frozenset(REQUEST_STAGES)


def _is_cycle(v: object) -> bool:
    """A non-negative integer; JSON ``true`` parses to a bool, which
    subclasses int but is no cycle count."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def validate_chrome_trace(doc: dict) -> dict:
    """Validate a Chrome-trace document; returns summary stats.

    Checks the structural schema the exporter guarantees: required
    top-level keys, well-formed events per phase, non-negative integer
    timestamps/durations, matched async begin/end pairs, and — for the
    request-path decomposition — *cross-process async parentage*: every
    ``(cat, id)`` group containing stage-named children must contain
    exactly one request parent whose interval encloses all children, and
    a group whose events span multiple processes must be stitched by flow
    events (an ``"s"`` start, plus at least one flow endpoint on every
    process the group touches, none earlier than the start).  Raises
    :class:`~repro.errors.ConfigurationError` on the first violation —
    used by the test suite and the CI smoke job.
    """
    if not isinstance(doc, dict):
        raise ConfigurationError("trace document must be a JSON object")
    for key in ("traceEvents", "otherData"):
        if key not in doc:
            raise ConfigurationError(f"trace document missing {key!r}")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        raise ConfigurationError("traceEvents must be a non-empty list")
    stats = {"X": 0, "M": 0, "C": 0, "b": 0, "e": 0, "s": 0, "t": 0, "f": 0}
    open_async: dict[tuple, int] = {}
    declared_pids: set[int] = set()
    event_pids: set[int] = set()
    # (cat, id) -> per-name [min_b, max_e, count_b], plus the group's pids.
    groups: dict[tuple, dict[str, list[int]]] = {}
    group_pids: dict[tuple, set[int]] = {}
    flow_starts: dict[int, int] = {}
    flow_followers: list[tuple[int, int, int]] = []  # (id, ts, event index)
    flow_pids: dict[int, set[int]] = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ConfigurationError(f"event {i} is not an object")
        ph = ev.get("ph")
        if ph not in stats:
            raise ConfigurationError(f"event {i} has unknown phase {ph!r}")
        stats[ph] += 1
        if "name" not in ev or "pid" not in ev:
            raise ConfigurationError(f"event {i} missing name/pid")
        if ph == "M":
            if ev["name"] == "process_name":
                declared_pids.add(ev["pid"])
            continue
        event_pids.add(ev["pid"])
        ts = ev.get("ts")
        if not _is_cycle(ts):
            raise ConfigurationError(f"event {i} has bad ts {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not _is_cycle(dur):
                raise ConfigurationError(f"event {i} has bad dur {dur!r}")
            if "tid" not in ev:
                raise ConfigurationError(f"event {i} missing tid")
        elif ph == "C":
            if "value" not in ev.get("args", {}):
                raise ConfigurationError(f"counter event {i} missing args.value")
        elif ph in ("b", "e"):
            key = (ev.get("cat"), ev.get("id"), ev.get("name"))
            if ph == "b":
                open_async[key] = open_async.get(key, 0) + 1
            else:
                if open_async.get(key, 0) <= 0:
                    raise ConfigurationError(
                        f"async end without begin at event {i}: {key}"
                    )
                open_async[key] -= 1
            gkey = (ev.get("cat"), ev.get("id"))
            per_name = groups.setdefault(gkey, {})
            rec = per_name.setdefault(ev["name"], [None, None, 0])
            if ph == "b":
                rec[0] = ts if rec[0] is None else min(rec[0], ts)
                rec[2] += 1
            else:
                rec[1] = ts if rec[1] is None else max(rec[1], ts)
            group_pids.setdefault(gkey, set()).add(ev["pid"])
        else:  # flow s/t/f
            fid = ev.get("id")
            if fid is None:
                raise ConfigurationError(f"flow event {i} missing id")
            if "tid" not in ev:
                raise ConfigurationError(f"flow event {i} missing tid")
            if ph == "s":
                prev = flow_starts.get(fid)
                flow_starts[fid] = ts if prev is None else min(prev, ts)
            else:
                flow_followers.append((fid, ts, i))
            flow_pids.setdefault(fid, set()).add(ev["pid"])
    dangling = [k for k, n in open_async.items() if n]
    if dangling:
        raise ConfigurationError(f"unclosed async spans: {dangling[:3]}")
    undeclared = event_pids - declared_pids
    if undeclared:
        raise ConfigurationError(
            f"events reference pids without process_name metadata: "
            f"{sorted(undeclared)[:5]}"
        )
    for fid, ts, i in flow_followers:
        start = flow_starts.get(fid)
        if start is None:
            raise ConfigurationError(
                f"flow step/finish without start at event {i} (id {fid})"
            )
        if ts < start:
            raise ConfigurationError(
                f"flow id {fid} steps at {ts} before its start at {start}"
            )
    for gkey, per_name in groups.items():
        stage_names = [n for n in per_name if n in _STAGE_SET]
        if not stage_names:
            continue
        parents = [n for n in per_name if n not in _STAGE_SET]
        if len(parents) != 1:
            raise ConfigurationError(
                f"async group {gkey} has stage children but "
                f"{len(parents)} parents: {sorted(parents)[:3]}"
            )
        pb, pe, _ = per_name[parents[0]]
        for n in stage_names:
            cb, ce, _ = per_name[n]
            if cb < pb or ce > pe:
                raise ConfigurationError(
                    f"async group {gkey} child {n!r} [{cb}, {ce}] escapes "
                    f"parent {parents[0]!r} [{pb}, {pe}]"
                )
        pids = group_pids[gkey]
        if len(pids) > 1:
            fid = gkey[1]
            if fid not in flow_starts:
                raise ConfigurationError(
                    f"async group {gkey} spans pids {sorted(pids)} "
                    f"without a flow start"
                )
            missing = pids - flow_pids.get(fid, set())
            if missing:
                raise ConfigurationError(
                    f"async group {gkey} touches pids {sorted(missing)} "
                    f"with no flow endpoint linking them"
                )
    return stats
