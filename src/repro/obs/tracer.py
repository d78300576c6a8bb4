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

A :class:`Tracer` keeps one log in recording order.  Most entries are
one event each; the serving dispatcher appends two compound records
instead, :class:`DispatchRecord` per launched batch and
:class:`CompletionRecord` per finished request, each one tuple standing
for all the events of that step.  :meth:`Tracer.to_json` writes every
entry's events straight from the log, and the per-kind event lists
(``spans``, ``async_spans``, ``flows``, ``counters``) are views expanded
from it only when read.

:data:`NULL_TRACER` is the shared disabled tracer (``enabled=False``):
every recording method returns before doing anything, and hot loops check
``enabled`` to skip even argument construction.  Simulation code should
accept a tracer argument defaulting to :data:`NULL_TRACER`.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, NamedTuple

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.serve.batcher import Batch
    from repro.serve.request import PhaseItem, Request

__all__ = [
    "DEFAULT_PROCESS",
    "REQUEST_STAGES",
    "Span",
    "CounterSample",
    "AsyncSpan",
    "FlowEvent",
    "DispatchRecord",
    "CompletionRecord",
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


class DispatchRecord(NamedTuple):
    """One launched batch, logged as one tuple.

    It stands for the batch's ``X`` span ``[start, end)`` on its unit's
    track (category ``dispatch``, name ``<phase>x<size>``, args context,
    phase, rids and size) and, for each item in ``granted``, that item's
    stage group: ``batch_wait`` ``[ready, t_close]`` and ``queue``
    ``[t_close, start]`` when positive, the compute ``stages`` laid end to
    end from ``start``, and the request's flow step ``t`` at ``start`` on
    the unit's track.  The batch is held by reference, because nothing
    mutates a batch after launch; every cycle is an integer of the
    simulated clock.
    """

    track: str
    process: str
    start: int
    end: int
    batch: Batch
    #: When the batch closed (its last item's ready cycle).
    t_close: int
    #: ``(stage, cycles)`` for each positive compute stage, in order.
    stages: tuple[tuple[str, int], ...]
    #: The sampled items whose stage group the span budget granted.
    granted: tuple[PhaseItem, ...]

    def spans(self) -> list[Span]:
        b = self.batch
        args = (("context", b.context), ("phase", b.phase),
                ("rids", [i.request.rid for i in b.items]), ("size", b.size))
        return [Span(f"{b.phase}x{b.size}", self.track, self.start, self.end,
                     "dispatch", args, self.process)]

    def async_spans(self) -> list[AsyncSpan]:
        out = []
        start, t_close, process = self.start, self.t_close, self.process
        phase_args = (("phase", self.batch.phase),)
        stage_args = (("batch", self.batch.size), ("phase", self.batch.phase))
        for item in self.granted:
            rid, cat = item.request.rid, item.request.kind
            if t_close > item.ready:
                out.append(AsyncSpan("batch_wait", rid, item.ready, t_close,
                                     cat, phase_args, process))
            if start > t_close:
                out.append(AsyncSpan("queue", rid, t_close, start, cat,
                                     phase_args, process))
            cursor = start
            for stage, cycles in self.stages:
                out.append(AsyncSpan(stage, rid, cursor, cursor + cycles, cat,
                                     stage_args, process))
                cursor += cycles
        return out

    def flows(self) -> list[FlowEvent]:
        return [FlowEvent("request", item.request.rid, self.start, "t",
                          self.track, self.process) for item in self.granted]


class CompletionRecord(NamedTuple):
    """One finished request, logged as one tuple.

    It stands for the request's parent async span ``<kind>-<rid>``
    ``[arrival, cycle]`` in the default process (args prompt and
    generated tokens, plus deadline, user and missed when ``path`` is
    set) and, as far as ``granted`` reaches, its ``respond`` child (1 or
    more) and its flow ``f`` on the ``edge`` track (2).
    """

    request: Request
    cycle: int
    edge: str
    granted: int
    path: bool

    def parent_args(self) -> tuple[tuple[str, object], ...]:
        req = self.request
        if not self.path:
            return (("gen_tokens", req.gen_tokens),
                    ("prompt_tokens", req.prompt_tokens))
        missed = req.deadline is not None and self.cycle > req.deadline
        return (("deadline", req.deadline), ("gen_tokens", req.gen_tokens),
                ("missed", missed), ("prompt_tokens", req.prompt_tokens),
                ("user", req.user))

    def spans(self) -> list[Span]:
        return []

    def async_spans(self) -> list[AsyncSpan]:
        req, cycle = self.request, self.cycle
        out = [AsyncSpan("respond", req.rid, cycle, cycle, req.kind)] if self.granted else []
        out.append(AsyncSpan(f"{req.kind}-{req.rid}", req.rid, req.arrival, cycle,
                             req.kind, self.parent_args()))
        return out

    def flows(self) -> list[FlowEvent]:
        if self.granted < 2:
            return []
        return [FlowEvent("request", self.request.rid, self.cycle, "f", self.edge)]


class _EventView(Sequence):
    """One event kind of a tracer, as a read-only list of its NamedTuples.

    The list is expanded from the tracer's log on first read and extended
    by the entries logged since on each later read; ``len()`` reads the
    tracer's count for the kind without expanding anything.  Compares
    equal to a list with the same events.
    """

    __slots__ = ("_tracer", "_kind", "_type", "_items", "_seen")

    def __init__(self, tracer: Tracer, kind: str, event_type: type) -> None:
        self._tracer = tracer
        self._kind = kind
        self._type = event_type
        self._items: list = []
        self._seen = 0  # log entries already expanded

    def _list(self) -> list:
        log = self._tracer._log
        if self._seen < len(log):
            items, kind, event_type = self._items, self._kind, self._type
            for rec in log[self._seen:]:
                t = type(rec)
                if t is event_type:
                    items.append(rec)
                elif t is DispatchRecord or t is CompletionRecord:
                    if kind != "counters":
                        items.extend(getattr(rec, kind)())
            self._seen = len(log)
        return self._items

    def __len__(self) -> int:
        return self._tracer._counts[self._kind]

    def __getitem__(self, index):
        return self._list()[index]

    def __iter__(self):
        return iter(self._list())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _EventView):
            other = other._list()
        return self._list() == other

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(self._list())


@dataclass
class Tracer:
    """Records spans/counters/flows keyed on simulated cycles.

    Every recording appends to one log in recording order and bumps the
    count of each event kind it adds; ``spans``, ``async_spans``,
    ``flows`` and ``counters`` are read-only views of the log, one per
    kind (see :class:`_EventView`).  Tracks and processes are registered
    when an event that names them is recorded, and keep registration
    order, so the exported thread/process ids are deterministic.  Thread
    ids are allocated per process; the default process is pid 0 so a
    single-process trace exports exactly as it did before boards existed.
    ``meta`` lands in the export's ``otherData`` (put the seed and
    workload shape there, never wall-clock values).  With
    ``enabled=False`` every recording method returns at once.
    """

    enabled: bool = True
    meta: dict = field(default_factory=dict)
    _tracks: dict[tuple[str, str], int] = field(default_factory=dict)
    _procs: dict[str, int] = field(
        default_factory=lambda: {DEFAULT_PROCESS: 0}
    )
    _log: list = field(default_factory=list, repr=False)
    _counts: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(
            ("spans", "async_spans", "flows", "counters"), 0)
    )
    spans: _EventView = field(init=False, repr=False, compare=False)
    async_spans: _EventView = field(init=False, repr=False, compare=False)
    flows: _EventView = field(init=False, repr=False, compare=False)
    counters: _EventView = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.spans = _EventView(self, "spans", Span)
        self.async_spans = _EventView(self, "async_spans", AsyncSpan)
        self.flows = _EventView(self, "flows", FlowEvent)
        self.counters = _EventView(self, "counters", CounterSample)

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
        self._log.append(
            Span(name, track, start, end, cat, _freeze_args(args), process)
        )
        self._counts["spans"] += 1

    def counter(self, name: str, *, cycle: int, value: float) -> None:
        if not self.enabled:
            return
        self._log.append(CounterSample(name, cycle, value))
        self._counts["counters"] += 1

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
        self._log.append(
            AsyncSpan(name, span_id, start, end, cat, _freeze_args(args), process)
        )
        self._counts["async_spans"] += 1

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
        self._log.append(FlowEvent(name, flow_id, cycle, phase, track, process))
        self._counts["flows"] += 1

    def record_dispatch(self, record: DispatchRecord, n_stages: int) -> None:
        """Log one launched batch; ``n_stages`` counts the stage children
        of its granted items (the async spans it stands for)."""
        if not self.enabled:
            return
        if (record.process, record.track) not in self._tracks:
            self.track_id(record.track, record.process)
        self._log.append(record)
        counts = self._counts
        counts["spans"] += 1
        if record.granted:
            counts["async_spans"] += n_stages
            counts["flows"] += len(record.granted)

    def record_completion(self, record: CompletionRecord) -> None:
        """Log one finished request."""
        if not self.enabled:
            return
        if record.granted > 1:
            self.track_id(record.edge)
        self._log.append(record)
        counts = self._counts
        counts["async_spans"] += 1 + (record.granted > 0)
        counts["flows"] += record.granted > 1

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
        log.

        Every event is one template whose keys are already in sorted
        order, so the text equals ``json.dumps(doc, sort_keys=True,
        separators=(",", ":"))`` of the document byte for byte.  One pass
        over the log sends each kind's events to its own list, so the
        document holds every ``X``, then every ``b``/``e`` pair, then the
        flows, then the counters, each kind in recording order.  Compound
        records write their events directly, sharing the pid/tid text,
        the args text and the request's category between them.  Names,
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
        async_ids = {p: f'"pid":{pid},"tid":0' for p, pid in self._procs.items()}
        xs, pairs, flows, counters = [], [], [], []
        x, ab, fl = xs.append, pairs.append, flows.append
        # An f-string prints an exact int as JSON does; any other number
        # (a float cycle, a bool) takes _value -- never "%d".
        for rec in self._log:
            kind = type(rec)
            if kind is DispatchRecord:
                track, process, start, end, batch, t_close, stages, granted = rec
                pt = ids[process, track]
                qphase, items = q[batch.phase], batch.items
                size = len(items)
                context = batch.context
                if type(context) is not int:
                    context = _value(context)
                x(f'{{"args":{{"context":{context},"phase":{qphase},'
                  f'"rids":{_value([i.request.rid for i in items])},"size":{size}}},'
                  f'"cat":"dispatch","dur":{end - start},'
                  f'"name":{q[f"{batch.phase}x{size}"]},"ph":"X",{pt},"ts":{start}}}')
                if not granted:
                    continue
                apt = async_ids[process]
                phase_args = f'"args":{{"phase":{qphase}}},'
                stage_args = f'"args":{{"batch":{size},"phase":{qphase}}},'
                for item in granted:
                    req = item.request
                    head = f'"cat":{q[req.kind]},"id":{req.rid},"name":'
                    ready = item.ready
                    if t_close > ready:
                        ab(f'{{{phase_args}{head}"batch_wait","ph":"b",{apt},"ts":{ready}}}')
                        ab(f'{{{head}"batch_wait","ph":"e",{apt},"ts":{t_close}}}')
                    if start > t_close:
                        ab(f'{{{phase_args}{head}"queue","ph":"b",{apt},"ts":{t_close}}}')
                        ab(f'{{{head}"queue","ph":"e",{apt},"ts":{start}}}')
                    cursor = start
                    for stage, cycles in stages:
                        name = q[stage]
                        ab(f'{{{stage_args}{head}{name},"ph":"b",{apt},"ts":{cursor}}}')
                        cursor += cycles
                        ab(f'{{{head}{name},"ph":"e",{apt},"ts":{cursor}}}')
                    fl(f'{{"cat":"flow","id":{req.rid},"name":"request","ph":"t",'
                       f'{pt},"ts":{start}}}')
            elif kind is CounterSample:
                name, cycle, value = rec
                if type(cycle) is not int:
                    cycle = _value(cycle)
                counters.append(f'{{"args":{{"value":{_value(value)}}},"name":{q[name]},'
                                f'"ph":"C","pid":0,"ts":{cycle}}}')
            elif kind is AsyncSpan:
                name, span_id, start, end, cat, args, process = rec
                if type(span_id) is not int or type(start) is not int or type(end) is not int:
                    span_id, start, end = _value(span_id), _value(start), _value(end)
                common = f'"cat":{q[cat]},"id":{span_id},"name":{q[name]}'
                pt = async_ids[process]
                ab(f'{{"args":{args_json(args)},{common},"ph":"b",{pt},"ts":{start}}}')
                ab(f'{{{common},"ph":"e",{pt},"ts":{end}}}')
            elif kind is CompletionRecord:
                req, cycle, edge, granted, _ = rec
                head = f'"cat":{q[req.kind]},"id":{req.rid},"name":'
                apt = async_ids[DEFAULT_PROCESS]
                if granted:
                    ab(f'{{"args":{{}},{head}"respond","ph":"b",{apt},"ts":{cycle}}}')
                    ab(f'{{{head}"respond","ph":"e",{apt},"ts":{cycle}}}')
                if granted > 1:
                    fl(f'{{"bp":"e","cat":"flow","id":{req.rid},"name":"request","ph":"f",'
                       f'{ids[DEFAULT_PROCESS, edge]},"ts":{cycle}}}')
                name = encode_basestring_ascii(f"{req.kind}-{req.rid}")
                ab(f'{{"args":{args_json(rec.parent_args())},{head}{name},"ph":"b",'
                   f'{apt},"ts":{req.arrival}}}')
                ab(f'{{{head}{name},"ph":"e",{apt},"ts":{cycle}}}')
            elif kind is FlowEvent:
                name, flow_id, cycle, phase, track, process = rec
                if type(flow_id) is not int or type(cycle) is not int:
                    flow_id, cycle = _value(flow_id), _value(cycle)
                bp = '"bp":"e",' if phase == "f" else ""
                fl(f'{{{bp}"cat":"flow","id":{flow_id},"name":{q[name]},'
                   f'"ph":{q[phase]},{ids[process, track]},"ts":{cycle}}}')
            else:  # Span
                name, track, start, end, cat, args, process = rec
                dur = end - start
                if type(start) is not int or type(dur) is not int:
                    start, dur = _value(start), _value(dur)
                x(f'{{"args":{args_json(args)},"cat":{q[cat]},"dur":{dur},'
                  f'"name":{q[name]},"ph":"X",{ids[process, track]},"ts":{start}}}')
        out += xs
        out += pairs
        out += flows
        out += counters
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
    that a request's stages tile its latency.  The dispatcher charges
    the events its compound records stand for through :meth:`grant`.
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

    def grant(self, events: int, cycles: int) -> bool:
        """Charge one group of ``events`` events whose stages last
        ``cycles`` in all: ``True`` when the budget covers the whole group,
        else ``False`` with every event of it counted as dropped."""
        if self.remaining < events:
            self.dropped += events
            return False
        self.remaining -= events
        self.stage_cycles += cycles
        return True

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
        if not self.grant(1, end - start):
            return False
        self.tracer.async_span(
            name, span_id=self.trace_id, start=start, end=end,
            cat=self.cat, args=args, process=process,
        )
        return True

    def flow(self, phase: str, *, cycle: int, track: str,
             process: str = DEFAULT_PROCESS) -> bool:
        """Record one flow endpoint for this request (budgeted)."""
        if not self.grant(1, 0):
            return False
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
    timestamps/durations, matched async begin/end pairs (each end paired
    with the latest open begin of its ``(cat, id, name)`` and no earlier
    than it), and — for the
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
    open_async: dict[tuple, list[int]] = {}  # key -> open begin ts
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
                open_async.setdefault(key, []).append(ts)
            else:
                begins = open_async.get(key)
                if not begins:
                    raise ConfigurationError(
                        f"async end without begin at event {i}: {key}"
                    )
                begin = begins.pop()
                if ts < begin:
                    raise ConfigurationError(
                        f"async span {key} ends at {ts} before it begins "
                        f"at {begin} (event {i})"
                    )
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
    dangling = [k for k, begins in open_async.items() if begins]
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
