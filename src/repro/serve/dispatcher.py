"""Event-driven online dispatcher over a unit pool.

This is the serving counterpart of :meth:`repro.hw.system.MultiUnitSystem.
schedule`: instead of a static job list scheduled longest-first, requests
arrive over simulated time, coalesce in the :class:`DynamicBatcher`, and
dispatch to the earliest available unit.  One batch occupies one unit for
the batched job's unit-occupancy cycles (request-level parallelism across
units, not intra-request chunk spreading — the regime the 15 independent
instruction streams support).

Flow control is preemption-free: a bounded intake queue sheds new arrivals
with a 503-style rejection once full, and per-unit KV session slots
throttle prefill dispatch (backpressure, never eviction of live sessions).

One simulation driver, :func:`repro.cluster.simulate.drive`, serves two
front ends over this module's engine:

* :class:`Dispatcher` — *one replica's* serving state machine (batcher,
  session table, batch pricer, idle-unit set) over an externally-owned
  :class:`~repro.hw.system.UnitPool` handle and an externally-owned event
  heap (a ``push(t, tag, payload)`` sink).
* :func:`simulate` — the single-pool front end: one board as a
  one-replica cluster, bit-identical to the historical single-pool loop
  (``tests/serve/test_refactor_golden.py``); ``simulate_cluster`` is the
  fleet front end.

The whole simulation is deterministic: integer cycle time, a seeded trace,
and a (time, sequence) event order with no wall-clock reads.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.cost import ModeOptions
from repro.errors import ConfigurationError, InvariantError
from repro.hw.system import UnitPool
from repro.models.configs import DEIT_TINY, ViTConfig
from repro.models.policy import PrecisionPolicy
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.recorder import NULL_RECORDER, FlightRecorder
from repro.obs.slo import NULL_SLO, SLOTracker
from repro.obs.tracer import (
    DEFAULT_PROCESS,
    NULL_TRACER,
    CompletionRecord,
    DispatchRecord,
    RequestPathConfig,
    SpanContext,
    Tracer,
)
from repro.perf.memory import DEFAULT_MEMORY, MemoryModel
from repro.perf.throughput import DEFAULT_CLOCK, ClockConfig
from repro.serve.batcher import Batch, BatchPolicy, DynamicBatcher
from repro.serve.metrics import MetricsCollector
from repro.serve.request import PhaseItem, Request
from repro.serve.sessions import SessionTable

if TYPE_CHECKING:
    from repro.cluster.sharding import ShardedCostModel

__all__ = [
    "ModelProfile",
    "ServeConfig",
    "ServeReport",
    "Dispatcher",
    "simulate",
    "serve_config_to_dict",
    "serve_config_from_dict",
]

#: Event sink signature: ``push(cycle, tag, payload)``.
EventSink = Callable[[int, str, object], None]

#: The stages a dispatch's compute window splits into, in trace order.
_COMPUTE_STAGES = ("shard_compute", "allreduce", "pp_transfer")


@dataclass(frozen=True)
class ModelProfile:
    """Cost-model identity of the two served model families.

    The decoder defaults match the claims ledger's decode / prefill
    per-token latency entry (EXPERIMENTS.md, pinned model values); the ViT
    defaults are DeiT-Tiny, the smallest paper configuration.
    """

    vit: ViTConfig = DEIT_TINY
    vocab: int = 1000
    dim: int = 128
    depth: int = 4
    n_heads: int = 4
    context: int = 128
    mlp_ratio: float = 8 / 3

    @property
    def kv_bytes_per_token(self) -> int:
        """fp32 K+V bytes per resident token, all layers."""
        return 2 * self.depth * self.dim * 4


@dataclass(frozen=True)
class ServeConfig:
    """Everything the simulation needs besides the trace itself.

    ``policy`` shapes batching; ``precision`` is an optional per-layer
    :class:`~repro.models.policy.PrecisionPolicy` the cost model compiles
    batch jobs under (``None`` = the historical all-bfp8 schedule).
    """

    profile: ModelProfile = ModelProfile()
    policy: BatchPolicy = BatchPolicy()
    max_queue: int = 512
    max_sessions_per_unit: int = 8
    clock: ClockConfig = DEFAULT_CLOCK
    mem: MemoryModel = DEFAULT_MEMORY
    precision: PrecisionPolicy | None = None
    #: Optional per-format unit-mode routing (and the alignment-
    #: prediction knob) the cost model compiles under — e.g. fp16
    #: matmuls onto the ``fp16_dot`` array instead of the vector cliff.
    modes: ModeOptions | None = None
    #: Model decode batches as compiled-plan replays: the dispatcher
    #: ledgers one trace per distinct decode group shape and counts every
    #: later dispatch of that shape as a replay (``ServeReport.plans``).
    compiled: bool = True

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ConfigurationError("max_queue must admit at least one item")


@dataclass
class ServeReport:
    """Outcome of one simulated serving run."""

    summary: dict
    config: ServeConfig
    pool: UnitPool
    metrics: MetricsCollector = field(repr=False)
    tracer: Tracer = field(default_factory=lambda: NULL_TRACER, repr=False)
    #: Compiled-plan ledger (``None`` when the run modeled eager decode):
    #: distinct decode group shapes traced, replay counts per shape.
    plans: dict | None = None

    def to_json(self) -> str:
        """Full-run artifact: summary + compiled-plan ledger + SLO snapshot.

        One ``--json-out`` file captures the whole run; the SLO section
        is surfaced top-level (it also stays under ``summary["slo"]``
        for older readers).
        """
        import json

        from repro.obs.artifacts import jsonable

        doc = {
            "schema_version": 1,
            "summary": jsonable(self.summary),
            "plans": jsonable(self.plans),
            "slo": jsonable(self.summary.get("slo")),
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    def render(self, title: str = "serve-sim") -> str:
        from repro.eval.reporting import render_metrics

        return render_metrics(title, self.summary)


class Dispatcher:
    """One replica's serving engine over an externally-owned unit pool.

    The dispatcher holds the per-replica state — dynamic batcher, KV
    session table, idle-unit set, metrics collector — but takes its
    :class:`~repro.hw.system.UnitPool`, its event sink and its batch
    pricer ``cost`` (a :class:`~repro.cluster.sharding.ShardedCostModel`)
    from the driver.  Events it emits through ``push``:

    * ``("finish", (self, unit, batch))`` at a batch's completion cycle;
    * ``("wake", self)`` at the next batch-window expiry while units
      idle on a non-empty queue.

    The driver routes those events back into :meth:`on_finish` /
    :meth:`on_wake` and calls :meth:`try_dispatch` + :meth:`observe_queue`
    after every event it processes for this replica.  Each event names
    its dispatcher, so one sink serves a whole fleet.

    ``track_prefix`` namespaces tracer tracks (``r3.unit7`` in cluster
    runs, bare ``unit7`` in single-pool runs).

    ``slo`` (default: the disabled :data:`~repro.obs.slo.NULL_SLO`)
    receives every completion/rejection for burn-rate accounting, and
    ``recorder`` is bound to it to observe the burn after each one.
    ``path`` (default ``None`` = off) turns on request-path stage
    decomposition: sampled requests carry a
    :class:`~repro.obs.tracer.SpanContext` from admission to completion,
    and every dispatch records the named stage children
    (``queue``/``batch_wait``/``shard_compute``/...) that tile the
    request's latency; completion raises
    :class:`~repro.errors.InvariantError` when the stages of a request
    that dropped no spans do not sum to it.  ``processes`` maps unit
    index -> tracer process (board) name, so cluster traces show boards
    as processes.
    The dispatcher writes no registry metrics: its
    :class:`~repro.serve.metrics.MetricsCollector` and plan ledger are
    the run's record, published once at run end
    (:func:`repro.cluster.simulate.publish_metrics`).
    """

    def __init__(
        self,
        config: ServeConfig,
        pool: UnitPool,
        push: EventSink,
        *,
        cost: ShardedCostModel,
        metrics: MetricsCollector | None = None,
        tracer: Tracer = NULL_TRACER,
        track_prefix: str = "",
        slo: SLOTracker = NULL_SLO,
        path: RequestPathConfig | None = None,
        processes: tuple[str, ...] | None = None,
        recorder: FlightRecorder = NULL_RECORDER,
    ) -> None:
        self.config = config
        self.pool = pool
        self.push = push
        self.batcher = DynamicBatcher(config.policy, config.clock)
        self.sessions = SessionTable(
            pool.n_units,
            max_sessions_per_unit=config.max_sessions_per_unit,
            kv_bytes_per_token=config.profile.kv_bytes_per_token,
        )
        self.cost = cost
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.tracer = tracer
        self.track_prefix = track_prefix
        self.slo = slo
        self.path = path if tracer.enabled else None
        self.recorder = recorder
        if recorder.enabled:
            # Lets record_dispatch compute batch fill lazily (only when
            # the occupancy detector is configured on), and the recorder
            # read the SLO burn after each completion and rejection.
            recorder.bind_policy(config.policy)
            recorder.bind_slo(slo)
        self.idle = set(range(pool.n_units))
        #: (phase, batch size) -> dispatch count.  First hit per key is
        #: the trace (plan build), the rest are replays — the serving
        #: analogue of :func:`repro.runtime.plan.resolve_plan` keying
        #: plans on the batch-group shape.
        self.plan_ledger: dict[tuple[str, int], int] = {}
        self._pending_wakes: set[int] = set()
        self._last_depth = -1
        self._ctx: dict[int, SpanContext] = {}
        #: Each unit's (track, process) on the tracer, and the edge track.
        self._unit_tracks = [
            (f"{track_prefix}unit{u}",
             processes[u] if processes else DEFAULT_PROCESS)
            for u in range(pool.n_units)] if tracer.enabled else []
        self._edge = f"{track_prefix}edge"

    # -- intake ---------------------------------------------------------------
    def depth(self) -> int:
        """Queued phase items (the admission-control pressure signal)."""
        return self.batcher.depth()

    def admit(self, req: Request, now: int) -> bool:
        """Bounded-queue admission: enqueue the request or shed it (503).

        Records the arrival either way; returns ``True`` when admitted.
        """
        self.metrics.record_arrival(req)
        if self.recorder.enabled:
            self.recorder.record_arrival(req, now)
        if self.batcher.depth() >= self.config.max_queue:
            self.metrics.record_rejection(req)
            if self.slo.enabled:
                self.slo.record_rejection(req, now)
            if self.recorder.enabled:
                self.recorder.record_rejection(req, now)
            return False
        self.enqueue(req, now)
        if self.recorder.enabled:
            # Queue depth is sampled once per admitted arrival — the
            # buildup signal the detector wants — rather than on every
            # decode re-queue oscillation (which would cost a hook call
            # per simulation event).  Arrivals are deterministic, so a
            # replay observes the identical depth sequence.
            self.recorder.observe_queue(now, self.batcher.depth())
        if self.path is not None and self.path.samples(req.rid):
            ctx = SpanContext(req.rid, req.kind, self.tracer,
                              self.path.max_spans_per_request)
            self._ctx[req.rid] = ctx
            ctx.child("admit", start=req.arrival, end=now)
            ctx.flow("s", cycle=now, track=self._edge)
        return True

    def trace_ctx(self, req: Request) -> SpanContext | None:
        """The live span context of a sampled in-flight request (if any)."""
        return self._ctx.get(req.rid)

    def enqueue(self, req: Request, now: int) -> None:
        """Queue a request's first phase item without an admission check."""
        phase = "vit" if req.kind == "vit" else "prefill"
        self.batcher.add(PhaseItem(req, phase, ready=now,
                                   context=req.prompt_tokens))

    # -- dispatch -------------------------------------------------------------
    def try_dispatch(self, now: int) -> None:
        """Launch every batch that can start now on an idle unit.

        One pass over the idle units that can start work, lowest first.
        A unit is offered :meth:`DynamicBatcher.pop_ready` only if decode
        steps are pinned to it or a vit/prefill batch is ready; any other
        unit would get None.  So with no vit/prefill batch ready the pass
        walks only the idle units in :attr:`DynamicBatcher.decode_units`,
        and a decode launch never makes one ready.  Readiness is
        re-checked after each vit or prefill launch; once none is ready,
        the rest of the pass skips the units without pinned decode steps.

        The pass needs no restart from the lowest unit after a launch,
        because no unit it already passed can become dispatchable.
        Within one call at a fixed ``now`` no queue grows, vit and
        prefill can only become less ready (the queues are FIFO in ready
        time and only shrink), and a launch changes session slots only
        on its own unit.  The one input to ``pop_ready`` shared between
        units is whether prefill is pending, which the decode early-close
        rule reads; it flips only when a higher unit empties the prefill
        queue.  But a lower idle unit with free slots would already have
        taken that ready prefill batch itself, and a lower unit with no
        free slots closes at residency whatever the prefill queue holds.
        """
        batcher, sessions = self.batcher, self.sessions
        pinned = batcher.decode_units
        slots = sessions.max_sessions_per_unit
        shared = batcher.global_ready(now)
        for u in sorted(self.idle if shared else self.idle & pinned):
            if not shared and u not in pinned:
                continue
            resident = sessions.active(u)
            batch = batcher.pop_ready(now, u, prefill_slots=slots - resident,
                                      decode_sessions=resident)
            if batch is None:
                continue
            self._launch(u, batch, now)
            if batch.phase != "decode":
                shared = batcher.global_ready(now)
        # If units stay idle on a non-empty queue whose window has not
        # expired yet, arrange to re-check at the next *future* expiry.
        # An already-expired but undispatchable queue (KV slots exhausted,
        # decode pinned to a busy unit) can only unblock at a finish
        # event, which re-runs this function — no wake would help it.
        if self.idle and batcher.depth():
            expiry = batcher.next_expiry(now)
            if expiry is not None and expiry not in self._pending_wakes:
                self._pending_wakes.add(expiry)
                self.push(expiry, "wake", self)

    def _launch(self, u: int, batch: Batch, now: int) -> None:
        """Start ``batch`` on idle unit ``u`` and schedule its finish."""
        if batch.phase == "prefill":
            for item in batch.items:
                self.sessions.open(item.request, u)
        cycles = self.cost.batch_cycles(batch)
        finish = self.pool.assign(u, now, cycles,
                                  f"{batch.phase}x{batch.size}")
        self.idle.discard(u)
        self.metrics.record_dispatch(batch.phase, batch.size)
        plan_new = False
        if self.config.compiled and batch.phase == "decode":
            key = (batch.phase, batch.size)
            plan_new = key not in self.plan_ledger
            self.plan_ledger[key] = self.plan_ledger.get(key, 0) + 1
        if self.recorder.enabled:
            self.recorder.record_dispatch(now, batch, u, plan_new)
        if self.tracer.enabled:
            track, process = self._unit_tracks[u]
            t_close, stages, granted, n_stages = 0, (), [], 0
            live = ([(item, ctx) for item in batch.items
                     if (ctx := self._ctx.get(item.request.rid)) is not None]
                    if self._ctx else ())
            if live:
                # Each sampled item's stage group tiles [item.ready,
                # finish]: batch_wait is the wait for the batch to close
                # (its last item's ready time), queue the wait from close
                # to dispatch, and the compute window splits into the cost
                # model's stages laid end to end (a modeling
                # simplification; the real overlap is interleaved).  Over
                # a request's phase items (each ready at the previous
                # finish) the stages tile the request end to end.  The
                # group, flow step included, is granted whole or dropped
                # whole, so a capped request never keeps a board's stages
                # without the flow that links that board.
                t_close = max(item.ready for item in batch.items)
                breakdown = self.cost.batch_breakdown(batch)
                stages = tuple((stage, c) for stage in _COMPUTE_STAGES
                               if (c := breakdown.get(stage, 0)) > 0)
                compute = sum(c for _, c in stages)
                shared = len(stages) + (now > t_close)
                for item, ctx in live:
                    children = shared + (t_close > item.ready)
                    if ctx.grant(children + 1, now - item.ready + compute):
                        granted.append(item)
                        n_stages += children
            self.tracer.record_dispatch(
                DispatchRecord(track, process, now, finish, batch, t_close,
                               stages, tuple(granted)), n_stages)
        self.push(finish, "finish", (self, u, batch))

    # -- event handlers -------------------------------------------------------
    def on_finish(self, unit: int, batch: Batch, now: int) -> None:
        """Free ``unit`` and complete each item of its finished batch.

        A vit item completes its request.  A prefill item queues its
        session's first decode step.  A decode item is one generated
        token (step 0 also records the first-token latency); its session
        then steps and re-queues, or closes and completes the request.
        The token count moves once per batch: only the run's summary
        reads it, so no observer can tell that from once per item.
        """
        self.idle.add(unit)
        phase = batch.phase
        if phase == "decode":
            metrics, step, add = self.metrics, self.sessions.step, self.batcher.add
            metrics.tokens_out += batch.size
            for item in batch.items:
                req = item.request
                if item.step == 0:
                    metrics.record_first_token(req, now)
                nxt = step(req.rid, now)
                if nxt is None:
                    self._complete_request(req, now)
                else:
                    add(nxt)
        elif phase == "prefill":
            first, add = self.sessions.first_decode_item, self.batcher.add
            for item in batch.items:
                add(first(item.request.rid, now))
        else:
            for item in batch.items:
                self._complete_request(item.request, now)

    def on_wake(self, now: int) -> None:
        self._pending_wakes.discard(now)

    def observe_queue(self, now: int) -> int:
        """Post-event queue-depth sample (metrics + tracer counter);
        returns the sampled depth."""
        depth = self.batcher.depth()
        self.metrics.queue_samples.append((now, depth))
        if depth != self._last_depth:
            if self.tracer.enabled:
                self.tracer.counter(f"{self.track_prefix}queue_depth",
                                    cycle=now, value=depth)
            self._last_depth = depth
        return depth

    # -- request lifecycle ----------------------------------------------------
    def _complete_request(self, req: Request, now: int) -> None:
        self.metrics.record_completion(req, now)
        if self.slo.enabled:
            self.slo.record_completion(req, now)
        if self.recorder.enabled:
            self.recorder.record_completion(
                req, now, req.deadline is not None and now > req.deadline)
        if self.tracer.enabled:
            granted = 0
            ctx = self._ctx.pop(req.rid, None)
            if ctx is not None:
                # respond, then the flow finish: one event each, in order
                granted = ctx.grant(1, 0) + ctx.grant(1, 0)
                if not ctx.dropped and ctx.stage_cycles != now - req.arrival:
                    raise InvariantError(
                        f"request {req.rid}: stages cover {ctx.stage_cycles} "
                        f"of its {now - req.arrival}-cycle latency")
            self.tracer.record_completion(CompletionRecord(
                req, now, self._edge, granted, self.path is not None))

    # -- accounting -----------------------------------------------------------
    @property
    def busy_cycles(self) -> int:
        return sum(t.busy_cycles for t in self.pool.timelines)

    def active_sessions(self) -> int:
        return self.sessions.active()


def simulate(
    requests: list[Request],
    config: ServeConfig = ServeConfig(),
    *,
    tracer: Tracer = NULL_TRACER,
    registry: MetricsRegistry | None = None,
    slo: SLOTracker = NULL_SLO,
    path: RequestPathConfig | None = None,
    recorder: FlightRecorder = NULL_RECORDER,
    spike=None,
) -> ServeReport:
    """Run the open-loop serving simulation over a request trace.

    The single-pool front end of :func:`repro.cluster.simulate.drive`:
    one board of ``config.clock.n_units`` units as a one-replica cluster,
    reported as that replica.  ``tracer`` (default: the disabled
    :data:`NULL_TRACER`) records the run as per-unit dispatch spans,
    per-request async spans and a queue-depth counter series, all in
    simulated cycles — export with ``report.tracer.to_json()``.
    ``registry`` (default: the process-wide one) receives the serving
    counters/histograms (dispatches, batch fill, queue depth, rejections,
    KV pressure), published once when the run ends.  ``slo`` (default:
    disabled) adds per-class deadline budgets/burn rates to the summary
    under ``"slo"``; ``path`` (default: off) turns on request-path stage
    decomposition in the trace.
    ``spike`` is a :class:`~repro.obs.incident_cli.SpikeInjection`, as
    ``ClusterConfig.spike``.
    """
    from repro.cluster.simulate import (
        ClusterConfig,
        ClusterSpec,
        drive,
        publish_metrics,
    )

    clock = config.clock
    reg = get_registry() if registry is None else registry
    # No edge bound: the dispatcher's own max_queue sheds every 503.
    one_board = ClusterConfig(
        serve=config, spec=ClusterSpec(boards=1, units_per_board=clock.n_units),
        max_cluster_queue=sys.maxsize, spike=spike)
    run = drive(requests, one_board, tracer=tracer, slo=slo, path=path,
                recorder=recorder, bare=True)
    d = run.replicas[0].dispatcher
    busy = d.busy_cycles
    if reg.enabled:
        publish_metrics(reg, run, bare=True)
        reg.counter("serve.arrivals").inc(d.metrics.arrivals)
        reg.counter("serve.tokens_out").inc(d.metrics.tokens_out)
        reg.counter("serve.busy_cycles").inc(busy)
        reg.gauge("serve.kv_bytes_peak").set(d.sessions.peak_kv_bytes)
        reg.gauge("serve.horizon_cycles").set(d.metrics.last_completion)
    summary = d.metrics.summary(clock=clock, busy_cycles=busy)
    summary["active_sessions_peak_kv_mib"] = d.sessions.peak_kv_bytes / 2**20
    if slo.enabled:
        summary["slo"] = slo.snapshot(d.metrics.last_completion)
    if recorder.enabled:
        summary["recorder"] = recorder.finalize(run.end)
    plans = None
    if config.compiled:
        total = sum(d.plan_ledger.values())
        plans = {
            "decode_group_shapes": len(d.plan_ledger),
            "traces": len(d.plan_ledger),
            "replays": total - len(d.plan_ledger),
            "dispatches": total,
            "by_shape": {
                f"{phase}x{size}": count
                for (phase, size), count in sorted(d.plan_ledger.items())
            },
        }
    return ServeReport(summary, config, d.pool, d.metrics, tracer, plans)


# -- config snapshots ---------------------------------------------------------

def serve_config_to_dict(config: ServeConfig) -> dict:
    """JSON-ready snapshot of a :class:`ServeConfig` (incident bundles).

    Every field the simulation's dynamics depend on round-trips through
    :func:`serve_config_from_dict` exactly — the pair is what makes an
    incident bundle self-contained.
    """
    from dataclasses import asdict

    return {
        "profile": asdict(config.profile),
        "policy": asdict(config.policy),
        "max_queue": config.max_queue,
        "max_sessions_per_unit": config.max_sessions_per_unit,
        "clock": asdict(config.clock),
        "mem": asdict(config.mem),
        "precision": (config.precision.to_dict()
                      if config.precision is not None else None),
        "modes": (config.modes.as_dict()
                  if config.modes is not None else None),
        "compiled": config.compiled,
    }


def serve_config_from_dict(doc: dict) -> ServeConfig:
    """Rebuild a :class:`ServeConfig` from its snapshot dict."""
    profile = dict(doc["profile"])
    vit = ViTConfig(**profile.pop("vit"))
    precision = doc.get("precision")
    return ServeConfig(
        profile=ModelProfile(vit=vit, **profile),
        policy=BatchPolicy(**doc["policy"]),
        max_queue=doc["max_queue"],
        max_sessions_per_unit=doc["max_sessions_per_unit"],
        clock=ClockConfig(**doc["clock"]),
        mem=MemoryModel(**doc["mem"]),
        precision=(PrecisionPolicy.from_dict(precision)
                   if precision else None),
        modes=(ModeOptions.from_dict(doc["modes"])
               if doc.get("modes") else None),
        compiled=doc.get("compiled", True),
    )
