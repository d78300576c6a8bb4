"""Cluster serving simulation: a fleet of replicas behind one router.

:func:`drive` is the repo's one simulation driver, over the per-replica
engine :class:`repro.serve.dispatcher.Dispatcher`.  One event heap
carries the whole fleet — arrivals hit the cluster edge, get routed
(:class:`~repro.cluster.router.Router`: session affinity, then
join-the-shortest-queue with seeded ties), and land in one replica's
batcher; each replica dispatches onto its own *lanes* (shard groups of
``tp * pp`` units, :class:`~repro.cluster.sharding.ShardedCostModel`
pricing compute + interconnect per batch).

When an :class:`~repro.cluster.autoscaler.AutoscalerConfig` is given, a
periodic autoscale event samples fleet pressure and spawns or drains
replicas mid-trace: new replicas become routable after a provisioning
delay; draining replicas finish their queued and resident work before
their boards return to the free pool (live KV is never evicted).  Every
decision lands in the report as a
:class:`~repro.cluster.autoscaler.ScaleEvent`.

Determinism: integer cycle time, ``(cycle, sequence)`` event order, a
seeded trace and a seeded router — one ``(trace seed, router seed)``
pair replays byte-identically.
"""

from __future__ import annotations

import heapq
import itertools
import json
from dataclasses import dataclass, field

from repro.cluster.autoscaler import Autoscaler, AutoscalerConfig
from repro.cluster.router import Router
from repro.cluster.sharding import ShardedCostModel
from repro.cluster.topology import Board, ClusterSpec, Replica
from repro.errors import ConfigurationError, InvariantError
from repro.hw.system import UnitPool
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.recorder import NULL_RECORDER, FlightRecorder
from repro.obs.slo import NULL_SLO, SLOTracker
from repro.obs.tracer import NULL_TRACER, RequestPathConfig, Tracer
from repro.serve.dispatcher import Dispatcher, ServeConfig
from repro.serve.metrics import MetricsCollector, percentiles
from repro.serve.request import Request

__all__ = ["ClusterConfig", "ClusterReport", "simulate_cluster",
           "publish_metrics"]


@dataclass(frozen=True)
class ClusterConfig:
    """One cluster run: serving config, fleet shape, scaling policy.

    ``spike`` (a :class:`~repro.obs.incident_cli.SpikeInjection`, or
    ``None``) injects a deterministic latency spike into every replica's
    :class:`~repro.cluster.sharding.ShardedCostModel` — the value the
    ``--inject-spike-*`` flags build.
    """

    serve: ServeConfig = ServeConfig()
    spec: ClusterSpec = ClusterSpec()
    autoscaler: AutoscalerConfig | None = None
    initial_replicas: int = 1
    max_cluster_queue: int = 4096
    router_seed: int = 0
    spike: object | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.initial_replicas <= self.spec.max_replicas:
            raise ConfigurationError(
                f"initial_replicas must be in [1, {self.spec.max_replicas}]"
            )
        if self.max_cluster_queue <= 0:
            raise ConfigurationError("cluster admission bound must be positive")
        a = self.autoscaler
        if a is not None:
            if a.max_replicas > self.spec.max_replicas:
                raise ConfigurationError(
                    f"autoscaler max_replicas ({a.max_replicas}) exceeds "
                    f"fleet capacity ({self.spec.max_replicas})"
                )
            if not a.min_replicas <= self.initial_replicas <= a.max_replicas:
                raise ConfigurationError(
                    "initial_replicas outside the autoscaler's "
                    f"[{a.min_replicas}, {a.max_replicas}] band"
                )


@dataclass
class ClusterReport:
    """Outcome of one cluster run: fleet summary, per-replica rows, events."""

    summary: dict
    per_replica: list[dict]
    scale_events: list[dict]
    config: ClusterConfig
    tracer: Tracer = field(default_factory=lambda: NULL_TRACER, repr=False)

    def to_json(self) -> str:
        return json.dumps(
            {
                "summary": self.summary,
                "per_replica": self.per_replica,
                "scale_events": self.scale_events,
            },
            indent=2,
            sort_keys=True,
        )

    def render(self, title: str = "cluster-sim") -> str:
        from repro.eval.reporting import render_metrics

        lines = [render_metrics(title, self.summary)]
        lines.append("")
        lines.append(
            f"{'replica':>8} {'state':>9} {'boards':>8} {'completed':>9} "
            f"{'util':>6} {'p95 ms':>8} {'p99 ms':>8} {'ic %':>6}"
        )
        for row in self.per_replica:
            lines.append(
                f"{row['rid']:>8} {row['state']:>9} "
                f"{','.join(str(b) for b in row['boards']):>8} "
                f"{row['completed']:>9} {row['utilization']:>6.2f} "
                f"{row['latency_p95_ms']:>8.3f} {row['latency_p99_ms']:>8.3f} "
                f"{100 * row['interconnect_share']:>6.2f}"
            )
        if self.scale_events:
            lines.append("")
            for ev in self.scale_events:
                lines.append(
                    f"  cycle {ev['cycle']:>12}  {ev['action']:<10} "
                    f"r{ev['rid']}  active={ev['n_active']}  "
                    f"({ev['reason']})"
                )
        return "\n".join(lines)


@dataclass
class FleetRun:
    """What one :func:`drive` run leaves for its front end to report."""

    replicas: list[Replica]
    router: Router | None
    scaler: Autoscaler | None
    edge_rejected: int
    queue_samples: list[tuple[int, int]]  # fleet series; empty when bare
    end: int  # cycle of the last event


def drive(
    requests: list[Request],
    config: ClusterConfig,
    *,
    tracer: Tracer,
    slo: SLOTracker,
    path: RequestPathConfig | None,
    recorder: FlightRecorder,
    bare: bool = False,
) -> FleetRun:
    """The one event loop under :func:`simulate_cluster` and the
    single-pool :func:`repro.serve.dispatcher.simulate`.

    Event tags: ``arrive`` (a request at the cluster edge), ``finish`` /
    ``wake`` (a dispatcher's own events, naming it in their payload),
    ``spawn`` (a provisioning replica becoming routable) and
    ``autoscale`` (a periodic policy sample).  ``bare`` is the single
    pool's naming: its one replica, reached without the router, exports
    bare ``unitN`` tracks and no fleet series.  The loop writes no
    registry metrics (the front ends call :func:`publish_metrics` on the
    finished run).  The run ends in an O(replicas) conservation check.
    """
    spec = config.spec
    router = None if bare else Router(config.router_seed, slo=slo)
    scaler = (
        Autoscaler(config.autoscaler, config.serve.clock)
        if config.autoscaler is not None
        else None
    )

    boards = [Board(b) for b in range(spec.boards)]
    replicas: list[Replica] = []
    owner: dict[Dispatcher, Replica] = {}

    events: list[tuple[int, int, str, object]] = []
    seq = itertools.count()

    def push(t: int, tag: str, payload: object = None) -> None:
        heapq.heappush(events, (t, next(seq), tag, payload))

    def allocate_boards(rid: int) -> tuple[int, ...] | None:
        free = [b for b in boards if b.free][: spec.boards_per_replica]
        if len(free) < spec.boards_per_replica:
            return None
        for b in free:
            b.owner = rid
        return tuple(b.bid for b in free)

    def spawn_replica(now: int, active_at: int) -> Replica | None:
        rid = len(replicas)
        owned = allocate_boards(rid)
        if owned is None:
            return None
        r = Replica(rid, owned, spawned_at=active_at,
                    state="active" if active_at <= now else "provisioning")
        # Lane -> board process for the trace: a lane's units live on the
        # board holding its first shard unit (boards as processes,
        # replica lanes as threads under them).
        lane_procs = tuple(
            f"board{owned[(lane * spec.plan.degree) // spec.units_per_board]}"
            for lane in range(spec.lanes_per_replica)
        )
        r.dispatcher = Dispatcher(
            config.serve,
            UnitPool(spec.lanes_per_replica),
            push,
            cost=ShardedCostModel(config.serve, spec, spike=config.spike),
            tracer=tracer,
            track_prefix="" if bare else f"r{rid}.",
            slo=slo,
            path=path,
            processes=None if bare else lane_procs,
            recorder=recorder,
        )
        owner[r.dispatcher] = r
        replicas.append(r)
        if active_at > now:
            push(active_at, "spawn", rid)
        return r

    def retire_if_drained(r: Replica, now: int) -> None:
        if r.state == "draining" and r.drained():
            r.state = "retired"
            r.retired_at = now
            for b in boards:
                if b.owner == r.rid:
                    b.owner = None
            note_active(now)

    fleet_trace = tracer.enabled and not bare
    _last_active = -1

    def note_active(now: int) -> None:
        nonlocal _last_active
        n = sum(1 for r in replicas if r.active)
        if fleet_trace and n != _last_active:
            tracer.counter("cluster.active_replicas", cycle=now, value=n)
            _last_active = n

    for _ in range(config.initial_replicas):
        spawn_replica(0, 0)
    note_active(0)

    arrivals_remaining = len(requests)
    edge_rejected = 0
    # Queued items over the active replicas as last sampled: an event only
    # changes the queues of the replicas it settles, so it moves by deltas.
    fleet_depth = 0
    queue_samples: list[tuple[int, int]] = []

    def settle(r: Replica, now: int) -> None:
        """Dispatch on a replica an event touched; re-sample its queue."""
        nonlocal fleet_depth
        d = r.dispatcher
        d.try_dispatch(now)
        depth = d.observe_queue(now)
        if r.state == "active":
            fleet_depth += depth - r.queued
        else:
            retire_if_drained(r, now)
        r.queued = depth

    def work_pending() -> bool:
        return bool(arrivals_remaining) or any(
            r.state == "provisioning" or r.state != "retired" and (
                r.dispatcher.depth()
                or len(r.dispatcher.idle) < r.dispatcher.pool.n_units)
            for r in replicas
        )

    def run_autoscale(now: int) -> None:
        nonlocal fleet_depth
        pending_up = sum(1 for r in replicas if r.state == "provisioning")
        free_capacity = (
            sum(1 for b in boards if b.free) // spec.boards_per_replica
        )
        burn = slo.fleet_burn(now) if slo.enabled else 0.0
        action = scaler.decide(
            now, replicas, pending_up=pending_up,
            free_capacity=free_capacity, burn_rate=burn,
        )
        if action is None:
            return
        depth, util = scaler._last_signals
        n_active = sum(1 for r in replicas if r.active)
        if action == "up":
            r = spawn_replica(now, now + scaler.provision)
            if r is None:  # pragma: no cover - guarded by free_capacity
                return
            if depth > scaler.cfg.scale_up_queue:
                reason = f"queue {depth:.1f} > {scaler.cfg.scale_up_queue:g}"
            elif util > scaler.cfg.scale_up_utilization:
                reason = f"util {util:.2f} > {scaler.cfg.scale_up_utilization:g}"
            else:
                reason = (f"burn {burn:.2f} > "
                          f"{scaler.cfg.scale_up_burn_rate:g}")
            ev = scaler.record(
                now, "scale_up", r.rid, n_active + pending_up + 1,
                depth, util, reason, burn,
                incident=recorder.active_incident_id(),
            )
        else:
            # Drain the shallowest-queue active replica; ties go to the
            # youngest (highest rid) so long-lived replicas keep their
            # warm sessions.
            active = [r for r in replicas if r.active]
            victim = min(
                active, key=lambda r: (r.dispatcher.depth(), -r.rid)
            )
            victim.state = "draining"
            fleet_depth -= victim.queued
            router.forget(victim.rid)
            ev = scaler.record(
                now, "scale_down", victim.rid, n_active - 1, depth, util,
                f"queue {depth:.1f} < {scaler.cfg.scale_down_queue:g} and "
                f"util {util:.2f} < {scaler.cfg.scale_down_utilization:g}",
                burn,
                incident=recorder.active_incident_id(),
            )
            retire_if_drained(victim, now)
        note_active(now)
        if recorder.enabled:
            recorder.record_scale(now, ev.as_dict())
        if tracer.enabled:
            tracer.span(
                f"{ev.action} r{ev.rid}",
                track="cluster",
                start=now,
                end=now,
                cat="autoscale",
                args=ev.as_dict(),
            )

    for req in sorted(requests, key=lambda r: (r.arrival, r.rid)):
        push(req.arrival, "arrive", req)
    if scaler is not None:
        push(scaler.interval, "autoscale", None)

    now = 0
    while events:
        now, _, tag, payload = heapq.heappop(events)
        if tag == "finish":
            d, unit, batch = payload
            d.on_finish(unit, batch, now)
            settle(owner[d], now)
        elif tag == "arrive":
            arrivals_remaining -= 1
            req = payload
            target = None
            if fleet_depth >= config.max_cluster_queue:
                edge_rejected += 1
                if slo.enabled:
                    slo.record_rejection(req, now)
                if recorder.enabled:
                    recorder.record_rejection(req, now)
            else:  # min_replicas >= 1 keeps a routable replica
                target = (replicas[0] if router is None
                          else router.route(req, replicas, now))
                if target.dispatcher.admit(req, now) and router is not None:
                    ctx = target.dispatcher.trace_ctx(req)
                    if ctx is not None:
                        ctx.child(
                            "route", start=req.arrival, end=now,
                            args={"replica": target.rid,
                                  "queue_depth": target.dispatcher.depth()},
                        )
            if target is not None:
                settle(target, now)
        elif tag == "wake":
            payload.on_wake(now)
            settle(owner[payload], now)
        elif tag == "spawn":
            r = replicas[payload]
            if r.state == "provisioning":
                r.state = "active"
                note_active(now)
                settle(r, now)
        else:  # autoscale
            run_autoscale(now)
            live = [r for r in replicas if r.state != "retired"]
            if work_pending():
                push(now + scaler.interval, "autoscale", None)
            for r in live:
                settle(r, now)
        if not bare:
            queue_samples.append((now, fleet_depth))
        if recorder.enabled and not any(
            len(r.dispatcher.idle) < r.dispatcher.pool.n_units
            or not r.dispatcher.batcher.empty()
            for r in replicas if r.state != "retired"
        ):
            # A fleet-wide idle point (cheap unit check first, queue scan
            # only when every unit is free) is the recorder's capture-epoch
            # boundary: a single-pool replay re-simulates exactly one
            # epoch from its arrival rows; cluster bundles are
            # capture-only, but epochs still bound the arrival capture.
            recorder.end_event(now, True)

    # Conservation: each request is shed at the edge or admitted to one
    # replica, which completes or rejects it; busy cycles fit the lanes;
    # every session has closed and returned its KV.
    horizon = max(r.dispatcher.metrics.last_completion for r in replicas)
    routed = 0
    for r in replicas:
        d, m, s = r.dispatcher, r.dispatcher.metrics, r.dispatcher.sessions
        routed += m.arrivals
        span, lanes = r.active_span(horizon), d.pool.n_units
        if m.arrivals != m.completed + m.rejections or d.busy_cycles > span * lanes:
            raise InvariantError(
                f"replica {r.rid}: {m.arrivals} arrivals, {m.completed} "
                f"completed, {m.rejections} rejected; {d.busy_cycles} busy "
                f"cycles in a {span}-cycle span x {lanes} lanes")
        if s.active() or s.kv_tokens:
            raise InvariantError(
                f"replica {r.rid}: {s.active()} sessions and {s.kv_tokens} "
                f"KV tokens resident at run end")
    if routed + edge_rejected != len(requests):
        raise InvariantError(f"edge: {len(requests)} requests, {routed} "
                             f"admitted, {edge_rejected} rejected")
    return FleetRun(replicas, router, scaler, edge_rejected, queue_samples,
                    now)


def publish_metrics(registry: MetricsRegistry, run: FleetRun, *,
                    bare: bool = False) -> None:
    """Publish a finished run's serving counts and samples to ``registry``.

    Each replica's :class:`~repro.serve.metrics.MetricsCollector` and
    plan ledger, plus the run's edge rejections and scale events, are
    the one record of what happened; this copies them out once.  Names
    carry a ``cluster.r<rid>.`` prefix unless ``bare``; a metric is
    created only when it has something to count, and histogram samples
    keep event order.
    """
    counts: dict[str, int] = {"cluster.edge_rejections": run.edge_rejected}
    for ev in run.scaler.events if run.scaler else ():
        name = f"cluster.{ev.action}"
        counts[name] = counts.get(name, 0) + 1
    for r in run.replicas:
        d, m = r.dispatcher, r.dispatcher.metrics
        pre = "" if bare else f"cluster.r{r.rid}."
        traces = len(d.plan_ledger)
        counts[f"{pre}serve.rejections"] = m.rejections
        counts[f"{pre}serve.plan.traces"] = traces
        counts[f"{pre}serve.plan.replays"] = sum(d.plan_ledger.values()) - traces
        for phase, sizes in m.batch_sizes.items():
            counts[f"{pre}serve.dispatches.{phase}"] = len(sizes)
            limit = d.config.policy.batch_limit(phase)
            fill = registry.histogram(f"{pre}serve.batch_fill.{phase}")
            for size in sizes:
                fill.observe(size / limit)
        if m.queue_samples:
            depth = registry.histogram(f"{pre}serve.queue_depth")
            for _, n in m.queue_samples:
                depth.observe(n)
    for name, n in counts.items():
        if n:
            registry.counter(name).inc(n)


def simulate_cluster(
    requests: list[Request],
    config: ClusterConfig = ClusterConfig(),
    *,
    tracer: Tracer = NULL_TRACER,
    registry: MetricsRegistry | None = None,
    slo: SLOTracker = NULL_SLO,
    path: RequestPathConfig | None = None,
    recorder: FlightRecorder = NULL_RECORDER,
) -> ClusterReport:
    """Run the cluster serving simulation over a request trace.

    ``slo`` (default: disabled) is the fleet-wide SLO tracker — every
    replica reports completions/rejections into it, the router uses its
    burn rates for affinity bypass, the autoscaler for burn-triggered
    scale-ups, and the summary gains an ``"slo"`` section.  ``path``
    turns on request-path stage decomposition in the trace: boards
    become trace processes, units threads, and sampled requests carry
    named stage children across the edge -> router -> replica -> shard
    path (one :class:`~repro.obs.tracer.SpanContext` per request).

    ``recorder`` (default: disabled) is shared across the fleet: every
    replica's dispatcher feeds it, edge rejections and scale decisions
    land in its decision ring, and scale events are annotated with the
    incident open at decision time.  Cluster bundles are capture-only
    (``replay.supported = false``): the router's RNG and the
    autoscaler's window state span capture epochs, so the single-pool
    epoch-replay argument does not hold here.
    """
    spec = config.spec
    clock = config.serve.clock
    reg = get_registry() if registry is None else registry
    run = drive(requests, config, tracer=tracer, slo=slo, path=path,
                recorder=recorder)
    replicas, router, scaler = run.replicas, run.router, run.scaler
    edge_rejected = run.edge_rejected

    # -- merge ----------------------------------------------------------------
    merged = MetricsCollector()
    total_busy = 0
    for r in replicas:
        m = r.dispatcher.metrics
        merged.arrivals += m.arrivals
        merged.rejections += m.rejections
        merged.completed += m.completed
        merged.tokens_out += m.tokens_out
        merged.deadline_misses += m.deadline_misses
        merged.latencies.extend(m.latencies)
        merged.ttft.extend(m.ttft)
        merged.last_completion = max(merged.last_completion, m.last_completion)
        for phase, sizes in m.batch_sizes.items():
            merged.batch_sizes.setdefault(phase, []).extend(sizes)
        total_busy += r.dispatcher.busy_cycles
    merged.queue_samples = run.queue_samples
    horizon = merged.last_completion

    summary = merged.summary(clock=clock, busy_cycles=total_busy)
    capacity = sum(
        r.active_span(horizon) * r.dispatcher.pool.n_units for r in replicas
    )
    summary["utilization"] = total_busy / capacity if capacity else 0.0
    summary["arrivals"] = merged.arrivals + edge_rejected
    summary["rejected"] = merged.rejections + edge_rejected
    summary["rejection_rate"] = (
        summary["rejected"] / summary["arrivals"] if summary["arrivals"] else 0.0
    )
    costs = [r.dispatcher.cost for r in replicas]
    compute_total = sum(c.compute_cycles_total for c in costs)
    inter_total = sum(c.interconnect_cycles_total for c in costs)
    lane_total = compute_total + inter_total
    summary.update(
        {
            "edge_rejected": edge_rejected,
            "replicas_spawned": len(replicas),
            "replicas_final": sum(1 for r in replicas if r.active),
            "scale_ups": sum(
                1 for e in (scaler.events if scaler else [])
                if e.action == "scale_up"
            ),
            "scale_downs": sum(
                1 for e in (scaler.events if scaler else [])
                if e.action == "scale_down"
            ),
            "interconnect_share": inter_total / lane_total if lane_total else 0.0,
            "interconnect_cycles": inter_total,
            "affinity_hit_rate": (
                router.affinity_hits
                / (router.affinity_hits + router.affinity_misses)
                if (router.affinity_hits + router.affinity_misses)
                else 0.0
            ),
            "shard_plan": spec.plan.describe(),
            "lanes_per_replica": spec.lanes_per_replica,
            "active_sessions_peak_kv_mib": sum(
                r.dispatcher.sessions.peak_kv_bytes for r in replicas
            ) / 2**20,
        }
    )
    if slo.enabled:
        summary["slo"] = slo.snapshot(horizon)
        summary["slo_router_bypasses"] = router.slo_bypasses
    if recorder.enabled:
        summary["recorder"] = recorder.finalize(horizon)

    per_replica: list[dict] = []
    f = clock.freq_hz
    for r in replicas:
        m = r.dispatcher.metrics
        span = r.active_span(horizon)
        lanes = r.dispatcher.pool.n_units
        _, p95, p99 = percentiles(m.latencies)
        mean_q, _, _, _ = m._queue_stats()
        per_replica.append(
            {
                "rid": r.rid,
                "state": r.state,
                "boards": list(r.boards),
                "spawned_at": r.spawned_at,
                "retired_at": r.retired_at,
                "lanes": lanes,
                "plan": spec.plan.describe(),
                "arrivals": m.arrivals,
                "completed": m.completed,
                "rejected": m.rejections,
                "tokens_out": m.tokens_out,
                "dispatches": sum(len(v) for v in m.batch_sizes.values()),
                "busy_cycles": r.dispatcher.busy_cycles,
                "utilization": (
                    r.dispatcher.busy_cycles / (span * lanes)
                    if span and lanes else 0.0
                ),
                "latency_p95_ms": p95 / f * 1e3,
                "latency_p99_ms": p99 / f * 1e3,
                "mean_queue_depth": mean_q,
                "interconnect_share": r.dispatcher.cost.interconnect_share,
            }
        )

    if reg.enabled:
        publish_metrics(reg, run)
        reg.counter("cluster.arrivals").inc(summary["arrivals"])
        reg.counter("cluster.tokens_out").inc(merged.tokens_out)
        reg.gauge("cluster.replicas_spawned").set(len(replicas))
        reg.gauge("cluster.horizon_cycles").set(horizon)
        # Per-replica/board-labeled fleet metrics: publish_metrics
        # namespaces each replica's serving counters under
        # ``cluster.r<rid>.``; these summary gauges make per-replica
        # utilization (and which boards backed it) verifiable straight
        # from a --metrics-out dump.
        for r, row in zip(replicas, per_replica):
            base = f"cluster.r{r.rid}"
            reg.gauge(f"{base}.utilization").set(row["utilization"])
            reg.gauge(f"{base}.busy_cycles").set(row["busy_cycles"])
            reg.counter(f"{base}.completed").inc(row["completed"])
            reg.counter(f"{base}.tokens_out").inc(row["tokens_out"])
            reg.gauge(f"{base}.interconnect_share").set(
                row["interconnect_share"]
            )
            for bid in r.boards:
                reg.gauge(f"cluster.board{bid}.replica").set(r.rid)

    return ClusterReport(
        summary,
        per_replica,
        [e.as_dict() for e in (scaler.events if scaler else [])],
        config,
        tracer,
    )
