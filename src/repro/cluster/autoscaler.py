"""Load-driven autoscaler: add and drain replicas as the trace breathes.

The autoscaler samples the fleet every ``interval_us`` of simulated time
and compares two pressure signals against hysteresis bands:

* **queue depth per active replica** — queued phase items averaged over
  active replicas (the admission-control pressure the router sees);
* **window utilization** — lane-busy cycles accrued since the last
  sample, over the window's lane-cycle capacity (clamped to 1: the pool
  credits a batch's full occupancy at assign time).

Scale **up** when either signal crosses its high threshold (a deep queue
means latency is already degrading even if utilization lags; saturated
lanes mean the queue is about to grow).  Scale **down** only when *both*
signals sit below their low thresholds — the hysteresis gap between the
bands, plus a cool-down after every action, is what keeps a diurnal trace
from flapping the fleet at the crossover points.  New replicas take
``provision_us`` to come up (bitstream load + weight push); draining
replicas finish their resident sessions before releasing boards — live KV
is never evicted.

When an SLO tracker is wired in (``scale_up_burn_rate``), a third signal
joins: the fleet's sustained error-budget **burn rate**.  A burn above
the trigger scales up even before queue/utilization trip (deadline
misses lead the load signals under bursty traffic), and any burn >= 1.0
vetoes scale-down — the fleet never shrinks while the budget is burning.

Every decision is recorded as a :class:`ScaleEvent` with the signals that
triggered it (including the burn rate), so a run's scaling story is an
artifact, not a log line.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.cluster.topology import Replica
from repro.errors import ConfigurationError
from repro.perf.throughput import DEFAULT_CLOCK, ClockConfig

__all__ = ["AutoscalerConfig", "ScaleEvent", "Autoscaler"]


@dataclass(frozen=True)
class AutoscalerConfig:
    """Thresholds, hysteresis and pacing of the scaling loop."""

    min_replicas: int = 1
    max_replicas: int = 4
    interval_us: float = 2_000.0
    cooldown_us: float = 8_000.0
    provision_us: float = 1_000.0
    scale_up_queue: float = 16.0      # queued items per active replica
    scale_down_queue: float = 2.0
    scale_up_utilization: float = 0.85
    scale_down_utilization: float = 0.40
    #: Sustained SLO burn rate above which the fleet scales up even
    #: before the queue/utilization thresholds trip (None = no SLO
    #: coupling).  Any burn >= 1.0 also vetoes scale-down: never shrink
    #: while the error budget is burning.
    scale_up_burn_rate: float | None = None

    def __post_init__(self) -> None:
        if self.scale_up_burn_rate is not None and self.scale_up_burn_rate <= 0:
            raise ConfigurationError("scale_up_burn_rate must be positive")
        if self.min_replicas <= 0 or self.max_replicas < self.min_replicas:
            raise ConfigurationError(
                "need 1 <= min_replicas <= max_replicas"
            )
        if self.interval_us <= 0:
            raise ConfigurationError("autoscale interval must be positive")
        if self.cooldown_us < 0 or self.provision_us < 0:
            raise ConfigurationError(
                "autoscale cooldown and provisioning delay cannot be negative"
            )
        if self.scale_down_queue >= self.scale_up_queue:
            raise ConfigurationError(
                "queue thresholds need hysteresis (down < up)"
            )
        if self.scale_down_utilization >= self.scale_up_utilization:
            raise ConfigurationError(
                "utilization thresholds need hysteresis (down < up)"
            )

    def interval_cycles(self, clock: ClockConfig = DEFAULT_CLOCK) -> int:
        return max(int(round(self.interval_us * 1e-6 * clock.freq_hz)), 1)

    def cooldown_cycles(self, clock: ClockConfig = DEFAULT_CLOCK) -> int:
        return int(round(self.cooldown_us * 1e-6 * clock.freq_hz))

    def provision_cycles(self, clock: ClockConfig = DEFAULT_CLOCK) -> int:
        return int(round(self.provision_us * 1e-6 * clock.freq_hz))


@dataclass(frozen=True)
class ScaleEvent:
    """One scaling decision and the evidence behind it."""

    cycle: int
    action: str  # "scale_up" | "scale_down"
    rid: int  # replica spawned (up) or put into draining (down)
    n_active: int  # active replicas *after* the decision takes hold
    queue_per_replica: float
    utilization: float
    reason: str
    burn_rate: float = 0.0  # sustained SLO burn at decision time (0 = no SLO)
    #: Flight-recorder incident open at decision time (None = calm):
    #: ties "the fleet scaled" to "while this anomaly was active".
    incident: str | None = None

    def as_dict(self) -> dict:
        return asdict(self)


class Autoscaler:
    """Threshold/hysteresis/cool-down scaling policy over the fleet."""

    def __init__(
        self,
        cfg: AutoscalerConfig = AutoscalerConfig(),
        clock: ClockConfig = DEFAULT_CLOCK,
    ) -> None:
        self.cfg = cfg
        self.interval = cfg.interval_cycles(clock)
        self.cooldown = cfg.cooldown_cycles(clock)
        self.provision = cfg.provision_cycles(clock)
        self.events: list[ScaleEvent] = []
        self._last_action_at: int | None = None
        self._busy_seen: dict[int, int] = {}
        self._last_sample_at = 0
        #: signals behind the most recent :meth:`decide` call, for the
        #: driver to quote in the recorded scale event.
        self._last_signals: tuple[float, float] = (0.0, 0.0)

    # -- signals -------------------------------------------------------------
    def signals(self, now: int, replicas: list[Replica]) -> tuple[float, float]:
        """``(queue_per_replica, window_utilization)`` over active replicas.

        Utilization is measured over the window since the previous
        sample from each replica's busy-cycle counter delta, clamped to
        1.0 (occupancy is credited at assign time, so a just-dispatched
        long batch can momentarily exceed the window).
        """
        active = [r for r in replicas if r.active]
        window = max(now - self._last_sample_at, 1)
        self._last_sample_at = now
        if not active:
            return 0.0, 0.0
        depth = sum(r.dispatcher.depth() for r in active) / len(active)
        busy_delta = 0
        capacity = 0
        for r in active:
            busy = r.dispatcher.busy_cycles
            busy_delta += busy - self._busy_seen.get(r.rid, 0)
            self._busy_seen[r.rid] = busy
            capacity += window * r.dispatcher.pool.n_units
        util = min(busy_delta / capacity, 1.0) if capacity else 0.0
        return depth, util

    def _cooling(self, now: int) -> bool:
        return (
            self._last_action_at is not None
            and now - self._last_action_at < self.cooldown
        )

    # -- decision ------------------------------------------------------------
    def decide(
        self,
        now: int,
        replicas: list[Replica],
        *,
        pending_up: int = 0,
        free_capacity: int = 0,
        burn_rate: float = 0.0,
    ) -> str | None:
        """``"up"``, ``"down"`` or ``None`` for this sampling point.

        ``pending_up`` counts replicas already provisioning (they hold
        fleet budget before they serve); ``free_capacity`` how many more
        replicas the boards can physically host.  ``burn_rate`` is the
        fleet's sustained SLO burn (0 when no SLO tracker is wired): it
        can trigger a scale-up before the load signals trip
        (``cfg.scale_up_burn_rate``), and any burn >= 1.0 vetoes a
        scale-down — the fleet never shrinks while the error budget is
        actively burning.
        """
        cfg = self.cfg
        depth, util = self.signals(now, replicas)
        self._last_signals = (depth, util)
        n_active = sum(1 for r in replicas if r.active)
        n_committed = n_active + pending_up
        if self._cooling(now):
            return None
        burn_up = (
            cfg.scale_up_burn_rate is not None
            and burn_rate > cfg.scale_up_burn_rate
        )
        if (
            (depth > cfg.scale_up_queue or util > cfg.scale_up_utilization
             or burn_up)
            and n_committed < cfg.max_replicas
            and free_capacity > 0
        ):
            self._last_action_at = now
            return "up"
        if (
            depth < cfg.scale_down_queue
            and util < cfg.scale_down_utilization
            and burn_rate < 1.0
            and n_committed > cfg.min_replicas
            and pending_up == 0
        ):
            self._last_action_at = now
            return "down"
        return None

    def record(
        self,
        now: int,
        action: str,
        rid: int,
        n_active: int,
        depth: float,
        util: float,
        reason: str,
        burn_rate: float = 0.0,
        incident: str | None = None,
    ) -> ScaleEvent:
        ev = ScaleEvent(now, action, rid, n_active, depth, util, reason,
                        burn_rate, incident)
        self.events.append(ev)
        return ev
