"""Serving SLOs: per-class latency objectives, error budgets, burn rates.

An SLO here is "fraction of requests that meet their deadline" per
request class (``vit`` / ``llm``), with the deadline itself carried on
each request (set by the traffic generator from the per-class deadline
knobs).  The tracker turns the dispatcher's completion/rejection stream
into:

* **error budgets** — a 99% objective leaves a 1% budget; the run-level
  ``budget_consumed`` is the miss fraction over that budget;
* **burn rates** — the classic multi-window form: the miss fraction
  inside a sliding window divided by the budget.  Burn 1.0 means missing
  exactly at the objective boundary; burn 10 means the budget burns ten
  times too fast.  Alerting (and the autoscaler's burn trigger) uses
  ``min(short_window_burn, long_window_burn)`` so a single transient
  spike (short high, long low) and a long-decayed incident (long high,
  short low) both stay quiet — only a *sustained, current* burn fires.

Everything is recorded in integer cycles of the simulated clock, so
tracker output is a pure function of (trace, config, seed).
:data:`NULL_SLO` is the shared disabled tracker (``enabled=False``), the
same disabled path as :data:`~repro.obs.tracer.NULL_TRACER`.

The second half of this module reconstructs per-request records from an
exported Chrome trace *alone* (:func:`requests_from_trace`) and builds
the ``repro slo-report`` artifact (:func:`slo_report_from_trace`): stage
attribution over :data:`~repro.obs.tracer.REQUEST_STAGES`, per-class
miss fractions recomputed from span endpoints and deadlines, and
coverage (how much of each sampled request's latency the named stages
explain).  The dispatcher's own ``deadline_miss_rate`` must be exactly
reproducible this way — that round trip is CI-enforced.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.obs.tracer import REQUEST_STAGES
from repro.perf.throughput import DEFAULT_CLOCK, ClockConfig

__all__ = [
    "SLOClass",
    "SLOConfig",
    "SLOTracker",
    "NULL_SLO",
    "requests_from_trace",
    "slo_report_from_trace",
]

_STAGE_SET = frozenset(REQUEST_STAGES)


@dataclass(frozen=True)
class SLOClass:
    """One request class's latency objective.

    ``objective`` is the target fraction of requests meeting their
    deadline (e.g. 0.99); its complement is the error budget.
    """

    name: str
    objective: float = 0.99

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ConfigurationError(
                f"SLO objective for {self.name!r} must be in (0, 1), "
                f"got {self.objective}"
            )

    @property
    def error_budget(self) -> float:
        return 1.0 - self.objective


@dataclass(frozen=True)
class SLOConfig:
    """Objectives plus the two burn-rate windows (in milliseconds).

    The short window catches a current spike, the long window proves it
    is sustained; both must burn for an alert/scale trigger.  Rejections
    (503 sheds) count against the budget by default — a shed user missed
    their deadline as far as the SLO is concerned.
    """

    classes: tuple[SLOClass, ...] = (SLOClass("vit"), SLOClass("llm"))
    short_window_ms: float = 250.0
    long_window_ms: float = 1000.0
    count_rejections: bool = True

    def __post_init__(self) -> None:
        if not self.classes:
            raise ConfigurationError("SLOConfig needs at least one class")
        names = [c.name for c in self.classes]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate SLO class names: {names}")
        if not 0.0 < self.short_window_ms < self.long_window_ms:
            raise ConfigurationError(
                "need 0 < short_window_ms < long_window_ms, got "
                f"{self.short_window_ms} / {self.long_window_ms}"
            )


class _WindowCounter:
    """Sliding-window good/bad event counter over integer cycles."""

    __slots__ = ("window", "events", "bad")

    def __init__(self, window_cycles: int) -> None:
        self.window = window_cycles
        self.events: deque[tuple[int, bool]] = deque()
        self.bad = 0

    def add(self, cycle: int, is_bad: bool) -> None:
        self.events.append((cycle, is_bad))
        if is_bad:
            self.bad += 1
        self.prune(cycle)

    def prune(self, now: int) -> None:
        cutoff = now - self.window
        ev = self.events
        while ev and ev[0][0] <= cutoff:
            _, was_bad = ev.popleft()
            if was_bad:
                self.bad -= 1

    def bad_fraction(self, now: int) -> float:
        self.prune(now)
        return self.bad / len(self.events) if self.events else 0.0


class _ClassState:
    __slots__ = ("klass", "completed", "misses", "rejected",
                 "short", "long", "peak_burn", "miss_latencies")

    def __init__(self, klass: SLOClass, short_cycles: int,
                 long_cycles: int) -> None:
        self.klass = klass
        self.completed = 0
        self.misses = 0
        self.rejected = 0
        self.short = _WindowCounter(short_cycles)
        self.long = _WindowCounter(long_cycles)
        self.peak_burn = 0.0

    def burn(self, now: int) -> tuple[float, float]:
        budget = self.klass.error_budget
        return (self.short.bad_fraction(now) / budget,
                self.long.bad_fraction(now) / budget)


class SLOTracker:
    """Accumulates per-class deadline outcomes into budgets and burns.

    With ``enabled=False`` the tracker holds no class state: recording
    returns at once, every burn reads 0.0 and the snapshot is empty.
    """

    def __init__(self, config: SLOConfig = SLOConfig(), *,
                 clock: ClockConfig = DEFAULT_CLOCK,
                 enabled: bool = True) -> None:
        self.enabled = enabled
        self.config = config
        self.clock = clock
        self._short_cycles = max(1, int(config.short_window_ms * 1e-3
                                        * clock.freq_hz))
        self._long_cycles = max(1, int(config.long_window_ms * 1e-3
                                       * clock.freq_hz))
        self._classes: dict[str, _ClassState] = {
            c.name: _ClassState(c, self._short_cycles, self._long_cycles)
            for c in config.classes
        } if enabled else {}

    def _state(self, kind: str) -> _ClassState:
        st = self._classes.get(kind)
        if st is None:
            # Unconfigured class: adopt the default objective rather than
            # silently dropping its outcomes from the budget.
            st = _ClassState(SLOClass(kind), self._short_cycles,
                             self._long_cycles)
            self._classes[kind] = st
        return st

    def _observe(self, st: _ClassState, now: int, is_bad: bool) -> None:
        st.short.add(now, is_bad)
        st.long.add(now, is_bad)
        s, lo = st.burn(now)
        st.peak_burn = max(st.peak_burn, min(s, lo))

    # -- recording -----------------------------------------------------------
    def record_completion(self, req, now: int) -> bool:
        """Record one completion; returns ``True`` when it missed."""
        if not self.enabled:
            return False
        st = self._state(req.kind)
        missed = req.deadline is not None and now > req.deadline
        st.completed += 1
        if missed:
            st.misses += 1
        self._observe(st, now, missed)
        return missed

    def record_rejection(self, req, now: int) -> None:
        if not self.enabled:
            return
        st = self._state(req.kind)
        st.rejected += 1
        if self.config.count_rejections:
            self._observe(st, now, True)

    def preload(self, kind: str, cycle: int, is_bad: bool) -> None:
        """Seed the burn windows with pre-run history (incident replay).

        Feeds only the sliding windows — not the lifetime
        completed/miss/rejection counters and not ``peak_burn`` — so a
        replayed window reports the same burn *values* the original run
        computed without inventing requests it never served.  Call in
        non-decreasing cycle order.
        """
        if not self.enabled:
            return
        st = self._state(kind)
        st.short.add(cycle, is_bad)
        st.long.add(cycle, is_bad)

    # -- queries -------------------------------------------------------------
    def class_burn(self, kind: str, now: int) -> float:
        """Alert-grade burn of one class: min(short, long) window burn."""
        st = self._classes.get(kind)
        if st is None:
            return 0.0
        s, lo = st.burn(now)
        return min(s, lo)

    def fleet_burn(self, now: int) -> float:
        """Worst sustained burn across classes (the autoscaler signal)."""
        burns = [self.class_burn(k, now) for k in self._classes]
        return max(burns) if burns else 0.0

    def burn_rates(self, now: int) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        for name, st in self._classes.items():
            s, lo = st.burn(now)
            out[name] = {"short": s, "long": lo, "sustained": min(s, lo)}
        return out

    def snapshot(self, now: int) -> dict:
        """JSON-ready run summary: budgets, misses, burns per class."""
        if not self.enabled:
            return {}
        classes: dict[str, dict] = {}
        for name, st in sorted(self._classes.items()):
            total_bad = st.misses + (st.rejected
                                     if self.config.count_rejections else 0)
            denom = st.completed + (st.rejected
                                    if self.config.count_rejections else 0)
            bad_fraction = total_bad / denom if denom else 0.0
            s, lo = st.burn(now)
            classes[name] = {
                "objective": st.klass.objective,
                "error_budget": st.klass.error_budget,
                "completed": st.completed,
                "deadline_misses": st.misses,
                "rejected": st.rejected,
                "miss_fraction": (st.misses / st.completed
                                  if st.completed else 0.0),
                "bad_fraction": bad_fraction,
                "budget_consumed": bad_fraction / st.klass.error_budget,
                "burn_short": s,
                "burn_long": lo,
                "burn_sustained": min(s, lo),
                "peak_burn_sustained": st.peak_burn,
            }
        return {
            "short_window_ms": self.config.short_window_ms,
            "long_window_ms": self.config.long_window_ms,
            "count_rejections": self.config.count_rejections,
            "fleet_burn": self.fleet_burn(now),
            "classes": classes,
        }


NULL_SLO = SLOTracker(enabled=False)


# -- trace reconstruction ----------------------------------------------------

def requests_from_trace(doc: dict) -> list[dict]:
    """Rebuild per-request records from a Chrome-trace document alone.

    Groups async events by ``(cat, id)``; the span whose name is not a
    known stage is the request parent, everything else is stage detail.
    Returns one record per request with recomputed latency, deadline
    outcome (from the parent's begin args), per-stage attributed cycles,
    and coverage (attributed / latency) for requests that carry stage
    detail (``detailed=True`` — the 1-in-N sampled ones).
    """
    groups: dict[tuple, dict[str, dict[str, list[int]]]] = {}
    for ev in doc.get("traceEvents", []):
        ph = ev.get("ph")
        if ph not in ("b", "e") or ev.get("cat") == "flow":
            continue
        gkey = (ev["cat"], ev["id"])
        per_name = groups.setdefault(gkey, {})
        rec = per_name.setdefault(ev["name"], {"b": [], "e": [], "args": []})
        rec[ph].append(ev["ts"])
        if ph == "b":
            rec["args"].append(ev.get("args", {}))
    out: list[dict] = []
    for (cat, rid), per_name in sorted(groups.items(),
                                       key=lambda kv: (str(kv[0][0]), kv[0][1])):
        parents = [n for n in per_name if n not in _STAGE_SET]
        if len(parents) != 1:
            raise ConfigurationError(
                f"request group ({cat}, {rid}) has {len(parents)} parent "
                f"spans; expected exactly 1"
            )
        p = per_name[parents[0]]
        if len(p["b"]) != 1 or len(p["e"]) != 1:
            raise ConfigurationError(
                f"request group ({cat}, {rid}) parent must be a single "
                f"begin/end pair"
            )
        start, end = p["b"][0], p["e"][0]
        args = p["args"][0] if p["args"] else {}
        stages: dict[str, int] = {}
        for name in REQUEST_STAGES:
            rec = per_name.get(name)
            if rec is None:
                continue
            if len(rec["b"]) != len(rec["e"]):
                raise ConfigurationError(
                    f"request group ({cat}, {rid}) stage {name!r} has "
                    f"unmatched begin/end counts"
                )
            stages[name] = sum(
                e - b for b, e in zip(sorted(rec["b"]), sorted(rec["e"]))
            )
        latency = end - start
        detailed = bool(stages)
        attributed = sum(stages.values())
        deadline = args.get("deadline")
        out.append({
            "rid": rid,
            "kind": cat,
            "start": start,
            "end": end,
            "latency": latency,
            "deadline": deadline,
            "missed": deadline is not None and end > deadline,
            "detailed": detailed,
            "stages": stages,
            "attributed": attributed,
            "coverage": (attributed / latency if latency else 1.0)
                        if detailed else None,
        })
    return out


def slo_report_from_trace(
    doc: dict,
    *,
    objectives: dict[str, float] | None = None,
) -> dict:
    """Build the ``repro slo-report`` artifact from a trace document.

    ``objectives`` maps class name to target fraction (default 0.99 per
    class).  All miss accounting is recomputed from span endpoints and
    the deadlines stamped in the parent spans' args — nothing is taken
    from the run summary, which is what makes the summary round trip a
    real check.
    """
    requests = requests_from_trace(doc)
    if not requests:
        raise ConfigurationError("trace contains no request spans")
    objectives = objectives or {}

    by_class: dict[str, list[dict]] = {}
    for r in requests:
        by_class.setdefault(r["kind"], []).append(r)
    classes: dict[str, dict] = {}
    for kind, rs in sorted(by_class.items()):
        misses = sum(1 for r in rs if r["missed"])
        objective = objectives.get(kind, 0.99)
        budget = 1.0 - objective
        miss_fraction = misses / len(rs)
        classes[kind] = {
            "requests": len(rs),
            "deadline_misses": misses,
            "miss_fraction": miss_fraction,
            "objective": objective,
            "error_budget": budget,
            "budget_consumed": miss_fraction / budget if budget else 0.0,
            "latency_cycles_mean": sum(r["latency"] for r in rs) / len(rs),
        }

    detailed = [r for r in requests if r["detailed"]]
    attribution: dict[str, dict[str, float]] = {}
    total_latency = sum(r["latency"] for r in detailed)
    for stage in REQUEST_STAGES:
        cycles = sum(r["stages"].get(stage, 0) for r in detailed)
        attribution[stage] = {
            "cycles": cycles,
            "fraction": cycles / total_latency if total_latency else 0.0,
        }
    coverages = [r["coverage"] for r in detailed]
    completed = len(requests)
    misses = sum(1 for r in requests if r["missed"])
    return {
        "requests": completed,
        "deadline_misses": misses,
        "deadline_miss_rate": misses / completed if completed else 0.0,
        "classes": classes,
        "sampled_requests": len(detailed),
        "attribution": attribution,
        "coverage_min": min(coverages) if coverages else 0.0,
        "coverage_mean": (sum(coverages) / len(coverages)
                          if coverages else 0.0),
    }
