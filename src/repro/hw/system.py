"""Multi-unit system: 15 processing units on the U280 fed by HBM.

The paper deploys 15 independent units, each with two 256-bit AXI channels
into HBM, "running with independent instructions" (Section III-B).  This
module models that system level: a pool of units, a work queue of
independent jobs, greedy earliest-available dispatch, and aggregate
throughput/utilization reporting.  Jobs carry explicit cycle costs from
the cost models (:mod:`repro.cost.modes`, :mod:`repro.perf.latency`).

:class:`UnitPool` is the reusable online core: it tracks per-unit busy
intervals and supports assigning work at arbitrary points in simulated
time, which is what the request-serving layer (``repro.serve``) builds on.
:class:`MultiUnitSystem` keeps the original offline batch-scheduling API
on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.perf.throughput import DEFAULT_CLOCK, ClockConfig

__all__ = ["Job", "UnitTimeline", "UnitPool", "SystemReport", "MultiUnitSystem"]


@dataclass(frozen=True)
class Job:
    """One independent unit-schedulable job.

    ``cycles`` is the end-to-end unit-occupancy (compute + memory) of the
    job; ``ops`` its useful operation count (bfp8 ops or fp32 FLOPs,
    paper conventions); ``mode`` tags the workload class.
    """

    name: str
    mode: str  # "bfp8" | "fp32"
    cycles: int
    ops: float

    def __post_init__(self) -> None:
        if self.cycles <= 0:
            raise ConfigurationError(f"job {self.name!r} has no cycles")
        if self.mode not in ("bfp8", "fp32"):
            raise ConfigurationError(f"job {self.name!r} has unknown mode")


@dataclass
class UnitTimeline:
    """Dispatch record of one unit."""

    unit: int
    busy_cycles: int = 0
    jobs: list[str] = field(default_factory=list)
    finish: int = 0


class UnitPool:
    """Per-unit availability tracker, usable offline *and* online.

    A unit is free again at its ``finish`` time; :meth:`assign` places a
    job on a unit no earlier than both the unit's free time and the
    caller-supplied start (a request's arrival / readiness time).  Ties on
    the earliest-free query break deterministically on ``(finish, unit)``.
    """

    def __init__(self, n_units: int) -> None:
        if n_units <= 0:
            raise ConfigurationError("system needs at least one unit")
        self.timelines = [UnitTimeline(i) for i in range(n_units)]

    @property
    def n_units(self) -> int:
        return len(self.timelines)

    def earliest_free(self) -> tuple[int, int]:
        """``(free_time, unit)`` of the unit that frees first (ties: lowest unit)."""
        return min((t.finish, t.unit) for t in self.timelines)

    def assign(self, unit: int, start: int, cycles: int, name: str) -> int:
        """Occupy ``unit`` for ``cycles`` from ``max(start, finish)``; returns finish."""
        if cycles <= 0:
            raise ConfigurationError(f"job {name!r} has no cycles")
        t = self.timelines[unit]
        begin = max(start, t.finish)
        t.busy_cycles += cycles
        t.jobs.append(name)
        t.finish = begin + cycles
        return t.finish

    @property
    def makespan(self) -> int:
        return max((t.finish for t in self.timelines), default=0)


@dataclass
class SystemReport:
    """Result of scheduling a job set onto the system."""

    makespan_cycles: int
    timelines: list[UnitTimeline]
    total_ops: dict[str, float]
    clock: ClockConfig

    @property
    def n_units(self) -> int:
        return len(self.timelines)

    @property
    def makespan_seconds(self) -> float:
        return self.makespan_cycles / self.clock.freq_hz

    def utilization(self) -> float:
        """Mean busy fraction across units over the makespan."""
        if self.makespan_cycles == 0:
            return 0.0
        busy = sum(t.busy_cycles for t in self.timelines)
        return busy / (self.makespan_cycles * self.n_units)

    def throughput_ops(self, mode: str) -> float:
        """Aggregate achieved ops/s for one workload class."""
        if self.makespan_cycles == 0:
            return 0.0
        return self.total_ops.get(mode, 0.0) / self.makespan_seconds


@dataclass
class MultiUnitSystem:
    """Greedy earliest-available scheduler over identical units."""

    clock: ClockConfig = DEFAULT_CLOCK

    def schedule(self, jobs: list[Job]) -> SystemReport:
        """Dispatch independent jobs to the earliest-free unit.

        Longest-processing-time (LPT) list scheduling on identical
        machines: at most 4/3 - 1/(3m) of the optimal makespan (Graham
        1969) — good, but *not* optimal in general (e.g. jobs {3,3,2,2,2}
        on 2 machines: LPT gives 7, optimal is 6).  Dispatch ties break
        deterministically on ``(finish, unit_index)`` and equal-length
        jobs on their name, so reports are stable across heap orderings.
        """
        pool = UnitPool(self.clock.n_units)
        total_ops: dict[str, float] = {}
        for job in sorted(jobs, key=lambda j: (-j.cycles, j.name)):
            start, idx = pool.earliest_free()
            pool.assign(idx, start, job.cycles, job.name)
            total_ops[job.mode] = total_ops.get(job.mode, 0.0) + job.ops
        return SystemReport(pool.makespan, pool.timelines, total_ops, self.clock)
