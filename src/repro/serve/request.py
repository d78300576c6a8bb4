"""Typed inference requests and seeded workload generation.

Two request families arrive at the system, matching the paper's two
workload classes:

* ``"vit"`` — a ViT/DeiT classification over one image (encoder traffic,
  the regime of the systolic-array related work);
* ``"llm"`` — a decoder generation: one prefill over ``prompt_tokens``
  followed by ``gen_tokens`` KV-cache decode steps (the prefill/decode
  split the claims ledger pins as decode / prefill per-token latency).

A request's lifecycle is broken into :class:`PhaseItem` units — the things
the batcher coalesces and the dispatcher places on units.  Time is always
integer *cycles* of the system clock; the generator is driven by a seeded
``numpy`` generator, never the wall clock, so traces are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.perf.throughput import DEFAULT_CLOCK, ClockConfig

__all__ = ["KINDS", "PHASES", "Request", "PhaseItem", "TrafficConfig",
           "DiurnalConfig", "poisson_trace", "diurnal_trace",
           "trace_from_rows"]

KINDS = ("vit", "llm")
PHASES = ("vit", "prefill", "decode")


@dataclass(frozen=True)
class Request:
    """One inference request with arrival time and latency deadline.

    ``user`` identifies the logical end user (session key): a cluster
    router keeps a user's consecutive requests on the replica that already
    warmed caches for them (session affinity).  ``None`` means anonymous —
    every such request routes purely on load.
    """

    rid: int
    kind: str  # "vit" | "llm"
    arrival: int  # cycles
    deadline: int | None = None  # absolute cycles, or None for best-effort
    prompt_tokens: int = 0  # llm only
    gen_tokens: int = 0  # llm only
    user: int | None = None  # affinity key for cluster routing

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigurationError(f"request {self.rid} has unknown kind "
                                     f"{self.kind!r}")
        if self.arrival < 0:
            raise ConfigurationError(f"request {self.rid} arrives before t=0")
        if self.kind == "llm" and (self.prompt_tokens <= 0 or self.gen_tokens <= 0):
            raise ConfigurationError(
                f"llm request {self.rid} needs prompt_tokens and gen_tokens"
            )


@dataclass(slots=True)
class PhaseItem:
    """One unit-schedulable piece of a request's lifecycle.

    ``context`` drives the cost model (prompt length for prefill, current
    KV length for decode); ``unit`` is the session-affinity pin — decode
    steps must run on the unit holding the session's KV cache.
    """

    request: Request
    phase: str  # "vit" | "prefill" | "decode"
    ready: int  # cycles when this item became dispatchable
    step: int = 0  # decode step index
    context: int = 0
    unit: int | None = None

    def __post_init__(self) -> None:
        if self.phase not in PHASES:
            raise ConfigurationError(f"unknown phase {self.phase!r}")


@dataclass(frozen=True)
class TrafficConfig:
    """Shape of the synthetic open-loop workload."""

    rate_rps: float = 100.0  # mean Poisson arrival rate, requests/s
    vit_fraction: float = 0.3
    prompt_tokens: tuple[int, int] = (8, 64)  # inclusive uniform range
    gen_tokens: tuple[int, int] = (4, 32)
    vit_deadline_ms: float | None = 500.0
    llm_deadline_ms: float | None = 2000.0

    def __post_init__(self) -> None:
        if self.rate_rps <= 0:
            raise ConfigurationError("arrival rate must be positive")
        if not 0.0 <= self.vit_fraction <= 1.0:
            raise ConfigurationError("vit_fraction must be in [0, 1]")
        for name in ("prompt_tokens", "gen_tokens"):
            lo, hi = getattr(self, name)
            if not 1 <= lo <= hi:
                raise ConfigurationError(
                    f"{name} range ({lo}, {hi}) needs 1 <= lo <= hi")


def _deadline(arrival: int, ms: float | None, clock: ClockConfig) -> int | None:
    if ms is None:
        return None
    return arrival + int(ms * 1e-3 * clock.freq_hz)


def _check_counts(n_requests: int, n_users: int | None) -> None:
    if n_requests < 0:
        raise ConfigurationError("cannot generate a negative request count")
    if n_users is not None and n_users < 1:
        raise ConfigurationError("a user pool needs at least one user")


def _emit_request(
    rng: np.random.Generator,
    rid: int,
    t: int,
    cfg: TrafficConfig,
    clock: ClockConfig,
    n_users: int | None,
) -> Request:
    """Draw one request's kind/shape (shared by the trace generators).

    The rng consumption order (kind, then token bounds, then — only when a
    user pool exists — the user id) is part of the reproducibility
    contract: traces are pinned by seed across releases.
    """
    if rng.random() < cfg.vit_fraction:
        req = Request(rid, "vit", t, _deadline(t, cfg.vit_deadline_ms, clock))
    else:
        lo, hi = cfg.prompt_tokens
        prompt = int(rng.integers(lo, hi + 1))
        lo, hi = cfg.gen_tokens
        gen = int(rng.integers(lo, hi + 1))
        req = Request(rid, "llm", t, _deadline(t, cfg.llm_deadline_ms, clock),
                      prompt_tokens=prompt, gen_tokens=gen)
    if n_users is not None:
        req = Request(req.rid, req.kind, req.arrival, req.deadline,
                      req.prompt_tokens, req.gen_tokens,
                      user=int(rng.integers(0, n_users)))
    return req


def poisson_trace(
    n_requests: int,
    cfg: TrafficConfig = TrafficConfig(),
    *,
    seed: int = 0,
    clock: ClockConfig = DEFAULT_CLOCK,
    n_users: int | None = None,
) -> list[Request]:
    """Generate ``n_requests`` Poisson arrivals (seeded, cycle timestamps).

    ``n_users`` (optional) tags each request with a user id drawn uniformly
    from a pool of that size — the affinity key cluster routing uses.  The
    default ``None`` draws nothing extra, so historical seeds reproduce
    byte-identical traces.
    """
    _check_counts(n_requests, n_users)
    rng = np.random.default_rng(seed)
    mean_gap = clock.freq_hz / cfg.rate_rps  # cycles between arrivals
    out: list[Request] = []
    t = 0
    for rid in range(n_requests):
        t += max(1, int(round(rng.exponential(mean_gap))))
        out.append(_emit_request(rng, rid, t, cfg, clock, n_users))
    return out


@dataclass(frozen=True)
class DiurnalConfig:
    """Sinusoidal day/night modulation of the Poisson arrival rate.

    The instantaneous rate at cycle ``t`` is::

        rate(t) = rate_rps * (1 + amplitude * sin(2 pi t / period - phase))

    ``period_s`` is the "day" length in simulated seconds (scaled down
    from 86400 so a bench trace spans multiple peaks), ``amplitude`` in
    ``[0, 1)`` how deep the night trough is relative to the mean, and
    ``phase`` shifts where in the day the trace starts (the default
    starts at the mean on the way up, so a short trace sees a ramp to
    peak and a fall into the trough — one scale-up and one scale-down).
    """

    period_s: float = 2.0
    amplitude: float = 0.8
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.period_s <= 0:
            raise ConfigurationError("diurnal period must be positive")
        if not 0.0 <= self.amplitude < 1.0:
            raise ConfigurationError("diurnal amplitude must be in [0, 1)")

    def rate_factor(self, t_cycles: int, clock: ClockConfig) -> float:
        """Multiplier on the mean rate at cycle ``t`` (always positive)."""
        t_s = t_cycles / clock.freq_hz
        return 1.0 + self.amplitude * float(
            np.sin(2.0 * np.pi * t_s / self.period_s - self.phase)
        )


def diurnal_trace(
    n_requests: int,
    cfg: TrafficConfig = TrafficConfig(),
    diurnal: DiurnalConfig = DiurnalConfig(),
    *,
    seed: int = 0,
    clock: ClockConfig = DEFAULT_CLOCK,
    n_users: int | None = None,
) -> list[Request]:
    """Seeded inhomogeneous-Poisson arrivals with day/night modulation.

    Arrival gaps are exponential with the *instantaneous* mean at the
    current simulated time — the classic thinning-free approximation for
    slowly-varying rates (the diurnal period is many orders of magnitude
    above a single gap).  ``cfg.rate_rps`` is the mean rate; the peak runs
    at ``1 + amplitude`` times it and the trough at ``1 - amplitude``.
    """
    _check_counts(n_requests, n_users)
    rng = np.random.default_rng(seed)
    out: list[Request] = []
    t = 0
    for rid in range(n_requests):
        rate = cfg.rate_rps * diurnal.rate_factor(t, clock)
        mean_gap = clock.freq_hz / rate
        t += max(1, int(round(rng.exponential(mean_gap))))
        out.append(_emit_request(rng, rid, t, cfg, clock, n_users))
    return out


def trace_from_rows(rows: list[dict]) -> list[Request]:
    """Build a trace from explicit records (replay of a captured workload).

    Each row needs ``kind`` and ``arrival``; llm rows also
    ``prompt_tokens``/``gen_tokens``; ``deadline`` is optional.  Rows are
    sorted by arrival and re-numbered.
    """
    reqs = [
        Request(
            rid=i,
            kind=r["kind"],
            arrival=int(r["arrival"]),
            deadline=r.get("deadline"),
            prompt_tokens=int(r.get("prompt_tokens", 0)),
            gen_tokens=int(r.get("gen_tokens", 0)),
        )
        for i, r in enumerate(sorted(rows, key=lambda r: int(r["arrival"])))
    ]
    return reqs
