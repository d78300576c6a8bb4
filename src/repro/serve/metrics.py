"""Serving metrics: latency percentiles, TTFT, tokens/s, queue pressure.

Everything is recorded in cycles and converted to seconds with the system
clock only at summary time, so the numbers are exact functions of the
trace + policy (reproducible run-to-run).  The summary is a flat dict so
it exports directly to JSON and renders through
:func:`repro.eval.reporting.render_table`.

The percentile helper is shared with :mod:`repro.obs.metrics` (one
definition of "p95" across the stack).  Queue depth is summarized
time-weighted — each sampled depth counts for the cycles it actually
held, not once per event — and dispatched batch sizes are kept as
per-phase histograms, because the decode-fill distribution (not its mean)
is what the weight-pass amortization of Eqn 9 depends on.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.obs.metrics import percentiles, weighted_percentiles
from repro.perf.throughput import DEFAULT_CLOCK, ClockConfig
from repro.serve.request import Request

__all__ = ["MetricsCollector", "percentiles"]


@dataclass
class MetricsCollector:
    """Accumulates serving events; summarizes on demand."""

    arrivals: int = 0
    rejections: int = 0
    completed: int = 0
    tokens_out: int = 0
    deadline_misses: int = 0
    latencies: list[int] = field(default_factory=list)  # request completion, cycles
    ttft: list[int] = field(default_factory=list)  # llm first token, cycles
    queue_samples: list[tuple[int, int]] = field(default_factory=list)
    batch_sizes: dict[str, list[int]] = field(default_factory=dict)
    last_completion: int = 0

    # -- recording -----------------------------------------------------------
    def record_arrival(self, request: Request) -> None:
        self.arrivals += 1

    def record_rejection(self, request: Request) -> None:
        self.rejections += 1

    def record_dispatch(self, phase: str, size: int) -> None:
        self.batch_sizes.setdefault(phase, []).append(size)

    def record_first_token(self, request: Request, now: int) -> None:
        self.ttft.append(now - request.arrival)

    def record_completion(self, request: Request, now: int) -> None:
        self.completed += 1
        self.latencies.append(now - request.arrival)
        self.last_completion = max(self.last_completion, now)
        if request.deadline is not None and now > request.deadline:
            self.deadline_misses += 1

    # -- summary -------------------------------------------------------------
    def _queue_stats(self) -> tuple[float, int, float, float]:
        """Time-weighted (mean, max, p95, p99) queue depth over the horizon.

        Each sampled depth is weighted by the cycles until the next sample.
        Degenerate horizons (no samples, one sample, or a zero-cycle span)
        fall back to the last observed depth for the distribution stats.
        """
        if not self.queue_samples:
            return 0.0, 0, 0.0, 0.0
        ts = [t for t, _ in self.queue_samples]
        ds = [d for _, d in self.queue_samples]
        if len(ts) < 2 or ts[-1] == ts[0]:
            last = float(ds[-1])
            return last, max(ds), last, last
        depths = np.asarray(ds[:-1], dtype=np.float64)
        weights = np.diff(np.asarray(ts, dtype=np.float64))
        mean = float((depths * weights).sum() / weights.sum())
        p95, p99 = weighted_percentiles(depths, weights, (95, 99))
        return mean, max(ds), p95, p99

    def _batch_histograms(self) -> dict[str, dict[str, int]]:
        """Per-phase ``{batch_size: dispatch_count}`` (string keys for JSON)."""
        out: dict[str, dict[str, int]] = {}
        for phase in sorted(self.batch_sizes):
            counts = Counter(self.batch_sizes[phase])
            out[phase] = {str(size): counts[size] for size in sorted(counts)}
        return out

    def summary(
        self,
        *,
        clock: ClockConfig = DEFAULT_CLOCK,
        busy_cycles: int = 0,
    ) -> dict:
        """Flat metric dict; ``busy_cycles`` summed over all units."""
        f = clock.freq_hz
        horizon = self.last_completion
        p50, p95, p99 = percentiles(self.latencies)
        t50, t95, t99 = percentiles(self.ttft)
        mean_q, max_q, q95, q99 = self._queue_stats()
        hist = self._batch_histograms()
        # Per phase, (dispatches, items) from the histogram: integer sums,
        # so each mean below is the correctly rounded quotient.
        totals = {phase: (sum(h.values()),
                          sum(int(size) * n for size, n in h.items()))
                  for phase, h in hist.items()}
        dispatches = sum(n for n, _ in totals.values())
        items = sum(k for _, k in totals.values())
        horizon_s = horizon / f if horizon else 0.0
        out = {
            "arrivals": self.arrivals,
            "completed": self.completed,
            "rejected": self.rejections,
            "rejection_rate": self.rejections / self.arrivals if self.arrivals else 0.0,
            "deadline_miss_rate": (
                self.deadline_misses / self.completed if self.completed else 0.0
            ),
            "horizon_s": horizon_s,
            "requests_per_s": self.completed / horizon_s if horizon_s else 0.0,
            "tokens_per_s": self.tokens_out / horizon_s if horizon_s else 0.0,
            "tokens_out": self.tokens_out,
            "latency_p50_ms": p50 / f * 1e3,
            "latency_p95_ms": p95 / f * 1e3,
            "latency_p99_ms": p99 / f * 1e3,
            "ttft_p50_ms": t50 / f * 1e3,
            "ttft_p95_ms": t95 / f * 1e3,
            "ttft_p99_ms": t99 / f * 1e3,
            "utilization": (
                busy_cycles / (horizon * clock.n_units) if horizon else 0.0
            ),
            "mean_queue_depth": mean_q,
            "max_queue_depth": max_q,
            "queue_depth_p95": q95,
            "queue_depth_p99": q99,
            "mean_batch_size": items / dispatches if dispatches else 0.0,
            "dispatches": dispatches,
            "batch_size_hist": hist,
        }
        # Serving-level weight-pass amortization: one decode dispatch is one
        # weight pass through the array serving `size` tokens — the same
        # matmuls-vs-rows ratio `PolicyBackend.stats()` reports for the
        # functional batched step (TinyLM.forward_step_batch).
        passes, tokens = totals.get("decode", (0, 0))
        out["decode_weight_passes"] = passes
        out["decode_weight_pass_amortization"] = (
            tokens / passes if passes else 0.0
        )
        return out

    @staticmethod
    def to_json(summary: dict) -> str:
        return json.dumps(summary, indent=2, sort_keys=True)
