"""The four benchmark workloads, each split into set-up, rounds and checks.

A workload is driven by :mod:`bench.worker` in three phases:

1. ``setup()`` builds models, prepares weights and warms the lazy paths
   (plan trace, cost-model memo).  It is timed, repeated, and reported
   as ``setup_s``.
2. Timed rounds: ``make_input(i)`` draws round ``i``'s inputs from the
   workload seed (untimed); ``run_round(inp)`` is a generator that does
   the work and yields after every operation (a decode step, a forward
   pass, a simulation), so the worker times each operation and samples
   the machine's speed between them.  Rounds repeat until the run's time
   budget is spent.  Every round of one workload has the same shape, so
   the throughput does not depend on how many rounds fit into the budget.
3. ``finish(rounds, speed)`` is the untimed check phase: correctness
   checks, one profiler pass for the simulated-cycle numbers, and the
   per-run report (host rates scaled by the worker's ``speed`` factor).
   Every simulated number comes from the first ``MIN_ROUNDS`` rounds
   only, which every run executes, so it never depends on host speed.

Model weights use fixed seeds; the workload seed only picks tokens,
images and traffic.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.cluster.simulate as cluster_simulate
from repro.cluster.autoscaler import AutoscalerConfig
from repro.cluster.simulate import ClusterConfig
from repro.cluster.topology import ClusterSpec
from repro.errors import ConfigurationError
from repro.formats.metrics import sqnr_db
from repro.models.backend import BFP8MixedBackend, FP32Backend
from repro.models.decoder import TinyLM
from repro.models.vit import VisionTransformer
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import Profiler, mode_matmul_unit_cycles
from repro.obs.recorder import FlightRecorder, RecorderConfig
from repro.obs.slo import SLOConfig, SLOTracker
from repro.obs.tracer import RequestPathConfig, Tracer, validate_chrome_trace
from repro.perf.latency import decoder_batch_unit_cycles, vit_batch_unit_cycles
from repro.perf.prepared import get_cache
from repro.runtime.plan import plan_stats
from repro.serve import dispatcher as serve_dispatcher
from repro.serve.dispatcher import ServeConfig
from repro.serve.request import (
    DiurnalConfig,
    TrafficConfig,
    diurnal_trace,
    poisson_trace,
)

#: Rounds every run executes, whatever its time budget.  Digests and
#: simulated metrics cover exactly these rounds.
MIN_ROUNDS = 3

#: bfp8-vs-fp32 logits SQNR floor for the encode outputs (measured about
#: 27 dB for prefill and 28 dB for the ViT on these fixed-seed models).
SQNR_FLOOR_DB = 20.0

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_SERVE = REPO_ROOT / "tests" / "serve" / "data" / "golden_serve_seed123_r400.json"

#: Profiler kinds and precisions reported as ``sim_cycles.<name>``.
SIM_KINDS = ("matmul", "softmax", "gelu", "layernorm", "rmsnorm", "swiglu")
SIM_PRECISIONS = ("bfp8", "fp32")


@dataclass
class Round:
    """What one timed round did: work items, operations, outputs."""

    items: int
    ops: int
    #: Outputs kept for the check phase (light ones past ``MIN_ROUNDS``).
    outputs: object = None
    #: Host seconds of each operation, filled in by the worker.
    op_seconds: list[float] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(self.op_seconds)


def drain(gen):
    """Run a round generator to completion; returns its result."""
    while True:
        try:
            next(gen)
        except StopIteration as stop:
            return stop.value


def _sub_seed(*parts: int) -> int:
    """A 32-bit seed derived from the workload seed and round indices."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else str(c).encode())
    return h.hexdigest()


def _clear_cost_memos() -> None:
    for fn in (vit_batch_unit_cycles, decoder_batch_unit_cycles,
               mode_matmul_unit_cycles):
        fn.cache_clear()


def _check(checks: list, name: str, ok: bool, detail: str = "") -> None:
    checks.append({"name": name, "ok": bool(ok), "detail": detail})


def _profile_counts(prof: Profiler) -> dict[str, float]:
    out = {f"sim_cycles.{k}": 0.0 for k in SIM_KINDS + SIM_PRECISIONS}
    for (_, precision, kind), e in prof.entries.items():
        if kind in SIM_KINDS:
            out[f"sim_cycles.{kind}"] += e.cycles
        if precision in SIM_PRECISIONS:
            out[f"sim_cycles.{precision}"] += e.cycles
    return out


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else 0.0


class Workload:
    """Interface the worker drives; see the module docstring."""

    name = ""
    item = ""

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = int(seed)
        self.scale = float(scale)

    def setup(self) -> None:
        raise NotImplementedError

    def make_input(self, i: int):
        raise NotImplementedError

    def run_round(self, inp):
        """Generator: yields after each operation, returns a :class:`Round`."""
        raise NotImplementedError

    def finish(self, rounds: list[Round], speed: float) -> dict:
        """Check phase: ``{"checks", "digest", "sim", "report", "counts"}``.

        ``speed`` scales host rates in the report to the reference
        machine speed, as the worker does for ``host_items_s``.
        """
        raise NotImplementedError

    def light(self, outputs):
        """Outputs kept for rounds past ``MIN_ROUNDS`` (checks only)."""
        return outputs

    def traced_state(self) -> dict[str, float]:
        """Program counters sampled before and after the traced phase."""
        return {}


# ---------------------------------------------------------------------------
# decode: compiled batched decode, the N_X = 1 end of Eqn 9
# ---------------------------------------------------------------------------


class Decode(Workload):
    """8 greedy TinyLM sessions in lockstep through compiled plan replay."""

    name = "decode"
    item = "generated token"
    BATCH = 8
    STEPS = 64
    CHECK_STEPS = 16

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        self.steps = max(2, round(self.STEPS * self.scale))
        self.check_steps = min(self.CHECK_STEPS, self.steps)

    def setup(self) -> None:
        get_cache().clear()  # every set-up quantizes the weights afresh
        self.model = TinyLM(vocab=32, dim=384, depth=2, n_heads=4,
                            seq_len=264, seed=7)
        self.backend = BFP8MixedBackend()
        self.model.prepare(self.backend)
        # First step traces the batch-8 decode plan.
        caches = [self.model.init_cache() for _ in range(self.BATCH)]
        self.model.forward_step_batch(
            [0] * self.BATCH, [0] * self.BATCH, caches, self.backend,
            compiled=True,
        )

    def make_input(self, i: int) -> list[int]:
        rng = np.random.default_rng([self.seed, i])
        return rng.integers(0, self.model.vocab, size=self.BATCH).tolist()

    def _decode(self, first: list[int], steps: int, *, compiled: bool):
        """Greedy lockstep decode; yields per step, returns the logits."""
        b = len(first)
        caches = [self.model.init_cache() for _ in range(b)]
        toks = list(first)
        logits_seq = []
        for pos in range(steps):
            logits = self.model.forward_step_batch(
                toks, [pos] * b, caches, self.backend, compiled=compiled
            )
            logits_seq.append(logits)
            toks = logits.argmax(-1).tolist()
            yield
        return logits_seq

    def run_round(self, first: list[int]):
        logits = yield from self._decode(first, self.steps, compiled=True)
        return Round(items=self.BATCH * self.steps, ops=self.steps,
                     outputs=(first, logits))

    def finish(self, rounds: list[Round], speed: float) -> dict:
        checks: list = []
        first, timed = rounds[0].outputs
        n = self.check_steps
        compiled = drain(self._decode(first, n, compiled=True))
        self.backend.profiler = prof = Profiler()
        try:
            eager = drain(self._decode(first, n, compiled=False))
        finally:
            self.backend.profiler = None
        _check(checks, "compiled_equals_eager",
               all(np.array_equal(a, b) for a, b in zip(compiled, eager)),
               f"{n} steps, batch {self.BATCH}")
        _check(checks, "timed_equals_replay",
               all(np.array_equal(a, b) for a, b in zip(timed, compiled)))
        _check(checks, "logits_finite", all(
            np.isfinite(lg).all() for r in rounds[:MIN_ROUNDS]
            for lg in r.outputs[1]))
        sim_per_tok = prof.total_cycles() / (n * self.BATCH)
        steps = [t / speed for r in rounds for t in r.op_seconds]
        return {
            "checks": checks,
            "digest": _sha(
                np.stack(r.outputs[1]).tobytes() for r in rounds[:MIN_ROUNDS]
            ),
            "sim": sim_per_tok,
            "report": {
                "decode_step_p50_ms": (1e3 * _pct(steps, 50), "ms"),
                "decode_step_p95_ms": (1e3 * _pct(steps, 95), "ms"),
                "decode_step_samples": (len(steps), "count"),
                "sim_decode_cycles_per_tok": (sim_per_tok, "cycles"),
            },
            "counts": _profile_counts(prof),
        }

    def traced_state(self) -> dict[str, float]:
        return {**self.backend.stats(), "plan_replays": sum(
            p["replays"] for p in plan_stats(self.model))}


# ---------------------------------------------------------------------------
# encode: eager ViT + prefill, the N_X-large end of Eqn 9
# ---------------------------------------------------------------------------


class Encode(Workload):
    """Eager DeiT-Tiny images and TinyLM prefill prompts under bfp8."""

    name = "encode"
    item = "encoded token (ViT patch/class token or prompt token)"
    PROMPTS = 4
    PROMPT_RANGE = (32, 128)

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        self.vit_depth = max(1, round(12 * self.scale))
        lo, hi = (max(4, round(v * min(self.scale, 1.0)))
                  for v in self.PROMPT_RANGE)
        self.prompt_range = (lo, max(hi, lo + self.PROMPTS))

    def setup(self) -> None:
        get_cache().clear()
        self.vit = VisionTransformer(dim=192, depth=self.vit_depth,
                                     n_heads=3, seed=0)
        self.lm = TinyLM(vocab=32, dim=384, depth=2, n_heads=4,
                         seq_len=264, seed=7)
        self.backend = BFP8MixedBackend()
        self.vit.prepare(self.backend)
        self.lm.prepare(self.backend)
        self.lm.forward(np.zeros((1, 8), dtype=np.int64), self.backend)

    def make_input(self, i: int):
        """One image, plus prompts stratified over the length range: one
        length drawn uniformly from each of ``PROMPTS`` equal strata, so
        every round holds the same mix of short and long prompts."""
        rng = np.random.default_rng([self.seed, i])
        image = rng.normal(size=(1, 3, 224, 224)).astype(np.float32)
        lo, hi = self.prompt_range
        edges = np.linspace(lo, hi + 1, self.PROMPTS + 1)
        prompts = []
        for k in range(self.PROMPTS):
            n = int(rng.integers(int(edges[k]), max(int(edges[k + 1]),
                                                    int(edges[k]) + 1)))
            prompts.append(rng.integers(0, self.lm.vocab, size=(1, n)))
        return image, prompts

    def run_round(self, inp):
        """The image first (operation 0), then one operation per prompt."""
        image, prompts = inp
        vit_out = self.vit.forward(image, self.backend)
        yield
        lm_out = []
        for p in prompts:
            lm_out.append(self.lm.forward(p, self.backend))
            yield
        tokens = self.vit.n_tokens + sum(p.shape[1] for p in prompts)
        return Round(items=tokens, ops=1 + len(prompts),
                     outputs=(inp, (vit_out, lm_out)))

    def finish(self, rounds: list[Round], speed: float) -> dict:
        checks: list = []
        inp, (vit_out, lm_out) = rounds[0].outputs
        self.backend.profiler = vit_prof = Profiler()
        try:
            vit_again = self.vit.forward(inp[0], self.backend)
            self.backend.profiler = lm_prof = Profiler()
            lm_again = [self.lm.forward(p, self.backend) for p in inp[1]]
        finally:
            self.backend.profiler = None
        _check(checks, "profiled_equals_timed",
               np.array_equal(vit_again, vit_out)
               and all(np.array_equal(a, b) for a, b in zip(lm_again, lm_out)))
        for r in rounds[:MIN_ROUNDS]:
            v, ls = r.outputs[1]
            _check(checks, "outputs_finite",
                   np.isfinite(v).all() and all(np.isfinite(x).all() for x in ls))
        fp32 = FP32Backend()
        vit_sqnr = sqnr_db(self.vit.forward(inp[0], fp32), vit_out)
        lm_sqnr = min(sqnr_db(self.lm.forward(p, fp32), o)
                      for p, o in zip(inp[1], lm_out))
        _check(checks, "vit_sqnr_floor", vit_sqnr >= SQNR_FLOOR_DB,
               f"{vit_sqnr:.2f} dB >= {SQNR_FLOOR_DB} dB")
        _check(checks, "prefill_sqnr_floor", lm_sqnr >= SQNR_FLOOR_DB,
               f"{lm_sqnr:.2f} dB >= {SQNR_FLOOR_DB} dB")
        counts = _profile_counts(vit_prof)
        for k, v in _profile_counts(lm_prof).items():
            counts[k] += v
        vit_cycles = vit_prof.total_cycles()
        images = len(rounds)
        prompt_tokens = sum(r.items - self.vit.n_tokens for r in rounds)
        return {
            "checks": checks,
            "digest": _sha(
                b"".join([r.outputs[1][0].tobytes()]
                         + [o.tobytes() for o in r.outputs[1][1]])
                for r in rounds[:MIN_ROUNDS]
            ),
            "sim": (vit_cycles + lm_prof.total_cycles()) / rounds[0].items,
            "report": {
                "vit_img_s": (
                    speed * images / sum(r.op_seconds[0] for r in rounds),
                    "images/s"),
                "prefill_tok_s": (
                    speed * prompt_tokens
                    / sum(sum(r.op_seconds[1:]) for r in rounds),
                    "tokens/s"),
                "sim_vit_cycles_per_img": (vit_cycles, "cycles"),
                "vit_sqnr_db": (vit_sqnr, "dB"),
                "prefill_sqnr_db": (lm_sqnr, "dB"),
            },
            "counts": counts,
        }

    def light(self, outputs):
        return None, outputs[1]

    def traced_state(self) -> dict[str, float]:
        return dict(self.backend.stats())


# ---------------------------------------------------------------------------
# serve: single-pool open-loop serving, every observability object off
# ---------------------------------------------------------------------------

#: Latency limits a sweep rate must meet to count toward the max rate.
TTFT_LIMIT_MS = 250.0
LATENCY_LIMIT_MS = 2000.0


def _busy_cycles(pool) -> int:
    return sum(t.busy_cycles for t in pool.timelines)


class Serve(Workload):
    """Poisson traffic swept over fixed rates through ``simulate``."""

    name = "serve"
    item = "simulated request"
    RATES = (100, 200, 300, 350, 400, 500)
    REPORT_RATE = 300
    REQUESTS = 2000

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        self.requests = max(20, round(self.REQUESTS * self.scale))

    def setup(self) -> None:
        _clear_cost_memos()
        self.config = ServeConfig()
        self.registry = MetricsRegistry(enabled=False)
        # Fill the cost-model memo with the common batch shapes.
        warm = poisson_trace(400, TrafficConfig(rate_rps=500, vit_fraction=0.1),
                             seed=0, clock=self.config.clock)
        serve_dispatcher.simulate(warm, self.config, registry=self.registry)

    def make_input(self, i: int):
        return [
            poisson_trace(
                self.requests, TrafficConfig(rate_rps=r, vit_fraction=0.1),
                seed=_sub_seed(self.seed, i, k), clock=self.config.clock,
            )
            for k, r in enumerate(self.RATES)
        ]

    def run_round(self, traces):
        summaries = []
        for t in traces:
            report = serve_dispatcher.simulate(t, self.config,
                                               registry=self.registry)
            summaries.append((report.summary, _busy_cycles(report.pool)))
            yield
        return Round(items=sum(len(t) for t in traces), ops=len(traces),
                     outputs=summaries)

    def finish(self, rounds: list[Round], speed: float) -> dict:
        checks: list = []
        for r in rounds:
            _check(checks, "conservation", all(
                s["completed"] + s["rejected"] == s["arrivals"]
                for s, _ in r.outputs))
        golden = serve_dispatcher.simulate(
            poisson_trace(400, TrafficConfig(), seed=123), ServeConfig()
        ).to_json()
        _check(checks, "golden_seed123_r400",
               golden == GOLDEN_SERVE.read_text().rstrip("\n"))
        first = rounds[:MIN_ROUNDS]
        busy = sum(b for r in first for _, b in r.outputs)
        completed = sum(s["completed"] for r in first for s, _ in r.outputs)
        sweep = dict(zip(self.RATES, (s for s, _ in rounds[0].outputs)))
        max_rate = max(
            (rate for rate, s in sweep.items()
             if s["rejected"] == 0 and s["ttft_p99_ms"] <= TTFT_LIMIT_MS
             and s["latency_p99_ms"] <= LATENCY_LIMIT_MS),
            default=0,
        )
        at = sweep[self.REPORT_RATE]
        return {
            "checks": checks,
            "digest": _sha(json.dumps(s, sort_keys=True)
                           for r in first for s, _ in r.outputs),
            "sim": busy / completed,
            "report": {
                "sim_ttft_p99_ms": (at["ttft_p99_ms"], "ms"),
                "sim_latency_p99_ms": (at["latency_p99_ms"], "ms"),
                "sim_max_rate_rps": (max_rate, "requests/s"),
            },
            "counts": {
                "serve.dispatches": at["dispatches"],
                "serve.mean_batch_size": at["mean_batch_size"],
                "serve.utilization": at["utilization"],
                "serve.mean_queue_depth": at["mean_queue_depth"],
            },
        }


# ---------------------------------------------------------------------------
# fleet-observed: autoscaled cluster with the full observability stack
# ---------------------------------------------------------------------------


class Fleet(Workload):
    """Diurnal traffic on an autoscaled 4-board fleet, everything traced."""

    name = "fleet-observed"
    item = "simulated request"
    REQUESTS = 1000

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        self.requests = max(20, round(self.REQUESTS * self.scale))

    def setup(self) -> None:
        _clear_cost_memos()
        self.serve = ServeConfig()
        self.config = ClusterConfig(
            serve=self.serve,
            spec=ClusterSpec(boards=4),
            autoscaler=AutoscalerConfig(min_replicas=1, max_replicas=4),
            initial_replicas=1,
        )
        drain(self._simulate(self._trace(0, 200)))

    def _trace(self, seed: int, n: int):
        # A 0.5 s "day" puts several diurnal waves into every round.
        return diurnal_trace(
            n, TrafficConfig(rate_rps=800.0, vit_fraction=0.1),
            DiurnalConfig(period_s=0.5, amplitude=0.8),
            seed=seed, clock=self.serve.clock, n_users=256,
        )

    def _simulate(self, trace):
        """Generator: the simulation, then the trace export, as two
        operations; returns ``(report, trace_json, events, incidents)``."""
        tracer = Tracer()
        recorder = FlightRecorder(RecorderConfig())
        report = cluster_simulate.simulate_cluster(
            trace, self.config, tracer=tracer, registry=MetricsRegistry(),
            slo=SLOTracker(SLOConfig()),
            path=RequestPathConfig(detail_every=1), recorder=recorder,
        )
        yield
        trace_json = tracer.to_json()
        yield
        events = (len(tracer.spans) + len(tracer.async_spans)
                  + len(tracer.counters) + len(tracer.flows))
        return report, trace_json, events, len(recorder.incidents)

    def make_input(self, i: int):
        return self._trace(_sub_seed(self.seed, i), self.requests)

    def run_round(self, trace):
        report, trace_json, events, incidents = yield from self._simulate(trace)
        return Round(items=len(trace), ops=2,
                     outputs=(report.summary, report.per_replica,
                              trace_json, events, incidents))

    def light(self, outputs):
        return outputs[:2] + (None,) + outputs[3:]

    def _board_seconds(self, summary: dict, per_replica: list[dict]) -> float:
        """Board-seconds held, computed as in ``examples/cluster_traffic.py``."""
        freq = self.serve.clock.freq_hz
        units = self.config.spec.units_per_board
        return sum(
            r["lanes"] / units
            * ((r["retired_at"] or summary["horizon_s"] * freq) - r["spawned_at"])
            for r in per_replica
        ) / freq

    def finish(self, rounds: list[Round], speed: float) -> dict:
        checks: list = []
        for r in rounds:
            s = r.outputs[0]
            _check(checks, "conservation",
                   s["completed"] + s["rejected"] == s["arrivals"] == r.items)
        try:
            validate_chrome_trace(json.loads(rounds[0].outputs[2]))
            _check(checks, "chrome_trace_valid", True)
        except ConfigurationError as exc:
            _check(checks, "chrome_trace_valid", False, str(exc))
        first = rounds[:MIN_ROUNDS]
        busy = sum(row["busy_cycles"] for r in first for row in r.outputs[1])
        completed = sum(r.outputs[0]["completed"] for r in first)
        s, per_replica = rounds[0].outputs[:2]
        return {
            "checks": checks,
            "digest": _sha(
                json.dumps(r.outputs[:2], sort_keys=True) + r.outputs[2]
                for r in first
            ),
            "sim": busy / completed,
            "report": {
                "sim_ttft_p99_ms": (s["ttft_p99_ms"], "ms"),
                "sim_latency_p99_ms": (s["latency_p99_ms"], "ms"),
                "sim_board_s": (self._board_seconds(s, per_replica), "s"),
            },
            "counts": {
                "serve.dispatches": s["dispatches"],
                "serve.mean_batch_size": s["mean_batch_size"],
                "serve.utilization": s["utilization"],
                "serve.mean_queue_depth": s["mean_queue_depth"],
                "cluster.affinity_hit_rate": s["affinity_hit_rate"],
                "cluster.interconnect_share": s["interconnect_share"],
                "cluster.scale_events": s["scale_ups"] + s["scale_downs"],
                "obs.spans": rounds[0].outputs[3],
                "obs.incidents": rounds[0].outputs[4],
            },
        }


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Decode, Encode, Serve, Fleet)
}
