"""Flight recorder: bounded ring buffers + triggered incident capture.

The recorder rides along a serving simulation as the tracer and the SLO
tracker do: the dispatcher calls one guarded hook per event kind
(``if recorder.enabled: ...``), each hook is a deque append plus a few
EWMA float ops, and the disabled :data:`NULL_RECORDER`
(``enabled=False``) costs one attribute read.  What it buys:

* **ring buffers of recent activity** — completed request summaries,
  queue-depth samples, batcher/plan/autoscaler decisions, numerics taps
  — bounded by :class:`RecorderConfig` capacities, so steady-state memory
  and per-event cost never grow with run length;
* **online triggers** — an :class:`~repro.obs.anomaly.AnomalyEngine`
  over latency / queue depth / batch occupancy / SQNR, the SLO
  sustained-burn threshold, and external gates (numerics drift);
* **incident bundles** — when a trigger fires, the recorder assembles a
  self-contained JSON bundle (ring contents, trigger cause chain,
  config/policy fingerprints, seeds, the exact sub-trace of the current
  capture epoch, detector state at epoch start, SLO window preload, a
  trace slice) and writes it to ``<out_dir>/<run>/<id>.json``.

**Deterministic replay** rests on *capture epochs*: an idle point —
empty batcher, every unit idle — implies no in-flight batches and no
open KV sessions, so the dispatcher at that instant is
dynamics-equivalent to a freshly constructed one.  The recorder marks an
epoch at every idle point and keeps the epoch's arrival rows verbatim
(rid/user/deadline preserved).  Re-simulating *only those arrivals* at
their absolute cycles, with the anomaly engine seeded from the
epoch-start snapshot and the SLO burn windows preloaded from the
completion ring, reproduces the epoch — and therefore the trigger —
cycle- and bit-exactly.  ``repro incident-replay``
(:mod:`repro.obs.incident_cli`) does exactly that from the bundle alone.

Epochs whose arrival capture overflows ``max_epoch_requests``, and
cluster captures (router RNG and autoscaler state span epochs), are
still *captured* but marked ``replay.supported = false`` with a reason.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.obs.anomaly import AnomalyConfig, AnomalyEngine, Trigger
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = [
    "RecorderConfig",
    "FlightRecorder",
    "NULL_RECORDER",
    "BUNDLE_SCHEMA_VERSION",
    "canonical_sha256",
]

BUNDLE_SCHEMA_VERSION = 1

#: Cap on spans serialized into a bundle's trace slice.
_TRACE_SLICE_CAP = 2000
#: Cap on the trigger cause chain kept per incident.
_CAUSE_CHAIN_CAP = 32


def canonical_sha256(obj) -> str:
    """SHA-256 of an object's canonical (sorted, compact) JSON form."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _request_row(ev: tuple) -> list:
    """Expand a request-ring entry (which holds a Request reference) to
    its serialized bundle row — done once at bundle close, never on the
    hot path."""
    if ev[0] == "done":
        _, req, cycle, missed = ev
        return ["done", req.rid, req.kind, req.arrival, cycle, int(missed)]
    _, req, cycle = ev
    return ["reject", req.rid, req.kind, cycle]


def _decision_row(ev: tuple) -> list:
    """Expand a decision-ring entry (dispatch rows hold a Batch
    reference) to its serialized bundle row."""
    if ev[0] == "dispatch":
        _, cycle, batch, unit = ev
        return ["dispatch", cycle, batch.phase, batch.size, unit]
    return list(ev)


@dataclass(frozen=True)
class RecorderConfig:
    """Ring capacities, trigger policy, and capture bounds.

    ``cooldown_cycles`` suppresses new incidents for a window after one
    closes (default 100 ms at 300 MHz) so a rough patch produces one
    bundle with a cause chain, not a bundle per completion.
    ``max_epoch_requests`` bounds the verbatim arrival capture per epoch;
    overflowing epochs stay captured but lose exact replay.
    """

    ring_requests: int = 512
    ring_metrics: int = 512
    ring_decisions: int = 256
    ring_numerics: int = 128
    max_epoch_requests: int = 4096
    cooldown_cycles: int = 30_000_000
    anomaly: AnomalyConfig = AnomalyConfig()

    def __post_init__(self) -> None:
        for name in ("ring_requests", "ring_metrics", "ring_decisions",
                     "ring_numerics", "max_epoch_requests"):
            if getattr(self, name) < 1:
                raise ConfigurationError(
                    f"recorder {name} must be >= 1, got {getattr(self, name)}")
        if self.cooldown_cycles < 0:
            raise ConfigurationError(
                f"recorder cooldown must be >= 0, got {self.cooldown_cycles} "
                "cycles")

    def as_dict(self) -> dict:
        return {
            "ring_requests": self.ring_requests,
            "ring_metrics": self.ring_metrics,
            "ring_decisions": self.ring_decisions,
            "ring_numerics": self.ring_numerics,
            "max_epoch_requests": self.max_epoch_requests,
            "cooldown_cycles": self.cooldown_cycles,
            "anomaly": self.anomaly.as_dict(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> RecorderConfig:
        kwargs = {k: doc[k] for k in (
            "ring_requests", "ring_metrics", "ring_decisions",
            "ring_numerics", "max_epoch_requests", "cooldown_cycles",
        ) if k in doc}
        if "anomaly" in doc:
            kwargs["anomaly"] = AnomalyConfig.from_dict(doc["anomaly"])
        return cls(**kwargs)


class FlightRecorder:
    """Always-on bounded recorder with triggered incident capture.

    ``capture`` is the context the driver wants embedded in every bundle
    (serve config snapshot, seeds, SLO config, injected-fault params) —
    everything a replay needs beyond what the recorder observes itself.
    ``out_dir`` of ``None`` keeps bundles in :attr:`incidents` only
    (tests); otherwise each bundle lands at ``out_dir/run/<id>.json``.
    ``replayable=False`` (cluster captures) marks every bundle
    replay-unsupported up front.  With ``enabled=False`` every hook
    returns at once and :meth:`finalize` reports nothing.
    """

    def __init__(
        self,
        config: RecorderConfig = RecorderConfig(),
        *,
        run: str = "run",
        out_dir=None,
        capture: dict | None = None,
        tracer: Tracer = NULL_TRACER,
        replayable: bool = True,
        replayable_reason: str | None = None,
        enabled: bool = True,
    ) -> None:
        self.enabled = enabled
        self.config = config
        self.run = run
        self.out_dir = out_dir
        self.capture = dict(capture or {})
        self.tracer = tracer
        self.replayable = replayable
        self.replayable_reason = replayable_reason
        self.engine = AnomalyEngine(config.anomaly)
        # Direct detector refs (None = stream disabled): the hot hooks
        # skip the engine's dict lookup and only build a Trigger on the
        # rare firing path (see _observe).
        det = self.engine.detectors
        self._lat_det = det.get("latency_cycles")
        self._queue_det = det.get("queue_depth")
        self._occ_det = det.get("batch_occupancy")
        self._sqnr_det = det.get("sqnr_db")
        # Rings of recent activity (append-only on the hot path).
        self.ring_requests: deque = deque(maxlen=config.ring_requests)
        self.ring_metrics: deque = deque(maxlen=config.ring_metrics)
        self.ring_decisions: deque = deque(maxlen=config.ring_decisions)
        self.ring_numerics: deque = deque(maxlen=config.ring_numerics)
        # Capture epoch (reset at every idle point).  Arrivals hold
        # Request references; completions hold (Request, cycle, missed).
        self.epoch_start = 0
        self._epoch_arrivals: list = []
        self._epoch_overflow = False
        self._epoch_completions: list[tuple] = []
        self._epoch_misses = 0
        self._epoch_rejections = 0
        self._epoch_snapshot = self.engine.state()
        self._snap_obs = -1  # forces re-snapshot check via n_obs
        # Incident lifecycle.
        self.incidents: list[dict] = []
        self.incident_paths: list = []
        self._active: dict | None = None
        self._cooldown_until = -1
        self.suppressed = 0
        self._seq = 0
        self._last_depth = -1
        self._snap_depth = -1
        self._policy = None  # set by bind_policy() when wired to a dispatcher
        self._slo = None  # set by bind_slo() when the run tracks SLOs

    # -- hot-path hooks (caller guards on ``recorder.enabled``) ---------------
    # Hot appends store *references* to the (frozen, immutable) Request
    # objects; the serializable rows are expanded only at bundle close —
    # tuple construction per event is the dominant steady-state cost.
    def record_arrival(self, req, now: int) -> None:
        if not self.enabled:
            return
        ep = self._epoch_arrivals
        if len(ep) >= self.config.max_epoch_requests:
            self._epoch_overflow = True
            return
        ep.append(req)

    def record_rejection(self, req, now: int) -> None:
        if not self.enabled:
            return
        self.ring_requests.append(("reject", req, now))
        self._epoch_rejections += 1
        self._observe_burn(now)

    def record_completion(self, req, now: int, missed: bool) -> None:
        if not self.enabled:
            return
        self.ring_requests.append(("done", req, now, missed))
        self._epoch_completions.append((req, now, missed))
        if missed:
            self._epoch_misses += 1
        if self._lat_det is not None:
            self._observe(self._lat_det, "latency_cycles", now,
                          float(now - req.arrival))
        self._observe_burn(now)

    def observe_queue(self, now: int, depth: int) -> None:
        # Sampled once per admitted arrival (see Dispatcher.admit) —
        # arrivals are deterministic, so a replay sees the identical
        # depth sequence; decode re-queue oscillation between arrivals
        # never reaches the detector.  Consecutive equal samples are
        # still deduplicated so the ring holds transitions only.
        if not self.enabled or depth == self._last_depth:
            return
        self.ring_metrics.append((now, "queue_depth", depth))
        self._last_depth = depth
        if self._queue_det is not None:
            self._observe(self._queue_det, "queue_depth", now, float(depth))

    def bind_policy(self, policy) -> None:
        """Give record_dispatch the batch policy so it can compute batch
        fill lazily — only when the occupancy detector is enabled."""
        self._policy = policy

    def bind_slo(self, slo) -> None:
        """Observe ``slo``'s fleet burn after every completion and
        rejection this recorder records (the SLO tracker records the
        same event first)."""
        self._slo = slo if slo.enabled else None

    def record_dispatch(self, now: int, batch, unit: int,
                        plan_new: bool = False) -> None:
        if not self.enabled:
            return
        self.ring_decisions.append(("dispatch", now, batch, unit))
        if plan_new:
            self.ring_decisions.append(
                ("plan_trace", now, f"{batch.phase}x{batch.size}"))
        if self._occ_det is not None:
            if self._policy is None:
                raise ConfigurationError(
                    "batch-occupancy detector requires bind_policy() "
                    "before record_dispatch()")
            self._observe(self._occ_det, "batch_occupancy", now,
                          batch.size / self._policy.batch_limit(batch.phase))

    def record_numerics(self, now: int, layer: str, precision: str,
                        role: str, sqnr_db: float) -> None:
        if not self.enabled:
            return
        self.ring_numerics.append((now, layer, precision, role, sqnr_db))
        if self._sqnr_det is not None:
            self._observe(self._sqnr_det, "sqnr_db", now, sqnr_db)

    def record_scale(self, now: int, event: dict) -> None:
        if not self.enabled:
            return
        self.ring_decisions.append(("scale", now, dict(event)))

    def external_trigger(self, now: int, source: str, signal: str,
                         value: float, threshold: float = 0.0,
                         details: dict | None = None) -> None:
        if not self.enabled:
            return
        self._on_trigger(self.engine.external(
            now, source, signal, value, threshold, details))

    def end_event(self, now: int, idle: bool) -> None:
        """Driver hook after each processed event; ``idle`` marks an
        idle point (empty batcher, all units idle) — the epoch boundary
        replay relies on."""
        if not (self.enabled and idle):
            return
        if self._active is not None:
            self._close(now)
        self._mark_epoch(now)

    def _observe(self, det, signal: str, now: int, value: float) -> None:
        """Score one sample on a detector held by direct reference.

        The arithmetic and field order match AnomalyEngine.observe
        exactly — replays compare bit-for-bit."""
        self.engine.n_obs += 1
        z = det.observe(value)
        if z is not None:
            self._on_trigger(self.engine.make_trigger(det, signal, now,
                                                      value, z))

    def _observe_burn(self, now: int) -> None:
        if self._slo is not None:
            self._on_trigger(self.engine.observe_burn(
                now, self._slo.fleet_burn(now)))

    # -- incident lifecycle ---------------------------------------------------
    def active_incident_id(self) -> str | None:
        return self._active["id"] if self._active is not None else None

    def _on_trigger(self, trig: Trigger | None) -> None:
        if trig is None:
            return
        if self._active is not None:
            chain = self._active["cause_chain"]
            if len(chain) < _CAUSE_CHAIN_CAP:
                chain.append(trig.as_dict())
            return
        if trig.cycle < self._cooldown_until:
            self.suppressed += 1
            return
        self._active = {
            "id": f"inc-{self._seq:03d}",
            "opened_cycle": trig.cycle,
            "trigger": trig.as_dict(),
            "cause_chain": [],
        }
        self._seq += 1

    def _mark_epoch(self, now: int) -> None:
        self.epoch_start = now
        if self._epoch_arrivals:
            self._epoch_arrivals = []
            self._epoch_completions = []
        self._epoch_overflow = False
        self._epoch_misses = 0
        self._epoch_rejections = 0
        self._snap_depth = self._last_depth
        if self._snap_obs != self.engine.n_obs:
            self._epoch_snapshot = self.engine.state()
            self._snap_obs = self.engine.n_obs

    def _slo_preload(self) -> tuple[list, bool]:
        """Pre-epoch completion/rejection events still inside the long
        burn window, rebuilt from the request ring — plus whether the
        ring provably covers the whole window."""
        slo_cfg = self.capture.get("slo")
        if not slo_cfg:
            return [], True
        long_cycles = int(slo_cfg.get("long_window_cycles", 0))
        if long_cycles <= 0:
            return [], True
        lo = self.epoch_start - long_cycles
        out = []
        for ev in self.ring_requests:
            # ("done", req, cycle, missed) | ("reject", req, cycle)
            cycle = ev[2]
            if lo < cycle <= self.epoch_start:
                bad = bool(ev[3]) if ev[0] == "done" else True
                out.append([ev[1].kind, cycle, bad])
        # The preload is complete when the ring never wrapped, or its
        # oldest entry predates the window (so nothing inside was lost).
        if len(self.ring_requests) < (self.ring_requests.maxlen or 0):
            complete = True
        else:
            complete = self.ring_requests[0][2] <= lo
        return out, complete

    def _trace_slice(self, lo: int, hi: int) -> dict | None:
        if not self.tracer.enabled:
            return None
        spans = [s._asdict() for s in self.tracer.spans
                 if s.end >= lo and s.start <= hi][:_TRACE_SLICE_CAP]
        async_spans = [s._asdict() for s in self.tracer.async_spans
                       if s.end >= lo and s.start <= hi][:_TRACE_SLICE_CAP]
        return {"spans": spans, "async_spans": async_spans,
                "window": [lo, hi]}

    def _close(self, now: int) -> None:
        inc = self._active
        assert inc is not None
        self._active = None
        # Incidents only close at idle points, so the pre-close cooldown
        # is also the value that was in force at epoch start — a replay
        # must seed it to suppress the same early triggers.
        cooldown_at_epoch = self._cooldown_until
        self._cooldown_until = now + self.config.cooldown_cycles
        preload, preload_complete = self._slo_preload()
        supported, reason = True, None
        if not self.replayable:
            supported, reason = False, (self.replayable_reason
                                        or "capture is not replayable")
        elif self._epoch_overflow:
            supported, reason = False, (
                "epoch arrival capture overflowed "
                f"max_epoch_requests={self.config.max_epoch_requests}")
        elif self.capture.get("slo") and not preload_complete:
            # Burn values feed the threshold detector on every
            # completion; without the full window history they diverge.
            supported, reason = False, (
                "slo burn window history truncated by request-ring capacity")
        completions = [(req.rid, cycle, int(missed))
                       for req, cycle, missed in self._epoch_completions]
        expected = {
            "completed": len(completions),
            "deadline_misses": self._epoch_misses,
            "rejections": self._epoch_rejections,
            "completions_sha256": canonical_sha256(completions),
            "trigger": inc["trigger"],
        }
        serve_config = self.capture.get("serve_config")
        bundle = {
            "schema_version": BUNDLE_SCHEMA_VERSION,
            "id": inc["id"],
            "run": self.run,
            "incident": {
                "id": inc["id"],
                "run": self.run,
                "opened_cycle": inc["opened_cycle"],
                "closed_cycle": now,
                "suppressed_before": self.suppressed,
            },
            "trigger": inc["trigger"],
            "cause_chain": inc["cause_chain"],
            "window": {"epoch_start": self.epoch_start, "closed_cycle": now},
            "detector_state": self._epoch_snapshot,
            "recorder_state": {
                "last_depth": self._snap_depth,
                "cooldown_until": cooldown_at_epoch,
                "suppressed": self.suppressed,
            },
            "rings": {
                "requests": [_request_row(ev) for ev in self.ring_requests],
                "metrics": [list(ev) for ev in self.ring_metrics],
                "decisions": [_decision_row(ev) for ev in self.ring_decisions],
                "numerics": [list(ev) for ev in self.ring_numerics],
            },
            "subtrace": {
                "requests": [[r.rid, r.kind, r.arrival, r.deadline,
                              r.prompt_tokens, r.gen_tokens, r.user]
                             for r in self._epoch_arrivals],
                "truncated": self._epoch_overflow,
            },
            "slo_preload": preload,
            "expected": expected,
            "capture": {**self.capture,
                        "recorder": self.config.as_dict()},
            "fingerprints": {
                "capture_sha256": canonical_sha256(self.capture),
                "config_sha256": canonical_sha256(serve_config),
                "policy_sha256": canonical_sha256(
                    (serve_config or {}).get("precision")),
                "anomaly_sha256": canonical_sha256(
                    self.config.anomaly.as_dict()),
            },
            "trace_slice": self._trace_slice(self.epoch_start, now),
            "replay": {"supported": supported, "reason": reason},
        }
        self.incidents.append(bundle)
        if self.out_dir is not None:
            from pathlib import Path

            path = Path(self.out_dir) / self.run / f"{inc['id']}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(bundle, indent=2, sort_keys=True)
                            + "\n")
            self.incident_paths.append(path)

    def finalize(self, now: int) -> dict:
        """Close any open incident and return the run-level summary."""
        if not self.enabled:
            return {}
        if self._active is not None:
            self._close(now)
        return {
            "incidents": len(self.incidents),
            "suppressed": self.suppressed,
            "epoch_start": self.epoch_start,
            "ring_sizes": {
                "requests": len(self.ring_requests),
                "metrics": len(self.ring_metrics),
                "decisions": len(self.ring_decisions),
                "numerics": len(self.ring_numerics),
            },
        }

    # -- replay support -------------------------------------------------------
    def preload_state(self, bundle: dict) -> None:
        """Seed engine + recorder state from a bundle's epoch-start
        snapshot, so a replay scores the epoch's samples against exactly
        the statistics the original run held."""
        self.engine.load_state(bundle.get("detector_state", {}))
        rs = bundle.get("recorder_state", {})
        self._last_depth = int(rs.get("last_depth", -1))
        self._snap_depth = self._last_depth
        self._cooldown_until = int(rs.get("cooldown_until", -1))
        self._epoch_snapshot = self.engine.state()
        self._snap_obs = self.engine.n_obs


NULL_RECORDER = FlightRecorder(enabled=False)
