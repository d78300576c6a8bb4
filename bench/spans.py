"""Per-layer host-time spans, recorded from outside the program.

:class:`SpanRecorder` wraps public functions and methods of the
simulator's layers (no edits to ``src/``): each call becomes a span with
a name, start, end and parent, and adds to a per-function aggregate of
calls, total time and self time.  Self time is a span's duration minus
the durations of the wrapped calls made inside it, so over a traced
phase::

    sum(self time of every wrapped function) + unattributed == wall time

where ``unattributed`` is the self time of the root span (the phase
itself).  Methods are wrapped on the class that defines them.  A module
function is replaced in every loaded ``repro`` module that binds the
same function object, which also catches ``from x import f`` aliases.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

#: (module, qualified name) of every function the traced run wraps.
TARGETS: tuple[tuple[str, str], ...] = (
    ("repro.runtime.plan", "DecodePlan.replay"),
    ("repro.runtime.plan", "fast_emulate_blocks"),
    ("repro.runtime.plan", "KvArena.append"),
    ("repro.runtime.plan", "bind_group_cache"),
    ("repro.runtime.plan", "resolve_plan"),
    ("repro.arith.bfp_matmul", "activation_blocks"),
    ("repro.arith.bfp_matmul", "bfp_batched_tiles"),
    ("repro.arith.bfp_matmul", "bfp_matmul_prepared"),
    ("repro.arith.bfp_matmul", "bfp_matmul_from_tiles"),
    ("repro.formats.registry", "BfpFormat.matmul"),
    ("repro.formats.registry", "BfpFormat.matmul_batched"),
    ("repro.formats.registry", "BfpFormat.nonlinear"),
    ("repro.formats.registry", "BfpFormat.requantize"),
    ("repro.models.backend", "PolicyBackend.matmul"),
    ("repro.models.backend", "PolicyBackend.matmul_batched"),
    ("repro.models.backend", "PolicyBackend.nonlinear"),
    ("repro.models.backend", "PolicyBackend.requantize"),
    ("repro.models.decoder", "TinyLM.forward_step_batch"),
    ("repro.perf.prepared", "PreparedOperandCache.prepare"),
    ("repro.cost.model", "PolicyCostModel.job_cycles"),
    ("repro.hw.system", "UnitPool.assign"),
    ("repro.serve.dispatcher", "simulate"),
    ("repro.serve.dispatcher", "Dispatcher.admit"),
    ("repro.serve.dispatcher", "Dispatcher.try_dispatch"),
    ("repro.serve.dispatcher", "Dispatcher.on_finish"),
    ("repro.serve.dispatcher", "Dispatcher.observe_queue"),
    ("repro.serve.batcher", "DynamicBatcher.add"),
    ("repro.serve.batcher", "DynamicBatcher.pop_ready"),
    ("repro.serve.sessions", "SessionTable.step"),
    ("repro.serve.metrics", "MetricsCollector.summary"),
    ("repro.cluster.simulate", "simulate_cluster"),
    ("repro.cluster.router", "Router.route"),
    ("repro.cluster.autoscaler", "Autoscaler.decide"),
    ("repro.cluster.sharding", "ShardedCostModel.batch_cycles"),
    ("repro.cluster.sharding", "ShardedCostModel.batch_breakdown"),
    ("repro.obs.tracer", "Tracer.span"),
    ("repro.obs.tracer", "Tracer.async_span"),
    ("repro.obs.tracer", "Tracer.counter"),
    ("repro.obs.tracer", "Tracer.flow"),
    ("repro.obs.tracer", "Tracer.to_json"),
    ("repro.obs.tracer", "SpanContext.child"),
    ("repro.obs.tracer", "SpanContext.flow"),
    ("repro.obs.slo", "SLOTracker.record_completion"),
    ("repro.obs.slo", "SLOTracker.fleet_burn"),
    ("repro.obs.recorder", "FlightRecorder.record_arrival"),
    ("repro.obs.recorder", "FlightRecorder.record_dispatch"),
    ("repro.obs.recorder", "FlightRecorder.record_completion"),
    ("repro.obs.recorder", "FlightRecorder.end_event"),
    ("repro.obs.metrics", "MetricsRegistry.counter"),
    ("repro.obs.metrics", "MetricsRegistry.histogram"),
    # Counted but not reported as a span: plan traces in the timed phase.
    ("repro.runtime.plan", "DecodePlan._trace"),
)

#: Full spans kept in memory for the Chrome-trace file; aggregates are
#: kept for every call regardless.
SPAN_CAP = 100_000


def span_name(module: str, qualname: str) -> str:
    """``<layer>.<Qualname>``: the layer is the package under ``repro``."""
    return f"{module.split('.')[1]}.{qualname}"


def _patch_module_function(module: str, name: str, wrapper) -> list:
    """Rebind ``module.name`` in every loaded ``repro`` module binding it.

    Returns ``(module object, attribute, original)`` triples to restore.
    """
    original = getattr(importlib.import_module(module), name)
    patched = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                patched.append((mod, attr, original))
    return patched


class SpanRecorder:
    """Aggregates and spans of wrapped calls, rooted at :meth:`root`."""

    def __init__(self, cap: int = SPAN_CAP) -> None:
        self.cap = cap
        #: name -> [calls, total seconds, self seconds]
        self.agg: dict[str, list] = {}
        #: (id, name, start, end, parent id) of the first ``cap`` spans.
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.dropped = 0
        self.root_total = 0.0
        self.root_child = 0.0
        # Open frames: [span id, child seconds].
        self._stack: list[list] = []
        self._next_id = 0
        self._restore: list = []

    # -- wrapping ------------------------------------------------------------
    def wrap(self, name: str, fn):
        """A wrapper timing every call of ``fn`` as span ``name``."""
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:  # outside a root span: not traced
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            frame = [sid, 0.0]
            parent = stack[-1]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                if len(self.spans) < self.cap:
                    self.spans.append((sid, name, t0, t1, parent[0]))
                else:
                    self.dropped += 1

        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Wrap every target; :meth:`uninstall` restores the originals."""
        for module, qualname in targets:
            name = span_name(module, qualname)
            mod = importlib.import_module(module)
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(name, original))
                self._restore.append((cls, meth, original))
            else:
                wrapper = self.wrap(name, getattr(mod, qualname))
                self._restore.extend(
                    _patch_module_function(module, qualname, wrapper))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- root spans ----------------------------------------------------------
    def root(self, fn, *args):
        """Run ``fn(*args)`` as a root span; returns ``(result, seconds)``.

        Root spans are named ``operation`` and have parent ``-1``.
        """
        sid = self._next_id
        self._next_id = sid + 1
        frame = [sid, 0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.root_total += t1 - t0
            self.root_child += frame[1]
            if len(self.spans) < self.cap:
                self.spans.append((sid, "operation", t0, t1, -1))
        return result, t1 - t0

    # -- results -------------------------------------------------------------
    @property
    def unattributed(self) -> float:
        """Root self time: traced wall time spent outside wrapped calls."""
        return self.root_total - self.root_child

    def self_total(self) -> float:
        return sum(a[2] for a in self.agg.values())

    def top(self, n: int = 5) -> list[tuple[str, int, float, float]]:
        """``(name, calls, total_ms, self_ms)`` of the ``n`` largest self times."""
        rows = sorted(self.agg.items(), key=lambda kv: -kv[1][2])[:n]
        return [(k, a[0], 1e3 * a[1], 1e3 * a[2]) for k, a in rows]

    def write_chrome_trace(self, path: Path) -> None:
        """Kept spans as Chrome-trace complete events (µs since the first)."""
        origin = min((s[2] for s in self.spans), default=0.0)
        events = [
            {"name": name, "ph": "X", "pid": 0, "tid": 0,
             "ts": round((t0 - origin) * 1e6, 3),
             "dur": round((t1 - t0) * 1e6, 3),
             "args": {"id": sid, "parent": parent}}
            for sid, name, t0, t1, parent in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "traceEvents": events,
            "otherData": {"dropped_spans": self.dropped},
        }))
