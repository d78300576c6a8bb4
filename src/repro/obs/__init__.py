"""Observability for the cycle domain: tracing, metrics, SLOs, profiling.

Complementary views of where simulated cycles go:

* :mod:`repro.obs.tracer` — hierarchical spans keyed on simulated cycles
  with Chrome-trace/Perfetto JSON export (per-unit timelines of a serving
  run or a compiled schedule), cross-process request-path spans and flow
  events for cluster runs;
* :mod:`repro.obs.metrics` — a process-wide registry of named
  counters/gauges/histograms that the hw, runtime and serve layers
  publish into;
* :mod:`repro.obs.slo` — per-class latency objectives, error budgets and
  multi-window burn rates over the dispatcher's completion stream, plus
  trace-side reconstruction for ``repro slo-report``;
* :mod:`repro.obs.profile` — per-layer, per-precision cycle and op
  attribution for the functional models;
* :mod:`repro.obs.anomaly` — online EWMA/z-score detectors and trigger
  taxonomy for the flight recorder;
* :mod:`repro.obs.recorder` — always-on bounded flight recorder with
  triggered incident-bundle capture and deterministic replay support
  (``repro incident-replay`` in :mod:`repro.obs.incident_cli`).

All of these are pure functions of (workload, config, seed): no
wall-clock value ever enters the recorded data, so every export is
byte-identical across runs.  Each observer has one disabled path: an
instance built with ``enabled=False`` (:data:`NULL_TRACER`,
:data:`NULL_REGISTRY`, :data:`NULL_SLO`, :data:`NULL_RECORDER`,
:data:`NULL_MONITOR`) whose recording methods return
at once, and which call sites skip with one ``enabled`` check;
``profiler=None`` turns off cycle profiling.
"""

from repro.obs.anomaly import (
    AnomalyConfig,
    AnomalyEngine,
    DetectorConfig,
    EwmaDetector,
    ThresholdDetector,
    Trigger,
)
from repro.obs.artifacts import (
    ARTIFACT_SCHEMA_VERSION,
    git_rev,
    jsonable,
    write_bench_artifact,
)
from repro.obs.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    percentiles,
    set_registry,
)
from repro.obs.numerics import NULL_MONITOR
from repro.obs.profile import Profiler
from repro.obs.recorder import (
    NULL_RECORDER,
    FlightRecorder,
    RecorderConfig,
    canonical_sha256,
)
from repro.obs.slo import (
    NULL_SLO,
    SLOClass,
    SLOConfig,
    SLOTracker,
    requests_from_trace,
    slo_report_from_trace,
)
from repro.obs.tracer import (
    DEFAULT_PROCESS,
    NULL_TRACER,
    REQUEST_STAGES,
    FlowEvent,
    RequestPathConfig,
    Span,
    SpanContext,
    Tracer,
    validate_chrome_trace,
)

__all__ = [
    "Tracer",
    "NULL_TRACER",
    "Span",
    "SpanContext",
    "FlowEvent",
    "RequestPathConfig",
    "REQUEST_STAGES",
    "DEFAULT_PROCESS",
    "validate_chrome_trace",
    "SLOClass",
    "SLOConfig",
    "SLOTracker",
    "NULL_SLO",
    "requests_from_trace",
    "slo_report_from_trace",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "get_registry",
    "set_registry",
    "NULL_REGISTRY",
    "percentiles",
    "NULL_MONITOR",
    "Profiler",
    "git_rev",
    "jsonable",
    "write_bench_artifact",
    "ARTIFACT_SCHEMA_VERSION",
    "AnomalyConfig",
    "AnomalyEngine",
    "DetectorConfig",
    "EwmaDetector",
    "ThresholdDetector",
    "Trigger",
    "RecorderConfig",
    "FlightRecorder",
    "NULL_RECORDER",
    "canonical_sha256",
]
