"""Numerics reports: one monitored TinyLM run, its JSON report and markdown.

:func:`monitored_run` runs the functional TinyLM under a quantizing backend
with a fresh numerics monitor, operand cache, metrics registry and alignment
probe attached, restores the previous ones afterwards, and memoizes the
result per (backend, seed, decode length).  The report is the monitor's
per-layer output plus the run configuration and the end-to-end logits SQNR
against the fp32 reference forward.

``repro numerics-report`` prints and exports that run.  The claims ledger's
``numerics`` table (:mod:`repro.eval.claims`) gates the same run: per-layer
SQNR, saturation and underflow rates, the (layer, role, precision) set and
the logits SQNR, on every ``python -m repro claims`` and tier-1 run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.numerics import NumericsMonitor

__all__ = [
    "REPORT_SCHEMA_VERSION",
    "NumericsRun",
    "build_report",
    "monitored_run",
    "render_markdown",
]

REPORT_SCHEMA_VERSION = 1


def build_report(
    monitor,
    *,
    model: str,
    backend: str,
    seed: int,
    gen_tokens: int,
    logits_sqnr_db: float | None = None,
) -> dict:
    """Assemble a schema-versioned report from a finished monitor run."""
    return {
        "schema": "repro.numerics-report",
        "version": REPORT_SCHEMA_VERSION,
        "config": {
            "model": model,
            "backend": backend,
            "seed": int(seed),
            "gen_tokens": int(gen_tokens),
        },
        "logits_sqnr_db": logits_sqnr_db,
        "totals": monitor.totals(),
        "entries": monitor.as_dict()["entries"],
    }


@dataclass(frozen=True)
class NumericsRun:
    """A finished monitored run: its report, monitor and metrics registry."""

    report: dict
    monitor: NumericsMonitor
    registry: MetricsRegistry


@lru_cache(maxsize=None)
def monitored_run(backend: str = "bfp8-mixed", seed: int = 0,
                  gen_tokens: int = 4) -> NumericsRun:
    """TinyLM prefill plus a cached greedy decode under ``backend``, observed."""
    import numpy as np

    from repro.arith.bfp_matmul import AlignmentProbe, set_alignment_probe
    from repro.models.backend import get_backend
    from repro.models.decoder import TinyLM
    from repro.obs.metrics import MetricsRegistry, set_registry
    from repro.obs.numerics import NumericsMonitor, set_monitor

    be = get_backend(backend)
    model = TinyLM(seed=seed)
    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, model.vocab, size=(2, model.seq_len))

    # fp32 reference forward on the same inputs — the end-to-end anchor
    # the per-layer streaming SQNR is judged against.
    ref_logits = np.asarray(model.forward(tokens), dtype=np.float64)

    monitor = NumericsMonitor()
    prev_monitor = set_monitor(monitor)
    # The model's weights are fresh arrays, so the prepared-operand cache
    # quantizes (and the monitor observes) each exactly once inside this
    # run; a fresh registry so the published numerics.* metrics carry no
    # prior-process state.
    registry = MetricsRegistry()
    prev_registry = set_registry(registry)
    # The alignment probe rides along: aligned-width-prediction evidence
    # (narrow fraction, zero under-predictions) joins the numerics story.
    probe = AlignmentProbe()
    prev_probe = set_alignment_probe(probe)
    try:
        logits = np.asarray(model.forward(tokens, be), dtype=np.float64)
        model.generate_cached(tokens[0, :4], gen_tokens, be)
        monitor.observe_alignment(probe)
        monitor.publish(registry)
    finally:
        set_monitor(prev_monitor)
        set_registry(prev_registry)
        set_alignment_probe(prev_probe)

    err_sq = float(((logits - ref_logits) ** 2).sum())
    ref_sq = float((ref_logits**2).sum())
    logits_sqnr = (
        float(10.0 * np.log10(ref_sq / err_sq))
        if ref_sq > 0 and err_sq > 0
        else None
    )
    report = build_report(monitor, model="tinylm", backend=be.name, seed=seed,
                          gen_tokens=gen_tokens, logits_sqnr_db=logits_sqnr)
    return NumericsRun(report, monitor, registry)


def _fmt(v, nd: int = 2) -> str:
    return "-" if v is None else f"{v:.{nd}f}"


def render_markdown(report: dict) -> str:
    """Markdown summary: the per-layer table and per-precision totals."""
    cfg = report["config"]
    lines = [
        "# Numerics report",
        "",
        f"model `{cfg['model']}` · backend `{cfg['backend']}` · "
        f"seed {cfg['seed']} · {cfg['gen_tokens']} decode tokens · "
        f"logits SQNR vs fp32: **{_fmt(report['logits_sqnr_db'])} dB**",
        "",
        "| layer | role | precision | SQNR (dB) | saturation | underflow "
        "| mantissa util | exp spread max |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for e in report["entries"]:
        lines.append(
            f"| {e['layer']} | {e['role']} | {e['precision']} "
            f"| {_fmt(e['sqnr_db'])} | {e['saturation_rate']:.4f} "
            f"| {e['underflow_rate']:.4f} "
            f"| {e['mantissa_utilization']:.3f} "
            f"| {e['exponent']['spread_max']} |"
        )
    lines.append("")
    for precision, g in sorted(report["totals"].items()):
        lines.append(
            f"**{precision} totals** — {g['tensors']} tensors, "
            f"{g['elements']} elements, saturation {g['saturation_rate']:.4f}, "
            f"underflow {g['underflow_rate']:.4f}, "
            f"SQNR {_fmt(g['sqnr_db'])} dB"
        )
    return "\n".join(lines) + "\n"
