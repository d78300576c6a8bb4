"""The claims ledger: every deterministic number the reproduction stands on.

Each :class:`Claim` has a source (a paper table, figure or equation, or ``"pin"``
for a model value with no paper counterpart), a reference value, a direction with
a relative tolerance, and a function computing the model value through the drivers.
``python -m repro claims [--full]`` exits 1 naming each miss (``full`` entries train
for minutes); ``python -m repro.eval.claims`` re-renders EXPERIMENTS.md's tables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, partial
from math import inf
from pathlib import Path
from typing import Callable

import numpy as np

from repro.arith.bfp_matmul import AlignmentProbe, bfp_matmul_emulate, set_alignment_probe
from repro.cluster import ClusterConfig, ClusterSpec, simulate_cluster
from repro.cost.modes import ModeOptions
from repro.eval import bitwidth, fig7, halfprec, table4
from repro.eval.accuracy import ExperimentConfig, run_task
from repro.eval.decoder import run_decoder_study
from repro.eval.reporting import render_table
from repro.eval.table1 import PAPER_TABLE1, shared_operations
from repro.eval.table2 import PAPER_TABLE2
from repro.models.ops_count import PAPER_TABLE4_LATENCY_MS, PAPER_TABLE4_OPS
from repro.models.policy import get_policy
from repro.perf import throughput as tp
from repro.perf.latency import system_measured_fp32_flops
from repro.perf.related_work import PAPER_OURS, RELATED_WORK, ours_entry
from repro.perf.resources import fig6_designs, pe_array, processing_unit_total, table2_breakdown
from repro.runtime.scheduler import compile_decoder
from repro.serve.request import TrafficConfig, poisson_trace

__all__ = ["Claim", "LEDGER", "FIG6", "check", "render_document", "run_claims",
           "unit_cycles", "measured_narrow_frac"]

EXPERIMENTS = Path(__file__).resolve().parents[3] / "EXPERIMENTS.md"


@dataclass(frozen=True)
class Claim:
    table: str  # the EXPERIMENTS.md table that shows it
    name: str
    source: str
    reference: float
    model: Callable[[], float]
    direction: str = "within"  # "at least" | "at most" | "within"
    tolerance: float = 0.0  # relative to |reference|
    note: str = ""
    full: bool = False
    fmt: str = "{:g}"

    def bounds(self) -> tuple[float, float]:
        slack = self.tolerance * abs(self.reference)
        return (-inf if self.direction == "at most" else self.reference - slack,
                inf if self.direction == "at least" else self.reference + slack)

    def check_text(self) -> str:
        lo, hi = self.bounds()
        if self.direction != "within":
            return f">= {self.fmt.format(lo)}" if hi == inf else f"<= {self.fmt.format(hi)}"
        return f"+/- {100 * self.tolerance:g}%" if self.tolerance else "exact"


def _table2(component: str, column: int) -> float:
    parts = {**table2_breakdown(), "Total": processing_unit_total()}
    parts["Memory Interface + Controller"] = parts["Memory Interface"] + parts["Controller"]
    r = parts[component]
    return (r.lut, r.ff, r.bram, r.dsp)[column]


def _saving(attr: str) -> float:
    """% of a resource the multi-mode unit saves over individual units."""
    d = fig6_designs()
    return 100 * (1 - getattr(d["ours"], attr) / getattr(d["indiv"], attr))


def _efficiency(work: str) -> float:
    rows = {e.work: e for e in (*RELATED_WORK, PAPER_OURS, ours_entry())}
    return rows[work].efficiency_gops_per_dsp


@lru_cache(maxsize=None)
def _decoder() -> dict[str, float]:
    _, _, rows, gen_match = run_decoder_study()
    return {"generation": gen_match, **{r["backend"]: r["next_token_accuracy"] for r in rows}}


@lru_cache(maxsize=None)
def _accuracy() -> dict[str, float]:
    fp32_acc, regimes = run_task(ExperimentConfig(task="majority"))
    return {"fp32": fp32_acc, **{f"{r.backend}:{k}": getattr(r, k) for r in regimes
                                 for k in ("accuracy", "agreement", "logit_rmse")}}


def _row(rows: list[dict], **match) -> dict:
    return next(r for r in rows if all(r[k] == v for k, v in match.items()))


def unit_cycles(phase: str, policy: str, modes=None) -> int:
    """Unit cycles per item of a TinyLM-shaped decoder (decode batch 8, prefill 4)."""
    return compile_decoder(
        vocab=1000, dim=128, depth=4, n_heads=4, context=128, phase=phase, modes=modes,
        batch=8 if phase == "decode" else 4, policy=get_policy(policy)).unit_cycles_per_item()


def measured_narrow_frac() -> float:
    """The alignment probe's narrow fraction on a seeded workload."""
    probe = AlignmentProbe()
    prev = set_alignment_probe(probe)
    try:
        rng = np.random.default_rng(0)
        for _ in range(4):
            bfp_matmul_emulate(rng.standard_normal((32, 64)), rng.standard_normal((64, 32)))
    finally:
        set_alignment_probe(prev)
    assert probe.under_predictions == 0
    return probe.narrow_frac


def _scaling_1_to_2() -> float:
    trace = poisson_trace(600, TrafficConfig(rate_rps=2000.0), seed=7, n_users=64)
    tps = [simulate_cluster(trace, ClusterConfig(
        spec=ClusterSpec(boards=4), initial_replicas=n)).summary["tokens_per_s"]
        for n in (1, 2)]
    return tps[1] / tps[0]


_FP16_DOT = partial(unit_cycles, "decode", "fp16-linear", ModeOptions.parse("fp16"))
_FP32_ROWS = [k for k in PAPER_TABLE4_OPS if k.startswith("fp32")]

#: The quantitative claims the paper states about Fig. 6 (Section III-A and
#: the abstract); the bars themselves are only published graphically.
FIG6 = tuple(Claim("fig6", name, "Fig. 6", ref, fn, tolerance=0.01, fmt="{:.4g}")
             for name, ref, fn in (
    ("bfp8 FF vs int8", 1.19, lambda: fig6_designs()["bfp8"].ff / fig6_designs()["int8"].ff),
    ("multimode PE-array LUT vs bfp8-only PE-array", 2.94,
     lambda: pe_array(multimode=True).lut / pe_array(multimode=False).lut),
    ("DSP saving vs individual (%)", 20.0, partial(_saving, "dsp")),
    ("FF saving vs individual (%)", 61.2, partial(_saving, "ff")),
    ("LUT saving vs individual (%)", 43.6, partial(_saving, "lut"))))

LEDGER: tuple[Claim, ...] = (
    Claim("table1", "cells equal to the paper's matrix", "Table I",
          sum(map(len, PAPER_TABLE1.values())),
          lambda: sum(shared_operations()[op][w] == used
                      for op, row in PAPER_TABLE1.items() for w, used in row.items())),
    *(Claim("table2", f"{comp} {res}", "Table II", ref, partial(_table2, comp, col))
      for comp, row in PAPER_TABLE2.items()
      for col, (res, ref) in enumerate(zip(("LUT", "FF", "BRAM", "DSP"), row)) if ref),
    *FIG6,
    *(Claim("fig7", name, src, ref, fn, tolerance=tol, fmt="{:.4g}")
      for name, src, ref, tol, fn in (
          ("bfp8 peak GOPS per unit", "Eqn 9", 76.8, 0.0, lambda: tp.bfp_peak_ops() / 1e9),
          ("Eqn-9 efficiency at N_X = 64 (%)", "Eqn 9", 97.15, 1e-4,
           lambda: 100 * tp.bfp_efficiency(64)),
          ("fp32 peak GFLOPS per unit", "Eqn 10", 2.4, 0.0,
           lambda: tp.fp32_peak_flops() / 1e9),
          ("15-unit Eqn-10 GFLOPS at L = 128", "Eqn 10", 33.88, 1e-4,
           tp.paper_headline_fp32_gflops))),
    *(Claim("fig7", f"bfp8 measured GOPS, N_X = {n}", "Fig. 7 / Eqn 9",
            fig7.bfp_series()["theoretical_GOPS"][i],
            lambda i=i: fig7.bfp_series()["measured_GOPS"][i], "at most", fmt="{:.1f}")
      for i, n in enumerate(fig7.BFP_SWEEP)),
    *(Claim("fig7", f"fp32 measured GFLOPS, L = {n}", "Fig. 7 / Eqn 10",
            fig7.fp32_series()["theoretical_GFLOPS"][i],
            lambda i=i: fig7.fp32_series()["measured_GFLOPS"][i], "at most", fmt="{:.2f}")
      for i, n in enumerate(fig7.FP32_SWEEP)),
    Claim("fig7", "15-unit measured fp32 GFLOPS", "Table IV",
          sum(map(PAPER_TABLE4_OPS.get, _FP32_ROWS))
          / sum(map(PAPER_TABLE4_LATENCY_MS.get, _FP32_ROWS)) / 1e6,
          lambda: system_measured_fp32_flops() / 1e9, tolerance=0.15, fmt="{:.1f}",
          note="the rate Table IV's fp32 ops and latencies imply"),
    Claim("fig7", "15-unit Eqn-9 GOPS at N_X = 64", "Eqn 9 / Table III",
          PAPER_OURS.throughput_gops, lambda: tp.system_bfp_throughput_ops() / 1e9,
          "at most", fmt="{:.2f}", note="the paper's measured headline exceeds "
          "its own Eqn-9 ceiling for 15 units at 300 MHz"),
    Claim("table3", "Fan et al. [19] GOPS/DSP", "Table III", 1.24,
          partial(_efficiency, "Fan et al. [19]"), "at most", fmt="{:.2f}",
          note="the paper prints 1.24; its own columns give 1667 / 1518"),
    Claim("table3", "Auto-ViT-Acc [21] GOPS/DSP", "Table III", 0.59,
          partial(_efficiency, "Auto-ViT-Acc [21]"), "at least", fmt="{:.2f}",
          note="the paper prints 0.59; its own columns give 907.8 / 1152"),
    Claim("table3", "Ours (paper) GOPS/DSP", "Table III", 0.95,
          partial(_efficiency, "Ours (paper)"), tolerance=0.005, fmt="{:.3f}"),
    Claim("table3", "Ours (model) GOPS/DSP", "Table III", PAPER_OURS.efficiency_gops_per_dsp,
          partial(_efficiency, "Ours (model)"), tolerance=0.25, fmt="{:.3f}",
          note="15 units of 72 DSPs plus shell, at the modeled measured rate"),
    Claim("table3", "best prior Transformer GOPS", "Table III", PAPER_OURS.throughput_gops,
          lambda: max(e.throughput_gops for e in RELATED_WORK
                      if e.application == "Transformer"),
          "at most", note="the paper's row leads"),
    *(Claim("table4", f"{name} latency (ms)", "Table IV", ref,
            lambda n=name: _row(table4.reproduce_paper_table().rows, name=n)["latency_s"] * 1e3,
            tolerance=0.002, fmt="{:.3f}", note="paper op counts at 2052.06 GOPS / 15 GFLOPS")
      for name, ref in PAPER_TABLE4_LATENCY_MS.items()),
    Claim("table4", "fp32 share of latency (%)", "Table IV", 92.45,
          lambda: 100 * table4.reproduce_paper_table().fp32_latency_share(),
          tolerance=0.01, fmt="{:.2f}", note="the paper prints 92.45%; its own "
          "latency column sums to 13.500 / 14.701 ms = 91.83%"),
    Claim("table4", "fp32 share of ops, analytic counts (%)", "Table IV", 5.0,
          lambda: sum(r["ops_pct"] for r in table4.analytic_table().proportions()
                      if r["mode"] == "fp32"),
          "at most", fmt="{:.1f}", note="a sliver of the operations"),
    Claim("table4", "fp32 share of latency, analytic counts (%)", "Table IV", 50.0,
          lambda: 100 * table4.analytic_table().fp32_latency_share(),
          "at least", fmt="{:.1f}", note="most of the latency"),
    *(Claim("bitwidth", f"bfp - int SQNR (dB), {dist}, {bits} bits", "pin", ref,
            lambda d=dist, b=bits: (lambda r: r["bfp_sqnr_db"] - r["int_sqnr_db"])(
                _row(bitwidth.sqnr_table(), distribution=d, bits=b)),
            tolerance=0.01, fmt="{:.3f}")
      for dist, bits, ref in (("gaussian", 8, 1.665), ("heavy-tailed", 8, 12.60),
                              ("outlier", 8, 16.43), ("outlier", 4, 10.77))),
    Claim("halfprec", "bf16 / fp32 peak GFLOPS", "pin", 2.0,
          lambda: tp.half_peak_flops("bf16") / tp.fp32_peak_flops()),
    *(Claim("halfprec", f"{prec} {fn} max error", "pin", ref,
            lambda p=prec, k=f"{fn.lower()}_max_err":
                _row(halfprec.nonlinear_accuracy(), precision=p)[k],
            "at most", 0.1, fmt="{:.3g}")
      for prec, refs in (("fp32", (1.03e-6, 1.01e-6)), ("fp16", (5.2e-4, 2.85e-3)),
                         ("bf16", (3.74e-3, 2.56e-2)))
      for fn, ref in zip(("softmax", "GELU"), refs)),
    *(Claim("halfprec", name, "pin", ref,
            lambda key=key: halfprec.deit_latency_with_half("bf16")[key],
            tolerance=0.001, fmt="{:.4g}")
      for name, key, ref in (
          ("DeiT-Small latency, fp32 vector unit (ms)", "baseline_ms", 31.04),
          ("DeiT-Small latency, bf16 vector unit (ms)", "boosted_ms", 20.81),
          ("DeiT-Small speedup from a bf16 vector unit", "speedup", 1.492))),
    *(Claim("decoder", f"{regime} next-token accuracy", "pin", ref,
            lambda regime=regime: _decoder()[regime], direction, tol, note, fmt="{:.4f}")
      for regime, ref, direction, tol, note in (
          ("fp32", 0.9210, "at least", 0.1, ""),
          ("bfp8-mixed", 0.9210, "at least", 0.1, "reference: fp32's"),
          ("int8-all", 0.5517, "at most", 0.5, "collapses"),
          ("ibert", 0.1352, "at most", 1.0, "collapses without retraining"))),
    Claim("decoder", "greedy generation identical to fp32 under bfp8-mixed", "pin", 1.0,
          lambda: _decoder()["generation"]),
    *(Claim("accuracy", name, "pin", ref, lambda key=key: _accuracy()[key], direction,
            tol, full=True, fmt="{:.4f}")
      for name, key, ref, direction, tol in (
          ("fp32 test accuracy", "fp32", 0.86, "at least", 0.1),
          ("bfp8-mixed test accuracy", "bfp8-mixed:accuracy", 0.86, "at least", 0.1),
          ("bfp8-mixed logit RMSE", "bfp8-mixed:logit_rmse", 0.0526, "at most", 2.0),
          *((f"{regime} agreement vs fp32", f"{regime}:agreement", 1.0, "at least", 0.03)
            for regime in ("bfp8-mixed", "bfp8-all", "int8-linear", "int8-all", "ibert")))),
    *(Claim("pins", name, "pin", ref, fn, "at least", tol, note)
      for name, ref, tol, fn, note in (
          ("scaling_1_to_2", 1.9212839471657985, 0.10, _scaling_1_to_2,
           "tokens/s from 1 to 2 replicas, 600-request saturating trace"),
          ("fp16_dot_speedup_vs_vector", 5.9882242714137774, 0.01,
           lambda: unit_cycles("decode", "fp16-linear") / _FP16_DOT(),
           "fp16 decode on fp16_dot vs the fp32 vector cliff"),
          ("tokens_per_s.fp16_dot", 184.9203609645446, 0.01,
           lambda: tp.DEFAULT_CLOCK.freq_hz / _FP16_DOT(),
           "fp16 decode rate of one unit on fp16_dot"),
          ("alignment.savings_frac", 0.020013091116768633, 0.05,
           lambda: 1.0 - unit_cycles("prefill", "bfp8-mixed", ModeOptions(
               align_narrow_frac=measured_narrow_frac())) / unit_cycles("prefill", "bfp8-mixed"),
           "prefill cycles saved by the aligned-width predictor"))),
)


def check(*, full: bool = False) -> dict[str, float | None]:
    """Model value per entry name; ``None`` for ``full`` entries unless ``full``."""
    return {c.name: c.model() if full or not c.full else None for c in LEDGER}


def _markdown(table: str, values: dict) -> str:
    lines = ["| claim | source | reference | model | check | note |",
             "|---|---|---|---|---|---|"]
    for c in (c for c in LEDGER if c.table == table):
        model = "`--full`" if values[c.name] is None else c.fmt.format(values[c.name])
        lines.append(f"| {c.name} | {c.source} | {c.fmt.format(c.reference)} | "
                     f"{model} | {c.check_text()} | {c.note} |")
    return "\n".join(lines)


def render_document(text: str, values: dict | None = None) -> str:
    """``text`` with every marked table re-rendered from the ledger."""
    values = check() if values is None else values
    return re.sub(r"(<!-- claims:(\w+) -->\n).*?(<!-- /claims:\2 -->)",
                  lambda m: m[1] + _markdown(m[2], values) + "\n" + m[3], text,
                  flags=re.S)


def run_claims(args) -> int:
    values = check(full=args.full)
    rows, misses = [], []
    for c in LEDGER:
        v, (lo, hi) = values[c.name], c.bounds()
        status = "--full" if v is None else "ok" if lo <= v <= hi else "MISS"
        shown = "-" if v is None else c.fmt.format(v)
        rows.append((c.name, c.source, c.fmt.format(c.reference), shown, c.check_text(), status))
        if status == "MISS":
            misses.append(f"MISS {c.name} ({c.source}): model {shown}, needs {c.check_text()}")
    print(render_table(["claim", "source", "reference", "model", "check", "status"],
                       rows, title="claims ledger"))
    skipped = sum(v is None for v in values.values())
    print("\n".join(misses + [f"claims: {len(rows) - skipped - len(misses)} ok, "
                              f"{len(misses)} missed, {skipped} need --full"]))
    return 1 if misses else 0


if __name__ == "__main__":  # pragma: no cover
    EXPERIMENTS.write_text(render_document(EXPERIMENTS.read_text()))
