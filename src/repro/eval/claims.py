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
from math import inf, nan
from pathlib import Path
from typing import Callable

import numpy as np

from repro.arith.bfp_matmul import AlignmentProbe, bfp_matmul_emulate, set_alignment_probe
from repro.cluster import AutoscalerConfig, ClusterConfig, ClusterSpec, ShardPlan, simulate_cluster
from repro.cost.modes import ModeOptions
from repro.eval import bitwidth, fig7, halfprec, table4
from repro.eval.accuracy import ExperimentConfig, run_task
from repro.eval.decoder import run_decoder_study
from repro.eval.reporting import render_table
from repro.eval.table1 import PAPER_TABLE1, shared_operations
from repro.eval.table2 import PAPER_TABLE2
from repro.hw.system import Job, MultiUnitSystem
from repro.models.configs import DEIT_SMALL
from repro.models.ops_count import PAPER_TABLE4_LATENCY_MS, PAPER_TABLE4_OPS
from repro.models.policy import get_policy
from repro.obs.baseline import monitored_run
from repro.perf import throughput as tp
from repro.perf.ablations import ablate_block_size, ablate_combined_mac, ablate_psu_depth
from repro.perf.latency import (
    measured_bfp_stream_cycles,
    measured_bfp_throughput_ops,
    system_measured_fp32_flops,
)
from repro.perf.power import PowerModel
from repro.perf.related_work import PAPER_OURS, RELATED_WORK, ours_entry
from repro.perf.resources import (
    design_bfp8_only,
    design_individual,
    design_int8,
    design_multimode,
    fig6_designs,
    pe_array,
    processing_unit_total,
    table2_breakdown,
)
from repro.runtime.scheduler import compile_decoder, compile_vit
from repro.serve.batcher import BatchPolicy
from repro.serve.dispatcher import ServeConfig, simulate
from repro.serve.request import DiurnalConfig, TrafficConfig, diurnal_trace, poisson_trace

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


@lru_cache(maxsize=None)
def _cluster() -> dict[str, float]:
    """Replica scaling, sharding overhead and autoscaling of the cluster study."""
    trace = poisson_trace(600, TrafficConfig(rate_rps=2000.0), seed=7, n_users=64)
    tps = [simulate_cluster(trace, ClusterConfig(
        spec=ClusterSpec(boards=4), initial_replicas=n)).summary["tokens_per_s"]
        for n in (1, 2)]
    shard_trace = poisson_trace(300, TrafficConfig(rate_rps=800.0), seed=7, n_users=64)
    shares = {plan.describe(): simulate_cluster(shard_trace, ClusterConfig(
        spec=ClusterSpec(boards=2, plan=plan), initial_replicas=2)).summary["interconnect_share"]
        for plan in (ShardPlan(tp=3), ShardPlan(pp=3))}
    diurnal = diurnal_trace(1200, TrafficConfig(rate_rps=1500.0),
                            DiurnalConfig(period_s=0.6, amplitude=0.9), seed=42, n_users=64)
    auto = simulate_cluster(diurnal, ClusterConfig(
        spec=ClusterSpec(boards=4), autoscaler=AutoscalerConfig(min_replicas=1, max_replicas=4),
        initial_replicas=1)).summary
    return {"scaling_1_to_2": tps[1] / tps[0], **shares,
            "scale_ups": auto["scale_ups"], "scale_downs": auto["scale_downs"]}


@lru_cache(maxsize=None)
def _batching() -> dict[str, float]:
    """Dynamic batching (up to 8, 200 us wait) against batch 1 on 400-request traces."""
    def run(trace, max_batch: int) -> dict:
        policy = BatchPolicy(max_batch=max_batch, max_wait_us=200.0 if max_batch > 1 else 0.0)
        return simulate(trace, ServeConfig(policy=policy)).summary

    llm, mixed = (poisson_trace(400, TrafficConfig(rate_rps=rate, vit_fraction=vit), seed=0)
                  for rate, vit in ((2000.0, 0.0), (1500.0, 0.05)))
    (b, s), (mb, ms) = ((run(t, 8), run(t, 1)) for t in (llm, mixed))
    return {"llm": b["tokens_per_s"] / s["tokens_per_s"],
            "llm_p95": b["latency_p95_ms"] / s["latency_p95_ms"],
            "mixed": mb["tokens_per_s"] / ms["tokens_per_s"]}


def _decode_over_prefill() -> float:
    """Per-token decode latency over amortized prefill, TinyLM-shaped decoder."""
    pre, dec = (compile_decoder(vocab=1000, dim=128, depth=4, n_heads=4, context=128,
                                phase=phase).latency_seconds() for phase in ("prefill", "decode"))
    return dec / (pre / 128)


def _dispatch() -> tuple[float, float]:
    """150 equal N_X = 64 bfp8 streams on the 15-unit system: utilization and
    GOPS over 15 units at one unit's measured rate."""
    cycles = measured_bfp_stream_cycles(64)
    report = MultiUnitSystem().schedule(
        [Job(f"j{i}", "bfp8", cycles, 2.0 * 2 * 64 * 512) for i in range(150)])
    return (report.utilization(), report.throughput_ops("bfp8")
            / (tp.DEFAULT_CLOCK.n_units * measured_bfp_throughput_ops(64)))


def _rows(study: Callable, key: str) -> dict:
    """An ablation study's rows keyed by the knob it varies."""
    return {getattr(r, key): r for r in study()}


def _dynamic_power(design: Callable) -> float:
    return PowerModel().bfp8_mode_power(design(), utilization=0.97).dynamic_w


#: The golden values of the bfp8-mixed TinyLM numerics run (seed 0, 4 decode
#: tokens, ``repro numerics-report``) the ledger gates: per (layer, role),
#: SQNR (dB), saturation rate and underflow rate.
NUMERICS_REFERENCE = (
    ("block0.attn", "activation", 41.30354719322568, 0.0008289124668435014, 0.006962864721485411),
    ("block0.attn", "kv", 42.48663351867246, 0.00022977941176470588, 0.012408088235294117),
    ("block0.attn", "weight", 41.49673472057266, 0.000244140625, 0.0087890625),
    ("block0.mlp", "activation", 41.66909692286364, 0.0006711409395973154, 0.040268456375838924),
    ("block0.mlp", "weight", 41.23423088434309, 0.0, 0.009436274509803921),
    ("block1.attn", "activation", 42.31042734431773, 0.0008289124668435014, 0.005470822281167109),
    ("block1.attn", "kv", 41.15073879566736, 0.0, 0.014705882352941176),
    ("block1.attn", "weight", 40.63503280277441, 0.0, 0.01171875),
    ("block1.mlp", "activation", 41.444255242291526, 0.0003355704697986577, 0.04614093959731544),
    ("block1.mlp", "weight", 41.20033738411972, 0.00012254901960784314, 0.01017156862745098),
    ("head", "activation", 42.80082915567281, 0.00078125, 0.009375),
    ("head", "weight", 40.37132770159574, 0.0, 0.0078125),
)
_LOGITS_SQNR_DB = 25.685289474137623
_SQNR_SLACK_DB = 1.0  # one dropped mantissa bit costs ~6 dB
_CLIP_SLACK = 0.005  # absolute rise allowed in a saturation or underflow rate
#: Per golden value: entry name, report key, direction, format and bound.
_NUMERICS_FIELDS = (
    ("SQNR (dB)", "sqnr_db", "at least", "{:.2f}", lambda g: g - _SQNR_SLACK_DB),
    ("saturation rate", "saturation_rate", "at most", "{:.4f}", lambda g: g + _CLIP_SLACK),
    ("underflow rate", "underflow_rate", "at most", "{:.4f}", lambda g: g + _CLIP_SLACK),
)


def _numerics_report() -> dict:
    return monitored_run("bfp8-mixed").report


def _numerics(layer: str, role: str, key: str) -> float:
    """One field of a (layer, role) entry; an unmeasurable SQNR is ``nan``, a miss."""
    entry = {(e["layer"], e["role"]): e for e in _numerics_report()["entries"]}[layer, role]
    return nan if entry[key] is None else entry[key]


def _logits_sqnr() -> float:
    sqnr = _numerics_report()["logits_sqnr_db"]
    return nan if sqnr is None else sqnr


def _numerics_triples() -> bool:
    return ({(e["layer"], e["role"], e["precision"]) for e in _numerics_report()["entries"]}
            == {(layer, role, "bfp8") for layer, role, *_ in NUMERICS_REFERENCE})


_FP16_DOT = partial(unit_cycles, "decode", "fp16-linear", ModeOptions.parse("fp16"))
_FP32_ROWS = [k for k in PAPER_TABLE4_OPS if k.startswith("fp32")]
_PACKING = partial(_rows, ablate_combined_mac, "packed")
_BLOCKS = partial(_rows, ablate_block_size, "block")
_PSU = partial(_rows, ablate_psu_depth, "depth")

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
    Claim("decoder", "bfp8-mixed - fp32 next-token accuracy", "pin", -0.03,
          lambda: _decoder()["bfp8-mixed"] - _decoder()["fp32"], "at least", fmt="{:.4f}",
          note="no retraining"),
    Claim("decoder", "bfp8-mixed - int8-all next-token accuracy", "pin", 0.3693,
          lambda: _decoder()["bfp8-mixed"] - _decoder()["int8-all"], "at least", 0.5,
          fmt="{:.4f}"),
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
    Claim("accuracy", "bfp8-mixed - fp32 test accuracy", "pin", -0.02,
          lambda: _accuracy()["bfp8-mixed:accuracy"] - _accuracy()["fp32"], "at least",
          full=True, fmt="{:.4f}", note="no retraining"),
    *(Claim("ablations", name, "pin", ref, fn, direction, tol, fmt=fmt)
      for name, ref, direction, tol, fmt, fn in (
          ("combined-MAC packing: peak ops, packed / unpacked", 2.0, "within", 0.0, "{:g}",
           lambda: _PACKING()[True].peak_ops / _PACKING()[False].peak_ops),
          ("combined-MAC packing: extra Y-buffer BRAM18", 16.0, "within", 0.0, "{:g}",
           lambda: _PACKING()[True].y_buffer_brams - _PACKING()[False].y_buffer_brams),
          ("combined-MAC packing: extra PE-array FFs", 512.0, "within", 0.0, "{:g}",
           lambda: _PACKING()[True].pe_ff - _PACKING()[False].pe_ff),
          ("SQNR, 4x4 - 8x8 blocks (dB)", 4.120382315119805, "at least", 0.5, "{:.3f}",
           lambda: _BLOCKS()[4].sqnr_db - _BLOCKS()[8].sqnr_db),
          ("SQNR, 8x8 - 16x16 blocks (dB)", 3.728948578750831, "at least", 0.5, "{:.3f}",
           lambda: _BLOCKS()[8].sqnr_db - _BLOCKS()[16].sqnr_db),
          ("shared-exponent bits per value, 4x4 blocks", 0.5, "within", 0.0, "{:g}",
           lambda: _BLOCKS()[4].exponent_overhead_bits_per_value),
          ("shared-exponent bits per value, 8x8 blocks", 0.125, "within", 0.0, "{:g}",
           lambda: _BLOCKS()[8].exponent_overhead_bits_per_value),
          ("lowest fill efficiency, 4x4 to 16x16 blocks", 0.9429097605893186, "at least", 0.04,
           "{:.4f}", lambda: min(r.fill_efficiency for r in _BLOCKS().values())),
          ("Eqn-9 efficiency, 512-word PSU", 0.9715, "within", 0.001, "{:.4f}",
           lambda: _PSU()[512].eqn9_efficiency),
          ("BRAM18 per column, 512-word PSU", 1.0, "within", 0.0, "{:g}",
           lambda: _PSU()[512].psu_brams_per_column),
          ("Eqn-9 efficiency gained by a 1024-word PSU", 0.014026039488414854, "at most", 0.1,
           "{:.4f}", lambda: _PSU()[1024].eqn9_efficiency - _PSU()[512].eqn9_efficiency),
          *((f"{name} dynamic power at 97% utilization (W)", ref, "within", 0.01, "{:.4f}",
             partial(_dynamic_power, design))
            for name, ref, design in (
                ("int8 array", 0.47026547500000004, design_int8),
                ("bfp8 array", 0.49504998750000007, design_bfp8_only),
                ("multi-mode unit", 0.5162861750000001, design_multimode),
                ("individual bfp8 + fp32 units", 0.71676165, design_individual))))),
    *(Claim("pins", name, "pin", ref, fn, direction, tol, note)
      for name, ref, direction, tol, fn, note in (
          ("scaling_1_to_2", 1.9212839471657985, "at least", 0.06,
           lambda: _cluster()["scaling_1_to_2"],
           "tokens/s from 1 to 2 replicas, 600-request saturating trace"),
          ("tp3 interconnect share", 0.0051477607017622, "within", 0.5,
           lambda: _cluster()["tp3xpp1"], "2 replicas, 300-request trace"),
          ("pp3 interconnect share", 0.00041676132774911396, "within", 0.5,
           lambda: _cluster()["tp1xpp3"], "2 replicas, 300-request trace"),
          ("autoscaler scale-ups", 4, "at least", 0.75, lambda: _cluster()["scale_ups"],
           "1,200-request diurnal trace, 1 to 4 replicas"),
          ("autoscaler scale-downs", 4, "at least", 0.75, lambda: _cluster()["scale_downs"],
           "1,200-request diurnal trace, 1 to 4 replicas"),
          ("dynamic batching tokens/s speedup, llm-only", 2.348295993867173, "at least", 0.1,
           lambda: _batching()["llm"], "batch <= 8 vs 1, 400-request trace"),
          ("dynamic batching p95 latency ratio, llm-only", 0.32692331461235613, "at most", 0.1,
           lambda: _batching()["llm_p95"], "batch <= 8 vs 1, 400-request trace"),
          ("dynamic batching tokens/s speedup, mixed", 1.6094337277286914, "at least", 0.1,
           lambda: _batching()["mixed"], "5% ViT images, 400-request trace"),
          ("decode / prefill per-token latency", 12.080510554737359, "at least", 0.1,
           _decode_over_prefill, "KV-cache N_X = 1 streams vs a 128-token prefill"),
          ("DeiT-Small latency, 15 / 60 units", 3.9820976033529236, "at least", 0.5,
           lambda: compile_vit(DEIT_SMALL).latency_cycles(15)
           / compile_vit(DEIT_SMALL).latency_cycles(60), "compiled schedule"),
          ("15-unit dispatch utilization", 1.0, "at least", 0.04, lambda: _dispatch()[0],
           "150 equal N_X = 64 bfp8 streams"),
          ("15-unit dispatch GOPS / 15 x one unit's measured", 1.0, "within", 0.05,
           lambda: _dispatch()[1], "150 equal N_X = 64 bfp8 streams"),
          ("fp16_dot_speedup_vs_vector", 5.9882242714137774, "at least", 0.01,
           lambda: unit_cycles("decode", "fp16-linear") / _FP16_DOT(),
           "fp16 decode on fp16_dot vs the fp32 vector cliff"),
          ("tokens_per_s.fp16_dot", 184.9203609645446, "at least", 0.01,
           lambda: tp.DEFAULT_CLOCK.freq_hz / _FP16_DOT(),
           "fp16 decode rate of one unit on fp16_dot"),
          ("alignment.savings_frac", 0.020013091116768633, "at least", 0.05,
           lambda: 1.0 - unit_cycles("prefill", "bfp8-mixed", ModeOptions(
               align_narrow_frac=measured_narrow_frac())) / unit_cycles("prefill", "bfp8-mixed"),
           "prefill cycles saved by the aligned-width predictor"))),
    *(Claim("numerics", f"{layer} {role} {name}", "pin", bound(golden),
            partial(_numerics, layer, role, key), direction, fmt=fmt,
            note=f"golden {fmt.format(golden)}")
      for layer, role, *goldens in NUMERICS_REFERENCE
      for (name, key, direction, fmt, bound), golden in zip(_NUMERICS_FIELDS, goldens)),
    Claim("numerics", "(layer, role, precision) set equals the golden's", "pin", 1.0,
          _numerics_triples, note="every entry bfp8"),
    Claim("numerics", "logits SQNR vs fp32 (dB)", "pin", _LOGITS_SQNR_DB - _SQNR_SLACK_DB,
          _logits_sqnr, "at least", fmt="{:.2f}",
          note=f"golden {_LOGITS_SQNR_DB:.2f}"),
)


def _evaluate(c: Claim) -> float | Exception:
    try:
        return c.model()
    except Exception as exc:  # a model that cannot compute its value misses by name
        return exc


def check(*, full: bool = False) -> dict[str, float | Exception | None]:
    """Model value per entry name (the exception a model raised, if any);
    ``None`` for ``full`` entries unless ``full``."""
    return {c.name: _evaluate(c) if full or not c.full else None for c in LEDGER}


def _shown(c: Claim, v) -> str:
    return f"raised {type(v).__name__}" if isinstance(v, Exception) else c.fmt.format(v)


def _markdown(table: str, values: dict) -> str:
    lines = ["| claim | source | reference | model | check | note |",
             "|---|---|---|---|---|---|"]
    for c in (c for c in LEDGER if c.table == table):
        model = "`--full`" if values[c.name] is None else _shown(c, values[c.name])
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
        status = ("--full" if v is None else
                  "ok" if not isinstance(v, Exception) and lo <= v <= hi else "MISS")
        shown = "-" if v is None else _shown(c, v)
        rows.append((c.name, c.source, c.fmt.format(c.reference), shown, c.check_text(), status))
        if status == "MISS":
            got = f"{shown}: {v}" if isinstance(v, Exception) else f"model {shown}"
            misses.append(f"MISS {c.name} ({c.source}): {got}, needs {c.check_text()}")
    print(render_table(["claim", "source", "reference", "model", "check", "status"],
                       rows, title="claims ledger"))
    skipped = sum(v is None for v in values.values())
    print("\n".join(misses + [f"claims: {len(rows) - skipped - len(misses)} ok, "
                              f"{len(misses)} missed, {skipped} need --full"]))
    return 1 if misses else 0


if __name__ == "__main__":  # pragma: no cover
    EXPERIMENTS.write_text(render_document(EXPERIMENTS.read_text()))
