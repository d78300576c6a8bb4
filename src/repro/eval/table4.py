"""Table IV: linear vs non-linear workload and latency split for DeiT-Small."""

from __future__ import annotations

from repro.eval.reporting import header, render_table
from repro.models.configs import DEIT_SMALL, ViTConfig
from repro.models.ops_count import (
    PAPER_TABLE4_LATENCY_MS,
    PAPER_TABLE4_OPS,
    table4_partitions,
)
from repro.perf.latency import deit_latency_split
from repro.perf.related_work import PAPER_OURS

__all__ = ["run", "reproduce_paper_table", "analytic_table"]


def _render(report, title: str) -> str:
    rows = []
    for r in report.proportions():
        rows.append([
            r["name"],
            f"{r['ops'] / 1e6:.2f}M",
            f"{r['ops_pct']:.3f}%",
            f"{r['latency_s'] * 1e3:.3f}",
            f"{r['latency_pct']:.3f}%",
        ])
    table = render_table(
        ["Workload", "OPs/FLOPs", "Ops %", "Latency (ms)", "Latency %"], rows,
        title=title,
    )
    share = 100 * report.fp32_latency_share()
    return f"{table}\nfp32 share of latency: {share:.2f}%"


def reproduce_paper_table(cfg: ViTConfig = DEIT_SMALL):
    """Paper op counts + paper effective rates (2052 GOPS / 15 GFLOPS)."""
    return deit_latency_split(
        table4_partitions(cfg, use_paper_counts=True),
        bfp_system_ops=PAPER_OURS.throughput_gops * 1e9,
        fp32_system_flops=15.0e9,
    )


def analytic_table(cfg: ViTConfig = DEIT_SMALL):
    """Our analytic op counts + our measured-throughput model rates."""
    return deit_latency_split(table4_partitions(cfg))


def run() -> str:
    out = [header("Table IV -- Linear/non-linear workload split, DeiT-Small")]
    out.append(_render(
        reproduce_paper_table(),
        "(a) Paper op counts at the paper's effective rates "
        "(2052.06 GOPS bfp8 / 15.0 GFLOPS fp32)",
    ))
    out.append("")
    out.append(_render(
        analytic_table(),
        "(b) Analytic op counts (this reproduction) at the modeled "
        "measured system rates",
    ))
    out.append("\nPaper-reported latency (ms) for reference: "
               + ", ".join(f"{k}={v}" for k, v in PAPER_TABLE4_LATENCY_MS.items()))
    out.append("Paper-reported op counts: "
               + ", ".join(f"{k}={v / 1e6:.1f}M" for k, v in PAPER_TABLE4_OPS.items()))
    return "\n".join(out)


if __name__ == "__main__":  # pragma: no cover
    print(run())
