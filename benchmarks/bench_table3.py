"""Table III bench: related-work comparison with the modeled system row."""

from repro.eval import table3
from repro.perf.related_work import ours_entry, table3_rows


def test_table3_report(benchmark, save_report, bench_artifact):
    out = benchmark(table3.run)
    save_report("table3_related_work", out)
    e = ours_entry()
    bench_artifact("table3_related_work", {
        "throughput_gops": e.throughput_gops,
        "efficiency_gops_per_dsp": e.efficiency_gops_per_dsp,
    })


def test_ours_efficiency(benchmark):
    e = benchmark(ours_entry)
    # GOPS/DSP efficiency in the same band as the paper's 0.95.
    assert 0.5 < e.efficiency_gops_per_dsp < 1.2


def test_paper_row_leads_transformer_throughput(benchmark):
    rows = benchmark(table3_rows)
    transformer = [r for r in rows if r.application == "Transformer"
                   and r.work != "Ours (model)"]
    best = max(transformer, key=lambda r: r.throughput_gops)
    assert best.work == "Ours (paper)"
