"""Trans-precision unit-mode bench: fp16 dot-product vs the legacy routes.

Headline numbers for the unit-mode registry (:mod:`repro.cost.modes`):
the cycle cost of an fp16 decode schedule on the ``fp16_dot`` array
personality against the fp32 vector cliff it replaces and the bfp8
baseline it approaches, plus the measured shift-aware alignment savings.
All cycle numbers are deterministic (cycle model, not wall clock); the
claims ledger (:mod:`repro.eval.claims`) pins the fp16_dot speedup, its
tokens/s and the alignment savings, computed with the same helpers.
"""

from repro.cost.modes import ModeOptions, get_mode
from repro.eval.claims import measured_narrow_frac, unit_cycles
from repro.perf.resources import fp16_dot_extension
from repro.perf.throughput import DEFAULT_CLOCK


def test_unit_modes_report(benchmark, save_report, bench_artifact):
    cycles = {
        "bfp8_mac": unit_cycles("decode", "bfp8-mixed"),
        "fp16_vector": unit_cycles("decode", "fp16-linear"),
        "fp16_dot": benchmark(unit_cycles, "decode", "fp16-linear",
                              ModeOptions.parse("fp16")),
    }
    freq = DEFAULT_CLOCK.freq_hz
    tokens_per_s = {k: freq / v for k, v in cycles.items()}

    narrow_frac = measured_narrow_frac()
    align_base = unit_cycles("prefill", "bfp8-mixed")
    align_pred = unit_cycles(
        "prefill", "bfp8-mixed", ModeOptions(align_narrow_frac=narrow_frac))

    ext = fp16_dot_extension()
    summary = {
        "decode_cycles_per_token": cycles,
        "tokens_per_s": tokens_per_s,
        "fp16_dot_speedup_vs_vector": cycles["fp16_vector"] / cycles["fp16_dot"],
        "fp16_dot_vs_bfp8_cycles_ratio": cycles["fp16_dot"] / cycles["bfp8_mac"],
        "alignment": {
            "measured_narrow_frac": narrow_frac,
            "prefill_cycles_base": align_base,
            "prefill_cycles_predicted": align_pred,
            "savings_frac": 1.0 - align_pred / align_base,
        },
        "fp16_extension_resources": {
            "lut": ext.lut, "ff": ext.ff, "dsp": ext.dsp, "bram": ext.bram,
        },
    }

    lines = [
        "Trans-precision unit modes (decode, TinyLM-shaped decoder, batch 8)",
        "",
        f"{'route':<24}{'cycles/token':>14}{'tokens/s/unit':>16}",
    ]
    for key, label in (
        ("bfp8_mac", "bfp8 on MAC array"),
        ("fp16_dot", "fp16 on fp16_dot"),
        ("fp16_vector", "fp16 on vector (old)"),
    ):
        lines.append(f"{label:<24}{cycles[key]:>14,}{tokens_per_s[key]:>16.1f}")
    lines += [
        "",
        f"fp16_dot speedup over the vector cliff: "
        f"{summary['fp16_dot_speedup_vs_vector']:.2f}x "
        f"(reconfig {get_mode('fp16_dot').reconfig_cycles} cycles per entry)",
        f"fp16 extension cost: +{ext.lut:.0f} LUT / +{ext.ff:.0f} FF / "
        f"+{ext.dsp:.0f} DSP (dual fp16 products per DSP48E2)",
        f"shift-aware alignment: measured narrow_frac {narrow_frac:.3f} "
        f"saves {100 * summary['alignment']['savings_frac']:.2f}% of "
        "prefill cycles",
    ]
    save_report("unit_modes", "\n".join(lines))
    bench_artifact("unit_modes", summary, seed=0)

    assert cycles["fp16_dot"] < cycles["fp16_vector"]
    assert align_pred <= align_base
