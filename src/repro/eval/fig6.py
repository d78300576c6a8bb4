"""Fig. 6: resources of four PE-array designs, normalized to int8."""

from __future__ import annotations

from repro.eval.claims import FIG6
from repro.eval.reporting import header, render_table
from repro.perf.resources import fig6_designs

__all__ = ["run", "normalized_utilization"]


def normalized_utilization(
    *, include_fp16: bool = False
) -> dict[str, dict[str, float]]:
    designs = fig6_designs(include_fp16=include_fp16)
    base = designs["int8"]
    return {name: r.normalized_to(base) for name, r in designs.items()}


def run(*, include_fp16: bool = True) -> str:
    designs = fig6_designs(include_fp16=include_fp16)
    base = designs["int8"]
    rows = []
    for name, r in designs.items():
        n = r.normalized_to(base)
        rows.append(
            [name, round(r.lut, 0), n["lut"], round(r.ff, 0), n["ff"],
             int(r.dsp), n["dsp"]]
        )
    out = [header("Fig. 6 -- Resource utilization of PE-array designs "
                  "(normalized to int8)")]
    out.append(render_table(
        ["Design", "LUT", "LUT/int8", "FF", "FF/int8", "DSP", "DSP/int8"],
        rows, float_fmt="{:.3f}",
    ))
    out.append("\nPaper claims vs model:")
    out.append(render_table(
        ["Claim", "Paper", "Model"],
        [[c.name, c.reference, c.model()] for c in FIG6],
        float_fmt="{:.2f}",
    ))
    if include_fp16:
        from repro.perf.resources import fp16_dot_extension

        ext = fp16_dot_extension()
        ours, indiv, fp16 = designs["ours"], designs["indiv"], designs["ours+fp16"]
        out.append(
            "\nfp16 dot-product extension (not in the paper; TransDot-style "
            "dual-precision MAC): "
            f"+{ext.lut:.0f} LUT (+{100 * ext.lut / ours.lut:.1f}%), "
            f"+{ext.ff:.0f} FF (+{100 * ext.ff / ours.ff:.1f}%), "
            f"+{ext.dsp:.0f} DSP -- still "
            f"{100 * (1 - fp16.dsp / indiv.dsp):.1f}% fewer DSPs and "
            f"{100 * (1 - fp16.lut / indiv.lut):.1f}% fewer LUTs than the "
            "individual-units design."
        )
    return "\n".join(out)


if __name__ == "__main__":  # pragma: no cover
    print(run())
