"""Tests for the resource model: Table II exactness and Fig. 6 claims."""

import pytest

from repro.eval.table2 import PAPER_TABLE2
from repro.perf.resources import (
    Resources,
    design_bfp8_only,
    design_individual,
    design_int8,
    design_multimode,
    fig6_designs,
    pe_array,
    processing_unit_total,
    shifter_acc,
    table2_breakdown,
)


class TestTable2:
    def test_component_rows_exact(self):
        """Every paper row the model keeps whole (it splits the merged
        memory-interface + controller row in two)."""
        got = table2_breakdown()
        assert len(got) == 8
        for name, (lut, ff, bram, dsp) in PAPER_TABLE2.items():
            if name not in got:
                continue
            r = got[name]
            assert r.lut == pytest.approx(lut), name
            assert r.ff == pytest.approx(ff), name
            assert r.bram == pytest.approx(bram), name
            assert r.dsp == pytest.approx(dsp), name

    def test_totals_exact(self):
        total = processing_unit_total()
        assert total.lut == pytest.approx(7348)
        assert total.ff == pytest.approx(10329)
        assert total.bram == pytest.approx(57.5)
        assert total.dsp == pytest.approx(72)

    def test_overhead_module_fractions(self):
        """Section III-A: overhead modules are 10.23% LUT / 11.77% FF."""
        b = table2_breakdown()
        total = processing_unit_total()
        lut_pct = 100 * b["Buffer & Layout Converter"].lut / total.lut
        ff_pct = 100 * (b["Buffer & Layout Converter"].ff + b["Controller"].ff) / total.ff
        assert lut_pct == pytest.approx(10.23, abs=0.02)
        assert ff_pct == pytest.approx(11.77, abs=0.02)

    def test_bram_layout_structure(self):
        """50 BRAMs = X (2c+1 = 17) + Y (4c+1 = 33) at 8 columns."""
        r = table2_breakdown()["Buffer & Layout Converter"]
        assert r.bram == 17 + 33


class TestFig6:
    def test_dsp_counts(self):
        d = fig6_designs()
        assert d["int8"].dsp == d["bfp8"].dsp == d["ours"].dsp == 72
        assert d["indiv"].dsp == 90

    def test_bfp8_ff_ratio(self):
        d = fig6_designs()
        assert d["bfp8"].ff / d["int8"].ff == pytest.approx(1.19, abs=0.01)

    def test_multimode_lut_only_overhead(self):
        d = fig6_designs()
        assert d["ours"].ff == d["bfp8"].ff
        assert d["ours"].dsp == d["bfp8"].dsp
        assert d["ours"].lut > d["bfp8"].lut

    def test_pe_array_lut_ratio(self):
        """Multi-mode PE array LUTs ~2.94x the pure bfp8 array's."""
        ratio = pe_array(multimode=True).lut / pe_array(multimode=False).lut
        assert ratio == pytest.approx(2.94, abs=0.01)

    def test_savings_vs_individual(self):
        d = fig6_designs()
        dsp_save = 100 * (1 - d["ours"].dsp / d["indiv"].dsp)
        ff_save = 100 * (1 - d["ours"].ff / d["indiv"].ff)
        lut_save = 100 * (1 - d["ours"].lut / d["indiv"].lut)
        assert dsp_save == pytest.approx(20.0, abs=0.1)
        assert ff_save == pytest.approx(61.2, abs=0.1)
        assert lut_save == pytest.approx(43.6, abs=0.1)

    def test_ordering(self):
        d = fig6_designs()
        assert d["int8"].lut < d["bfp8"].lut < d["ours"].lut < d["indiv"].lut


class TestScaling:
    @pytest.mark.parametrize("factory", [
        design_int8, design_bfp8_only, design_multimode, design_individual,
    ])
    def test_monotonic_in_array_size(self, factory):
        small, big = factory(4, 4), factory(16, 16)
        assert small.lut < big.lut
        assert small.ff < big.ff
        assert small.dsp < big.dsp

    def test_dsp_scales_with_pes(self):
        assert pe_array(4, 4).dsp == 16
        assert pe_array(16, 16).dsp == 256

    def test_shifter_width_scaling(self):
        assert shifter_acc(8, width=24).lut < shifter_acc(8, width=48).lut


class TestResourcesAlgebra:
    def test_add(self):
        a = Resources(1, 2, 3, 4) + Resources(10, 20, 30, 40)
        assert (a.lut, a.ff, a.bram, a.dsp) == (11, 22, 33, 44)

    def test_scaled(self):
        s = Resources(2, 4, 6, 8).scaled(0.5)
        assert (s.lut, s.ff, s.bram, s.dsp) == (1, 2, 3, 4)

    def test_normalized_handles_zero_base(self):
        n = Resources(1, 1, 1, 1).normalized_to(Resources(2, 2, 0, 2))
        assert n["bram"] == 0.0

    def test_as_dict(self):
        assert Resources(1, 2, 3, 4).as_dict() == {
            "lut": 1, "ff": 2, "bram": 3, "dsp": 4
        }
