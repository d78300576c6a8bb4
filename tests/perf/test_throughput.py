"""Tests for the Eqn 7-10 throughput model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.perf.throughput import (
    DEFAULT_CLOCK,
    ClockConfig,
    bfp_efficiency,
    bfp_peak_ops,
    bfp_throughput_ops,
    fp32_efficiency,
    fp32_peak_flops,
    fp32_throughput_flops,
    paper_headline_fp32_gflops,
    system_bfp_throughput_ops,
    system_fp32_throughput_flops,
)


class TestEqn7:
    def test_peak_76_8_gops(self):
        """8 x 8 x 2 x 2 x 300 MHz = 76.8 GOPS per unit."""
        assert bfp_peak_ops() == pytest.approx(76.8e9)

    def test_scales_with_geometry_and_clock(self):
        cfg = ClockConfig(freq_hz=150e6, rows=4, cols=4)
        assert bfp_peak_ops(cfg) == pytest.approx(4 * 4 * 4 * 150e6)


@pytest.mark.parametrize("freq_hz", [0.0, -300e6, float("nan")])
def test_clock_frequency_must_be_positive(freq_hz):
    # A zero clock would surface as a ZeroDivisionError in the serving
    # summary, long after the config was built.
    with pytest.raises(ConfigurationError, match="frequency"):
        ClockConfig(freq_hz=freq_hz)


class TestEqn9:
    def test_97_15_percent_at_64(self):
        """Paper Section II-D: 97.15% of peak at the 64-block maximum."""
        assert bfp_efficiency(64) == pytest.approx(0.9715, abs=1e-4)

    @given(st.integers(1, 1000))
    def test_efficiency_below_one_and_monotonic(self, n):
        e = bfp_efficiency(n)
        assert 0 < e < 1
        assert bfp_efficiency(n + 1) > e

    def test_invalid_stream(self):
        with pytest.raises(ValueError):
            bfp_efficiency(0)

    def test_throughput_composition(self):
        assert bfp_throughput_ops(64) == pytest.approx(76.8e9 * 0.97153, rel=1e-4)


class TestEqn8And10:
    def test_peak_flops_per_unit(self):
        """4 lanes x 2 FLOPs x 300 MHz = 2.4 GFLOPS per unit."""
        assert fp32_peak_flops() == pytest.approx(2.4e9)

    def test_efficiency(self):
        assert fp32_efficiency(128) == pytest.approx(128 / 136)
        with pytest.raises(ValueError):
            fp32_efficiency(0)

    @given(st.integers(1, 500))
    def test_monotonic(self, L):
        assert fp32_efficiency(L + 1) > fp32_efficiency(L)

    def test_throughput(self):
        assert fp32_throughput_flops(128) == pytest.approx(2.4e9 * 128 / 136)


class TestSystemHeadlines:
    def test_fp32_33_88_gflops(self):
        """The paper's 33.88 GFLOPS theoretical figure (15 units, L=128)."""
        assert paper_headline_fp32_gflops() == pytest.approx(33.88, abs=0.01)
        assert system_fp32_throughput_flops(128) == pytest.approx(33.88e9, rel=1e-3)

    def test_bfp_system_ceiling(self):
        """15 units x Eqn-9 at N_X = 64 ~ 1.119 TOPS (the reconcilable
        ceiling; the paper's 2.052 TOPS exceeds it, see EXPERIMENTS.md)."""
        assert system_bfp_throughput_ops(64) == pytest.approx(1.119e12, rel=1e-3)
        assert system_bfp_throughput_ops(64) < 2.052e12

    def test_clock_default(self):
        assert DEFAULT_CLOCK.n_units == 15
        assert DEFAULT_CLOCK.freq_hz == 300e6
