"""Tests for the multi-unit system scheduler."""

import pytest

from repro.errors import ConfigurationError
from repro.hw.system import Job, MultiUnitSystem
from repro.perf.latency import measured_bfp_stream_cycles
from repro.perf.throughput import ClockConfig


class TestJob:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Job("bad", "bfp8", 0, 1.0)
        with pytest.raises(ConfigurationError):
            Job("bad", "int4", 10, 1.0)


class TestScheduling:
    def test_single_job(self):
        sys = MultiUnitSystem()
        rep = sys.schedule([Job("a", "bfp8", 100, 1000.0)])
        assert rep.makespan_cycles == 100
        assert sum(len(t.jobs) for t in rep.timelines) == 1

    def test_perfectly_parallel(self):
        sys = MultiUnitSystem(clock=ClockConfig(n_units=4))
        jobs = [Job(f"j{i}", "bfp8", 50, 10.0) for i in range(4)]
        rep = sys.schedule(jobs)
        assert rep.makespan_cycles == 50
        assert rep.utilization() == pytest.approx(1.0)

    def test_imbalanced_longest_first(self):
        """LPT list scheduling packs around the long job."""
        sys = MultiUnitSystem(clock=ClockConfig(n_units=2))
        jobs = [Job("long", "bfp8", 100, 1.0)] + [
            Job(f"s{i}", "bfp8", 25, 1.0) for i in range(4)
        ]
        rep = sys.schedule(jobs)
        assert rep.makespan_cycles == 100  # 100 || (25*4)

    def test_more_jobs_than_units(self):
        sys = MultiUnitSystem(clock=ClockConfig(n_units=3))
        rep = sys.schedule([Job(f"j{i}", "fp32", 10, 2.0) for i in range(9)])
        assert rep.makespan_cycles == 30
        assert all(t.busy_cycles == 30 for t in rep.timelines)

    def test_throughput_accounting(self):
        sys = MultiUnitSystem(clock=ClockConfig(n_units=1, freq_hz=1e6))
        rep = sys.schedule([Job("a", "bfp8", 1000, 5000.0)])
        # 5000 ops in 1000 cycles at 1 MHz -> 5 Mops/s
        assert rep.throughput_ops("bfp8") == pytest.approx(5e6)
        assert rep.throughput_ops("fp32") == 0.0

    def test_empty_schedule(self):
        rep = MultiUnitSystem().schedule([])
        assert rep.makespan_cycles == 0
        assert rep.utilization() == 0.0


class TestJobBuilders:
    def test_system_scales_with_units(self):
        cycles = measured_bfp_stream_cycles(64)
        jobs15 = [Job(f"j{i}", "bfp8", cycles, 2.0 * 2 * 64 * 512) for i in range(60)]
        r15 = MultiUnitSystem(clock=ClockConfig(n_units=15)).schedule(jobs15)
        r1 = MultiUnitSystem(clock=ClockConfig(n_units=1)).schedule(jobs15)
        assert r15.makespan_cycles * 10 < r1.makespan_cycles
