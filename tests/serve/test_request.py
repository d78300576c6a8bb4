"""Tests for typed requests and the seeded workload generator."""

import pytest

from repro.errors import ConfigurationError
from repro.serve.request import (
    PhaseItem,
    Request,
    TrafficConfig,
    diurnal_trace,
    poisson_trace,
    trace_from_rows,
)


class TestRequest:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Request(0, "audio", 10)
        with pytest.raises(ConfigurationError):
            Request(0, "vit", -1)
        with pytest.raises(ConfigurationError):
            Request(0, "llm", 10)  # missing prompt/gen tokens

    def test_phase_item_validation(self):
        r = Request(0, "vit", 0)
        with pytest.raises(ConfigurationError):
            PhaseItem(r, "train", ready=0)


class TestTrafficConfig:
    @pytest.mark.parametrize("field, bounds", [
        ("prompt_tokens", (10, 5)),  # empty range: lo > hi
        ("prompt_tokens", (0, 8)),
        ("gen_tokens", (0, 4)),  # a drawn 0 would fail mid-trace
        ("gen_tokens", (-2, -1)),
    ])
    def test_token_ranges_validated_up_front(self, field, bounds):
        with pytest.raises(ConfigurationError, match=field):
            TrafficConfig(**{field: bounds})

    def test_single_value_ranges_allowed(self):
        cfg = TrafficConfig(prompt_tokens=(1, 1), gen_tokens=(7, 7))
        for r in poisson_trace(20, cfg, seed=0):
            if r.kind == "llm":
                assert (r.prompt_tokens, r.gen_tokens) == (1, 7)


@pytest.mark.parametrize("generate", [poisson_trace, diurnal_trace])
def test_empty_user_pool_rejected(generate):
    # An empty pool would reach NumPy's integers(0, 0) mid-trace.
    for n_users in (0, -3):
        with pytest.raises(ConfigurationError, match="at least one user"):
            generate(10, seed=0, n_users=n_users)
    assert {r.user for r in generate(10, seed=0, n_users=1)} == {0}


class TestPoissonTrace:
    def test_seeded_reproducible(self):
        a = poisson_trace(200, seed=7)
        b = poisson_trace(200, seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        assert poisson_trace(50, seed=0) != poisson_trace(50, seed=1)

    def test_arrivals_monotonic_and_rate(self):
        cfg = TrafficConfig(rate_rps=1000.0)
        trace = poisson_trace(2000, cfg, seed=0)
        arrivals = [r.arrival for r in trace]
        assert arrivals == sorted(arrivals)
        assert len(set(arrivals)) == len(arrivals)  # strictly increasing
        # Mean inter-arrival gap within 10% of 1/rate.
        span_s = (arrivals[-1] - arrivals[0]) / 300e6
        achieved = (len(trace) - 1) / span_s
        assert achieved == pytest.approx(cfg.rate_rps, rel=0.1)

    def test_kind_mix(self):
        trace = poisson_trace(1000, TrafficConfig(vit_fraction=0.25), seed=3)
        vit = sum(r.kind == "vit" for r in trace)
        assert 0.18 < vit / len(trace) < 0.32
        for r in trace:
            if r.kind == "llm":
                assert 8 <= r.prompt_tokens <= 64
                assert 4 <= r.gen_tokens <= 32
                assert r.deadline > r.arrival

    def test_vit_only_and_llm_only(self):
        assert all(r.kind == "vit"
                   for r in poisson_trace(50, TrafficConfig(vit_fraction=1.0), seed=0))
        assert all(r.kind == "llm"
                   for r in poisson_trace(50, TrafficConfig(vit_fraction=0.0), seed=0))


class TestTraceFromRows:
    def test_sorts_and_renumbers(self):
        rows = [
            {"kind": "llm", "arrival": 500, "prompt_tokens": 4, "gen_tokens": 2},
            {"kind": "vit", "arrival": 100},
        ]
        trace = trace_from_rows(rows)
        assert [r.kind for r in trace] == ["vit", "llm"]
        assert [r.rid for r in trace] == [0, 1]
        assert trace[1].prompt_tokens == 4
