"""Profiler: scope attribution and cycle costing of backend primitives."""

import numpy as np

from repro.models.backend import get_backend
from repro.models.decoder import TinyLM
from repro.obs.profile import (
    Profiler,
    fp32_elementwise_cycles,
    mode_matmul_unit_cycles,
    nonlinear_op_counts,
)
from repro.perf.latency import measured_bfp_stream_cycles
from repro.runtime.compiler import plan_matmul


def test_bfp_matmul_cycles_match_plan():
    plan = plan_matmul(64, 64, 64)
    expected = plan.streams * measured_bfp_stream_cycles(plan.stream_len)
    assert mode_matmul_unit_cycles(64, 64, 64, "bfp8_mac") == expected


def test_fp32_elementwise_cycles():
    assert fp32_elementwise_cycles(0) == 0
    one = fp32_elementwise_cycles(1)
    assert one > 0
    assert fp32_elementwise_cycles(512) == one  # one full stream
    assert fp32_elementwise_cycles(513) == 2 * one


def test_nonlinear_op_counts_known_and_unknown():
    fpu, host = nonlinear_op_counts("softmax")
    assert fpu > 0 and host > 0  # softmax has the division escape
    assert nonlinear_op_counts("no-such-fn") == (2, 0)


def test_scope_nesting_and_attribution():
    p = Profiler()
    with p.scope("block0"):
        with p.scope("attn"):
            p.record_matmul(8, 16, 16, precision="bfp8", mode="bfp8_mac")
        p.record_nonlinear("softmax", 64, precision="fp32")
    assert p.current_scope == "<root>"
    scopes = {k[0] for k in p.entries}
    assert scopes == {"block0.attn", "block0"}
    by_prec = p.by_precision()
    assert set(by_prec) == {"bfp8", "fp32"}
    assert by_prec["fp32"]["host_ops"] > 0
    # Layer view folds nested scopes into their top component.
    assert set(p.by_scope(depth=1)) == {"block0"}


def test_fp32_matmul_charged_through_vector_unit():
    """No array mapping for fp32: far more cycles than the bfp8 array."""
    p = Profiler()
    p.record_matmul(32, 32, 32, precision="fp32", mode="fp32_vector")
    p.record_matmul(32, 32, 32, precision="bfp8", mode="bfp8_mac")
    fp32 = next(e for (_, prec, _), e in p.entries.items() if prec == "fp32")
    bfp = next(e for (_, prec, _), e in p.entries.items() if prec == "bfp8")
    assert fp32.cycles > 10 * bfp.cycles


def test_as_dict_rows_sorted_by_cycles():
    p = Profiler()
    p.record_matmul(64, 64, 64, precision="bfp8", mode="bfp8_mac")
    with p.scope("small"):
        p.record_matmul(8, 8, 8, precision="bfp8", mode="bfp8_mac")
    doc = p.as_dict()
    cycles = [r["cycles"] for r in doc["entries"]]
    assert cycles == sorted(cycles, reverse=True)
    assert abs(sum(r["cycles_pct"] for r in doc["entries"]) - 100.0) < 1e-9
    assert doc["total_cycles"] == sum(cycles)
    assert "scope" in p.table()  # renders


def test_backend_integration_attributes_model_layers():
    be = get_backend("bfp8-mixed")
    be.profiler = Profiler()
    lm = TinyLM(vocab=8, seq_len=8, dim=16, depth=2, n_heads=2, seed=0)
    tokens = np.arange(8).reshape(1, 8) % 8
    lm.forward(tokens, be)
    scopes = {k[0] for k in be.profiler.entries}
    assert {"block0.attn", "block0.mlp", "block1.attn", "block1.mlp",
            "final_norm", "head"} <= scopes
    by_prec = be.profiler.by_precision()
    assert set(by_prec) == {"bfp8", "fp32"}  # the paper's mixed regime
    assert be.profiler.total_cycles() > 0


def test_unprofiled_backend_records_nothing():
    be = get_backend("bfp8-mixed")
    lm = TinyLM(vocab=8, seq_len=8, dim=16, depth=1, n_heads=2, seed=0)
    with be.scope("x"):  # nullcontext
        lm.forward(np.zeros((1, 4), dtype=int), be)
    assert be.profiler is None
