"""NumericsMonitor: value-domain quantization health accumulation."""

import numpy as np
import pytest

from repro.formats.blocking import BfpMatrix
from repro.formats.int8q import quantize_intn, quantize_intn_sliced
from repro.obs.metrics import MetricsRegistry
from repro.obs.numerics import (
    NULL_MONITOR,
    NumericsMonitor,
    get_monitor,
    set_monitor,
)
from repro.obs.tracer import Tracer


@pytest.fixture
def monitor():
    return NumericsMonitor()


def _observe_int(mon, x, *, role="activation", bits=8):
    q = quantize_intn(x, bits)
    mon.observe_int(role, x, q, bits=bits)
    return q


# -- disabled path -------------------------------------------------------
def test_null_monitor_is_disabled_and_records_nothing(rng):
    assert NULL_MONITOR.enabled is False
    x = rng.normal(size=(8, 8))
    NULL_MONITOR.observe_int("activation", x, quantize_intn(x, 8))
    NULL_MONITOR.observe_bfp(
        "weight", x, BfpMatrix.from_dense(x), man_bits=8
    )
    assert NULL_MONITOR.stats == {}


def test_get_set_monitor_roundtrip(monitor):
    assert get_monitor() is NULL_MONITOR
    prev = set_monitor(monitor)
    try:
        assert get_monitor() is monitor
    finally:
        set_monitor(prev)
    assert get_monitor() is NULL_MONITOR


# -- scoping -------------------------------------------------------------
def test_scope_nesting_builds_dotted_layer_names(monitor, rng):
    x = rng.normal(size=(4, 4))
    with monitor.scope("block0"):
        with monitor.scope("attn"):
            _observe_int(monitor, x)
        _observe_int(monitor, x)
    _observe_int(monitor, x)
    layers = sorted(k[0] for k in monitor.stats)
    assert layers == ["<root>", "block0", "block0.attn"]


# -- integer observation -------------------------------------------------
def test_int_saturation_counts_max_code(monitor):
    # The calibration maximum always lands exactly on the clip bound.
    x = np.array([[1.0, 0.5], [-0.25, 0.1]])
    _observe_int(monitor, x)
    st = monitor.stats[("<root>", "int8", "activation")]
    assert st.saturated == 1
    assert st.elements == 4
    assert st.code_bits == 7


def test_int_underflow_counts_nonzero_flushed_to_zero(monitor):
    # A huge outlier forces a coarse scale: the tiny value rounds to 0.
    x = np.array([1e6, 1e-6, 0.0])
    _observe_int(monitor, x)
    st = monitor.stats[("<root>", "int8", "activation")]
    assert st.underflow == 1  # 1e-6 flushed; the exact 0.0 is not underflow
    assert st.nonzero == 1


def test_streaming_sqnr_accumulates_across_observations(monitor, rng):
    a = rng.normal(size=(16, 16))
    b = rng.normal(size=(16, 16)) * 3.0
    qa = _observe_int(monitor, a)
    qb = _observe_int(monitor, b)
    st = monitor.stats[("<root>", "int8", "activation")]
    ref = float((a**2).sum() + (b**2).sum())
    err = float(
        ((a - qa.decode()) ** 2).sum() + ((b - qb.decode()) ** 2).sum()
    )
    assert st.sum_ref_sq == pytest.approx(ref)
    assert st.sum_err_sq == pytest.approx(err)
    assert st.sqnr_db() == pytest.approx(10 * np.log10(ref / err))
    assert st.tensors == 2


def test_sqnr_none_when_exact(monitor):
    # Integer values on the grid quantize exactly: no error energy.
    x = np.array([127.0, -64.0, 1.0])
    _observe_int(monitor, x)
    st = monitor.stats[("<root>", "int8", "activation")]
    assert st.sum_err_sq == 0.0
    assert st.sqnr_db() is None
    assert st.snapshot()["sqnr_db"] is None


def test_observe_int_sliced_matches_per_slice(monitor, rng):
    x = rng.normal(size=(3, 4, 5))
    values, scales = quantize_intn_sliced(x, 8)
    monitor.observe_int_sliced("kv", x, values, scales, bits=8)
    st = monitor.stats[("<root>", "int8", "kv")]
    assert st.tensors == 3
    assert st.elements == x.size
    # Each slice's calibration max sits on the clip bound.
    assert st.saturated >= 3
    assert st.blocks == 3  # one scale per slice


# -- block-fp observation ------------------------------------------------
def test_observe_bfp_counts_and_exponent_hist(monitor, rng):
    x = rng.normal(size=(16, 16))
    bm = BfpMatrix.from_dense(x, man_bits=8)
    monitor.observe_bfp("weight", x, bm, man_bits=8)
    st = monitor.stats[("<root>", "bfp8", "weight")]
    assert st.elements == 256
    assert st.blocks == 4  # 16x16 = 2x2 grid of 8x8 blocks
    assert st.zero_blocks == 0
    assert sum(st.exp_hist.values()) == 4
    snap = st.snapshot()
    assert 0.0 < snap["mantissa_utilization"] <= 1.0
    assert snap["sqnr_db"] > 30.0  # bfp8 on gaussian data


def test_observe_bfp_excludes_zero_blocks_from_exponent_stats(monitor, rng):
    x = np.zeros((16, 8))
    x[:8] = rng.normal(size=(8, 8))
    bm = BfpMatrix.from_dense(x, man_bits=8)
    monitor.observe_bfp("weight", x, bm, man_bits=8)
    st = monitor.stats[("<root>", "bfp8", "weight")]
    assert st.blocks == 2
    assert st.zero_blocks == 1
    # The all-zero block's artificial minimum exponent stays out of the
    # histogram and out of the spread.
    assert sum(st.exp_hist.values()) == 1
    assert st.exp_spread_max == 0
    assert st.snapshot()["nonzero_block_fraction"] == 0.5


def test_observe_bfp_outlier_block_widens_spread(monitor, rng):
    x = rng.normal(size=(8, 16))
    x[:, 8:] *= 2.0**6  # second block exponent ~6 above the first
    bm = BfpMatrix.from_dense(x, man_bits=8)
    monitor.observe_bfp("activation", x, bm, man_bits=8)
    st = monitor.stats[("<root>", "bfp8", "activation")]
    assert st.exp_spread_max >= 5
    assert st.tensors == 1


def test_observe_bfp_tiles_batched_counts_slices(monitor, rng):
    from repro.arith.bfp_matmul import (
        bfp_batched_tiles,
        resident_grid,
        stream_grid,
    )

    a = rng.normal(size=(3, 8, 16))
    b = rng.normal(size=(3, 16, 8))
    a_man, a_exp, b_man, b_exp, m, n = bfp_batched_tiles(a, b, man_bits=8)
    monitor.observe_bfp_tiles(
        "activation", a, *stream_grid(a_man, a_exp), man_bits=8
    )
    monitor.observe_bfp_tiles("kv", b, *resident_grid(b_man, b_exp), man_bits=8)
    sa = monitor.stats[("<root>", "bfp8", "activation")]
    sk = monitor.stats[("<root>", "bfp8", "kv")]
    assert sa.tensors == 3 and sk.tensors == 3
    assert sa.elements == a.size and sk.elements == b.size
    assert sa.sqnr_db() > 30.0 and sk.sqnr_db() > 30.0


def test_observe_bfp_padding_excluded(monitor, rng):
    # 5x10 source pads to 8x16 tiles; only the 50 real elements count.
    x = rng.normal(size=(5, 10))
    bm = BfpMatrix.from_dense(x, man_bits=8)
    monitor.observe_bfp("weight", x, bm, man_bits=8)
    st = monitor.stats[("<root>", "bfp8", "weight")]
    assert st.elements == 50


# -- export --------------------------------------------------------------
def test_as_dict_and_totals(monitor, rng):
    with monitor.scope("l1"):
        _observe_int(monitor, rng.normal(size=(8, 8)))
    with monitor.scope("l0"):
        _observe_int(monitor, rng.normal(size=(8, 8)))
    doc = monitor.as_dict()
    assert [e["layer"] for e in doc["entries"]] == ["l0", "l1"]  # sorted
    totals = monitor.totals()
    assert totals["int8"]["elements"] == 128
    assert totals["int8"]["sqnr_db"] > 20.0


def test_publish_writes_counters_and_gauges(monitor, rng):
    with monitor.scope("l0"):
        _observe_int(monitor, rng.normal(size=(8, 8)))
    reg = MetricsRegistry()
    monitor.publish(reg)
    doc = reg.as_dict()
    assert doc["counters"]["numerics.int8.activation.elements"] == 64
    assert "numerics.int8.saturation_rate" in doc["gauges"]
    assert "numerics.layer.l0.int8.activation.sqnr_db" in doc["gauges"]


def test_publish_disabled_registry_is_noop(monitor, rng):
    _observe_int(monitor, rng.normal(size=(4, 4)))
    reg = MetricsRegistry(enabled=False)
    monitor.publish(reg)  # must not raise or create instruments
    assert reg.as_dict() == {"counters": {}, "gauges": {}, "histograms": {}}


def test_annotate_tracer_emits_numerics_spans(monitor, rng):
    with monitor.scope("l0"):
        _observe_int(monitor, rng.normal(size=(8, 8)))
    tracer = Tracer()
    monitor.annotate_tracer(tracer)
    spans = [s for s in tracer.spans if s.cat == "numerics"]
    assert len(spans) == 1
    assert spans[0].name == "l0/int8/activation"
    assert "saturation_rate" in dict(spans[0].args)
    assert spans[0].start == spans[0].end == 0


def test_reset_clears_stats(monitor, rng):
    _observe_int(monitor, rng.normal(size=(4, 4)))
    monitor.reset()
    assert monitor.stats == {}
