"""Shift-aware aligned-width prediction: sound, loss-free, observable.

The predictor (:func:`repro.hw.exponent_unit.predict_aligned_bound`
semantics, vectorized inside the integer ``_emulate_blocks`` by the
:class:`~repro.arith.bfp_matmul.AlignmentProbe`) must *never*
under-predict — that soundness is what licenses the cost model to skip
the upper barrel-shifter stage on predicted-narrow steps.  And since the
probe only observes, a probed run must be bit-identical to an unprobed
one: the loss-free claim is checked by the machine, not argued.
"""

import numpy as np
import pytest

from repro.arith.bfp_matmul import (
    AlignmentProbe,
    bfp_batched_tiles,
    bfp_matmul_emulate,
    bfp_matmul_from_tiles,
    get_alignment_probe,
    set_alignment_probe,
)
from repro.arith.fp_align_add import (
    GUARD_BITS,
    aligned_add,
    alignment_narrow_fraction,
)
from repro.errors import HardwareContractError
from repro.hw.exponent_unit import predict_aligned_bound
from repro.hw.shifter import NARROW_ALIGN_BITS, alignment_shift_cycles
from repro.obs.metrics import MetricsRegistry
from repro.obs.numerics import NULL_MONITOR, NumericsMonitor


@pytest.fixture
def probe():
    p = AlignmentProbe()
    prev = set_alignment_probe(p)
    yield p
    set_alignment_probe(prev)


def _adversarial_matrices(rng, m, k, n):
    """Operand pairs chosen to stress every alignment regime."""
    smooth = rng.standard_normal((m, k)), rng.standard_normal((k, n))
    # Huge per-element exponent spread: large truncating shifts.
    spread = (
        rng.standard_normal((m, k)) * np.exp2(rng.integers(-30, 31, (m, k))),
        rng.standard_normal((k, n)) * np.exp2(rng.integers(-30, 31, (k, n))),
    )
    # Alternating huge/tiny K blocks: the running PSU exponent flips
    # between keeping and shifting on successive accumulate steps.
    scale = np.exp2(40.0 * (np.arange(k) % 2))
    seesaw = rng.standard_normal((m, k)) * scale, rng.standard_normal((k, n))
    # Near-cancellation: sums much smaller than their partial products.
    x = rng.standard_normal((m, k))
    cancel = np.concatenate([x, -x], axis=1), rng.standard_normal((2 * k, n))
    return [smooth, spread, seesaw, cancel]


def test_probe_never_under_predicts_and_is_loss_free(probe):
    rng = np.random.default_rng(0)
    for a, b in _adversarial_matrices(rng, 24, 48, 16):
        set_alignment_probe(None)
        want = bfp_matmul_emulate(a, b)
        set_alignment_probe(probe)
        got = bfp_matmul_emulate(a, b)
        assert np.array_equal(want, got), "the probe must only observe"
    assert probe.steps > 0
    assert probe.under_predictions == 0
    assert 0.0 <= probe.narrow_frac <= 1.0
    # Soundness materialized: the bound's width covers the widest
    # mantissa any PSU actually held.
    assert probe.max_predicted_width >= probe.max_actual_width


def test_probe_counts_one_observation_per_accumulate_step(probe):
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((16, 64)), rng.standard_normal((64, 24))
    bfp_matmul_emulate(a, b)
    # (Kb - 1) alignment steps per (row block, col block) PSU:
    # 64/8 = 8 K blocks, 16/8 = 2 row blocks, 24/8 = 3 col blocks.
    assert probe.steps == 7 * 2 * 3


def test_probe_covers_batched_path(probe):
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 16, 32)) * np.exp2(
        rng.integers(-20, 21, (4, 16, 32)))
    b = rng.standard_normal((4, 32, 16))
    set_alignment_probe(None)
    want = bfp_matmul_from_tiles(*bfp_batched_tiles(a, b))
    set_alignment_probe(probe)
    got = bfp_matmul_from_tiles(*bfp_batched_tiles(a, b))
    assert np.array_equal(want, got)
    assert probe.steps == 3 * 2 * 2 * 4 and probe.under_predictions == 0


def test_set_alignment_probe_returns_previous():
    assert get_alignment_probe() is None
    first = AlignmentProbe()
    assert set_alignment_probe(first) is None
    second = AlignmentProbe()
    assert set_alignment_probe(second) is first
    assert get_alignment_probe() is second
    assert set_alignment_probe(None) is second
    assert get_alignment_probe() is None


def test_probe_narrow_threshold_counts():
    p = AlignmentProbe(narrow_bits=8)
    p.observe(np.array([255, 256, 300]), np.array([100, 200, 299]))
    assert p.steps == 3 and p.narrow_steps == 1
    assert p.under_predictions == 0
    assert p.max_predicted_width == 9  # 300 needs 9 bits
    assert p.max_actual_width == 9
    p.observe(np.array([100]), np.array([101]))  # an under-prediction
    assert p.under_predictions == 1
    assert p.as_dict()["narrow_frac"] == pytest.approx(2 / 4)


# ---------------------------------------------------------------------------
# The exponent-unit bound primitive
# ---------------------------------------------------------------------------

def test_predict_aligned_bound_is_sound_pointwise():
    rng = np.random.default_rng(3)
    for _ in range(2000):
        va = int(rng.integers(-(2**40), 2**40))
        vb = int(rng.integers(-(2**40), 2**40))
        da = int(rng.integers(0, 48))
        db = int(rng.integers(0, 48))
        bound = predict_aligned_bound(abs(va), abs(vb), da, db)
        actual = abs((va >> da) + (vb >> db))
        assert actual <= bound


def test_predict_aligned_bound_rejects_negative():
    with pytest.raises(HardwareContractError):
        predict_aligned_bound(-1, 0, 0, 0)
    with pytest.raises(HardwareContractError):
        predict_aligned_bound(0, 0, -1, 0)


def test_alignment_shift_cycles():
    assert alignment_shift_cycles(0) == 1
    assert alignment_shift_cycles(NARROW_ALIGN_BITS) == 1
    assert alignment_shift_cycles(NARROW_ALIGN_BITS + 1) == 2
    assert alignment_shift_cycles(48) == 2
    with pytest.raises(HardwareContractError):
        alignment_shift_cycles(-1)


# ---------------------------------------------------------------------------
# The fpadd-side narrow fraction
# ---------------------------------------------------------------------------

def test_alignment_narrow_fraction_regimes():
    # Equal exponents: distance 0, the upper shifter stage is needed
    # (the full 48-bit operand enters the window).
    assert alignment_narrow_fraction(np.float32(1.5), np.float32(1.25)) == 0.0
    # Distance >= GUARD_BITS: post-shift width <= 24, provably narrow.
    big, tiny = np.float32(1.0), np.float32(2.0 ** -GUARD_BITS)
    assert alignment_narrow_fraction(big, tiny) == 1.0
    # Zero operands need no alignment at all.
    assert alignment_narrow_fraction(np.zeros(4, np.float32),
                                     np.ones(4, np.float32)) == 1.0
    mixed = alignment_narrow_fraction(
        np.array([1.0, 1.0], np.float32),
        np.array([1.0, 2.0 ** -40], np.float32))
    assert mixed == 0.5
    # Like the matmul probe, inspection is loss-free: aligned_add agrees
    # with the exact sum wherever the predictor says narrow.
    assert aligned_add(big, tiny) == np.float32(1.0 + 2.0 ** -GUARD_BITS)


# ---------------------------------------------------------------------------
# NumericsMonitor integration
# ---------------------------------------------------------------------------

def _probe_with(steps, narrow, under=0, wp=20, wa=16):
    p = AlignmentProbe()
    p.steps, p.narrow_steps, p.under_predictions = steps, narrow, under
    p.max_predicted_width, p.max_actual_width = wp, wa
    return p


def test_monitor_accumulates_alignment_evidence():
    mon = NumericsMonitor()
    with mon.scope("block0"):
        mon.observe_alignment(_probe_with(10, 5))
        mon.observe_alignment(_probe_with(10, 10, wp=22))
    with mon.scope("head"):
        mon.observe_alignment(_probe_with(4, 0, under=1))
    assert set(mon.alignment) == {("block0", "matmul"), ("head", "matmul")}
    s = mon.alignment_summary()
    assert s["steps"] == 24 and s["narrow_steps"] == 15
    assert s["under_predictions"] == 1
    assert s["max_predicted_width"] == 22
    assert s["narrow_frac"] == pytest.approx(15 / 24)
    # Empty probes leave no trace; publish emits the run-wide totals.
    mon.observe_alignment(_probe_with(0, 0))
    reg = MetricsRegistry()
    mon.publish(reg)
    assert reg.counter("numerics.alignment.steps").value == 24
    assert reg.gauge("numerics.alignment.narrow_frac").value == \
        pytest.approx(15 / 24)
    mon.reset()
    assert mon.alignment == {} and mon.alignment_summary()["steps"] == 0


def test_disabled_and_null_monitors_ignore_alignment():
    off = NumericsMonitor(enabled=False)
    off.observe_alignment(_probe_with(10, 5))
    assert off.alignment == {}
    NULL_MONITOR.observe_alignment(_probe_with(10, 5))  # must not raise
