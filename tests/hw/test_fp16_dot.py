"""The fp16 dot-product personality: packing, exactness, accounting.

The functional model behind the registry's ``fp16_dot`` mode: the dual
fp16 MAC must recombine mantissa products *exactly* (the packing argument
is a contract check, not a hope), the PSU accumulation must match an
fp16-quantized reference dot product up to alignment truncation, and the
hardware accounting (DSP passes, alignment steps, narrow steps) must line
up with the cycle/resource model the cost registry charges for the mode.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cost.modes import get_mode
from repro.errors import HardwareContractError
from repro.formats.halfprec import FP16, quantize_half
from repro.hw.fp16_dot import (
    FP16_HI_BITS,
    FP16_LO_BITS,
    dual_mac_partials,
    fp16_dot,
    pack_y_slices,
)
from repro.perf.resources import (
    design_multimode,
    design_multimode_fp16,
    fig6_designs,
    fp16_dot_extension,
)


def test_slice_split_covers_the_fp16_mantissa():
    assert FP16_HI_BITS + FP16_LO_BITS == FP16.man_bits == 11


def test_pack_y_slices_range_contracts():
    pack_y_slices(np.array([255]), np.array([7]))  # the extremes fit
    with pytest.raises(HardwareContractError, match="y_hi"):
        pack_y_slices(np.array([1 << FP16_HI_BITS]), np.array([0]))
    with pytest.raises(HardwareContractError, match="y_lo"):
        pack_y_slices(np.array([0]), np.array([1 << FP16_LO_BITS]))
    with pytest.raises(HardwareContractError, match="y_hi"):
        pack_y_slices(np.array([-1]), np.array([0]))


def test_dual_mac_recombination_is_exact_exhaustively():
    # Every fp16 mantissa pair: normals carry the implicit bit, so codes
    # span [1024, 2047]; subnormal codes span [1, 1023].  The full code
    # space is small enough to check the packing argument exhaustively
    # against the flat 11x11 product.
    m_x = np.arange(1, 1 << FP16.man_bits, dtype=np.int64)
    for m_y in (np.int64(1), np.int64(1023), np.int64(1365), np.int64(2047)):
        packed = pack_y_slices(m_y >> FP16_LO_BITS, m_y & 7)
        hh, hl = dual_mac_partials(m_x >> FP16_LO_BITS, packed)
        lh, ll = dual_mac_partials(m_x & 7, packed)
        prod = (hh << (2 * FP16_LO_BITS)) + ((hl + lh) << FP16_LO_BITS) + ll
        assert np.array_equal(prod, m_x * m_y)


def test_fp16_dot_matches_quantized_reference():
    rng = np.random.default_rng(0)
    for n in (1, 8, 64, 256):
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        got = fp16_dot(x, y)
        ref = float(
            quantize_half(x.astype(np.float32), FP16).astype(np.float64)
            @ quantize_half(y.astype(np.float32), FP16).astype(np.float64)
        )
        # Alignment truncation loses low bits but the 48-bit window is
        # wide: the dot product agrees to fp16-grid fidelity.
        assert got.value == pytest.approx(ref, rel=1e-3, abs=1e-6)


def test_fp16_dot_exact_when_no_alignment_needed():
    # Power-of-two values share one product exponent: every alignment
    # distance is 0 and truncation discards nothing.
    x = np.array([0.5, 1.0, 2.0, 4.0])
    y = np.array([2.0, 1.0, 0.5, 0.25])
    got = fp16_dot(x, y)
    assert float(got.value) == float(x @ y)
    assert got.align_steps == 3
    assert got.align_narrow_steps == got.align_steps  # tiny bounds: narrow


def test_fp16_dot_zero_handling():
    z = fp16_dot(np.zeros(16), np.ones(16))
    assert float(z.value) == 0.0
    assert z.dsp_passes == 0 and z.align_steps == 0  # clock-gated
    # Mixed: only live pairs consume DSP passes.
    r = fp16_dot(np.array([1.0, 0.0, 2.0, 0.0]), np.array([1.0, 1.0, 0.0, 2.0]))
    assert r.dsp_passes == 2  # one live pair, two passes


@given(st.integers(1, 64), st.floats(0.0, 1.0), st.integers(0, 10_000))
def test_fp16_dot_dsp_pass_accounting(n, zero_frac, seed):
    # The dual-MAC packing: the registry's fp16_dot ``slices`` DSP passes
    # per live element pair, against the fp32 path's 3x3 slicing.  Zero
    # operands (including values that flush to zero on the fp16 grid) are
    # clock-gated and cost nothing.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * np.exp2(rng.integers(-30, 8, n))
    y = rng.standard_normal(n) * (rng.random(n) >= zero_frac)
    x[rng.random(n) < zero_frac] = 0.0
    live = int(np.count_nonzero(
        (quantize_half(x.astype(np.float32), FP16) != 0)
        & (quantize_half(y.astype(np.float32), FP16) != 0)
    ))
    r = fp16_dot(x, y)
    assert r.dsp_passes == get_mode("fp16_dot").slices * live
    assert r.align_steps == max(live - 1, 0)


def test_fp16_dot_shape_mismatch_raises():
    with pytest.raises(HardwareContractError, match="disagree"):
        fp16_dot(np.ones(4), np.ones(5))


def test_fp16_dot_wide_spread_still_sound():
    # Large exponent spread forces real truncating shifts; the contract
    # checks inside fp16_dot (predictor soundness + PSU width) must hold.
    rng = np.random.default_rng(1)
    x = rng.standard_normal(128) * np.exp2(rng.integers(-12, 13, 128))
    y = rng.standard_normal(128) * np.exp2(rng.integers(-12, 13, 128))
    r = fp16_dot(x, y)
    assert np.isfinite(float(r.value))
    assert 0 <= r.align_narrow_steps <= r.align_steps


# ---------------------------------------------------------------------------
# Resource model
# ---------------------------------------------------------------------------

def test_fp16_extension_costs_no_dsp_or_bram():
    ext = fp16_dot_extension()
    assert ext.dsp == 0 and ext.bram == 0
    assert ext.lut > 0 and ext.ff > 0
    full = design_multimode_fp16()
    base = design_multimode()
    assert full.dsp == base.dsp
    assert full.lut == base.lut + ext.lut
    assert full.ff == base.ff + ext.ff


def test_fig6_designs_fp16_is_opt_in():
    assert set(fig6_designs()) == {"int8", "bfp8", "ours", "indiv"}
    with_fp16 = fig6_designs(include_fp16=True)
    assert with_fp16["ours+fp16"] == design_multimode_fp16()
    # The headline stays true with the extension: fewer DSPs than the
    # individual-units design.
    assert with_fp16["ours+fp16"].dsp < with_fp16["indiv"].dsp
