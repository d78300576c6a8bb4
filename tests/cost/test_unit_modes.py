"""The unit-mode registry: formulas, options plumbing, and new design points.

The legacy paths are pinned bit-for-bit in ``test_golden_cycles.py``;
here we test the registry *as a subsystem* — the Eqn-9/vector cycle
formulas, the ``fp16_dot`` dual-precision design point, the shift-aware
alignment-prediction knob, and the ``ModeOptions`` selection plumbing
threaded from the CLIs into the compiled schedules.
"""

import pytest

from repro.cost.modes import (
    ModeOptions,
    UnitMode,
    available_modes,
    get_mode,
    resolve_unit_mode,
)
from repro.errors import ConfigurationError, RegistryError
from repro.models.policy import get_policy
from repro.perf.latency import (
    measured_bfp_stream_cycles,
    measured_fp32_stream_cycles,
)
from repro.perf.memory import DEFAULT_MEMORY
from repro.perf.resources import fp16_dot_extension
from repro.perf.throughput import DEFAULT_CLOCK
from repro.runtime.scheduler import compile_decoder


# ---------------------------------------------------------------------------
# Registry behavior
# ---------------------------------------------------------------------------

def test_builtin_modes_registered():
    assert available_modes() == sorted(available_modes())
    for name in ("bfp8_mac", "fp32_vector", "fp16_dot"):
        assert name in available_modes()
        assert get_mode(name).name == name


def test_unknown_mode_raises():
    with pytest.raises(RegistryError, match="unknown unit mode"):
        get_mode("npu_tensor_core")


def test_mode_validation():
    with pytest.raises(ConfigurationError, match="kind"):
        UnitMode(name="x", kind="systolic")
    with pytest.raises(ConfigurationError, match="slices"):
        UnitMode(name="x", kind="array", slices=0)
    with pytest.raises(ConfigurationError, match="operand_bytes"):
        UnitMode(name="x", kind="array", operand_bytes=0)
    with pytest.raises(ConfigurationError, match="reconfig_cycles"):
        UnitMode(name="x", kind="array", reconfig_cycles=-1)


def test_builtin_mode_parameters():
    bfp = get_mode("bfp8_mac")
    assert (bfp.kind, bfp.slices, bfp.operand_bytes) == ("array", 1, 1)
    assert bfp.reconfig_cycles == 0  # the resting personality
    fp16 = get_mode("fp16_dot")
    assert (fp16.kind, fp16.slices, fp16.operand_bytes) == ("array", 2, 2)
    assert fp16.reconfig_cycles == 32
    assert get_mode("fp32_vector").kind == "vector"


# ---------------------------------------------------------------------------
# Cycle formulas
# ---------------------------------------------------------------------------

def test_stream_cycles_match_measured_wrappers():
    bfp = get_mode("bfp8_mac")
    vec = get_mode("fp32_vector")
    for n_x in (1, 7, 64):
        assert bfp.stream_cycles(n_x) == measured_bfp_stream_cycles(n_x)
    for length in (16, 128, 512):
        assert vec.stream_cycles(length) == measured_fp32_stream_cycles(length)


def test_stream_cycles_positive_length_required():
    with pytest.raises(ConfigurationError, match="positive"):
        get_mode("bfp8_mac").stream_cycles(0)


def test_fp16_dot_compute_term_doubles_slices():
    # Eqn-9 compute: slices * rows * N_X + 15 — per stream, fp16's two
    # mantissa slices double the MAC passes while memory doubles the
    # 8-bit stream's byte counts.  Check the compute term exactly by
    # differencing out the (shared-shape) memory model.
    mem, clock = DEFAULT_MEMORY, DEFAULT_CLOCK
    for n_x in (1, 8, 64):
        rd, wr = mem.bfp_stream_bytes(n_x, clock.rows, clock.cols)
        want_bfp = mem.stream_total_cycles(
            "bfp8", clock.rows * n_x + 15, rd, wr)
        want_fp16 = mem.stream_total_cycles(
            "bfp8", 2 * clock.rows * n_x + 15, 2 * rd, 2 * wr)
        assert get_mode("bfp8_mac").stream_cycles(n_x) == want_bfp
        assert get_mode("fp16_dot").stream_cycles(n_x) == want_fp16


def test_align_narrow_frac_saves_one_cycle_per_narrow_step():
    mode = get_mode("bfp8_mac")
    n_x = 64
    base = mode.stream_cycles(n_x)
    # One PSU alignment per accumulated X block after the first: frac=1
    # saves exactly N_X - 1 compute cycles (memory overlap unchanged).
    assert base - mode.stream_cycles(n_x, align_narrow_frac=1.0) == n_x - 1
    half = mode.stream_cycles(n_x, align_narrow_frac=0.5)
    assert base - half == int(0.5 * (n_x - 1))
    # frac=0 and frac=None are both the historical formula.
    assert mode.stream_cycles(n_x, align_narrow_frac=0.0) == base
    with pytest.raises(ConfigurationError, match="align_narrow_frac"):
        mode.stream_cycles(n_x, align_narrow_frac=1.5)


def test_matmul_cost_array_vs_vector():
    m, k, n = 64, 128, 128
    array = get_mode("bfp8_mac").matmul_cost(m, k, n)
    vector = get_mode("fp32_vector").matmul_cost(m, k, n)
    assert array.ops > 0 and vector.ops == 2.0 * m * k * n
    # The vector cliff: MAC-by-MAC execution is far slower than the
    # block-streaming plan for the same matmul.
    assert vector.total_cycles > 10 * array.total_cycles
    # fp16_dot sits between: dual-slice array streams, not the cliff.
    fp16 = get_mode("fp16_dot").matmul_cost(m, k, n)
    assert array.total_cycles < fp16.total_cycles < vector.total_cycles
    # copies replicate chunks (per-head attention matmuls).
    assert get_mode("bfp8_mac").matmul_cost(m, k, n, copies=3).chunks == \
        3 * array.chunks


# ---------------------------------------------------------------------------
# Resource deltas
# ---------------------------------------------------------------------------

def test_resource_delta_convention():
    """fp16_dot's extension over the multi-mode PU, as Fig. 6 and Table
    II add it."""
    delta = fp16_dot_extension()
    assert delta.dsp == 0 and delta.bram == 0  # dual fp16 per DSP48E2
    assert delta.lut > 0 and delta.ff > 0


# ---------------------------------------------------------------------------
# ModeOptions parsing / serialization
# ---------------------------------------------------------------------------

def test_parse_none_is_historical_model():
    assert ModeOptions.parse(None) is None
    assert ModeOptions.parse("") is None
    assert ModeOptions.parse("none") is None


def test_parse_fp16_shorthand():
    opts = ModeOptions.parse("fp16")
    assert opts.overrides == (("fp16", "fp16_dot"),)
    assert opts.mode_for("fp16") == "fp16_dot"
    assert opts.mode_for("bfp8") is None


def test_parse_explicit_pairs_and_frac():
    opts = ModeOptions.parse("fp16=fp16_dot,bf16=bfp8_mac",
                             align_narrow_frac=0.25)
    assert opts.mode_for("fp16") == "fp16_dot"
    assert opts.mode_for("bf16") == "bfp8_mac"
    assert opts.align_narrow_frac == 0.25
    # A frac alone still produces options (alignment-only run).
    frac_only = ModeOptions.parse(None, align_narrow_frac=0.5)
    assert frac_only is not None and frac_only.overrides == ()


def test_parse_rejects_garbage():
    with pytest.raises(ConfigurationError, match="cannot parse"):
        ModeOptions.parse("fp16_dot")  # a mode name is not a format=mode pair
    with pytest.raises(RegistryError):
        ModeOptions.parse("nonsuch=fp16_dot")  # unknown format
    with pytest.raises(RegistryError):
        ModeOptions.parse("fp16=nonsuch")  # unknown mode
    with pytest.raises(ConfigurationError, match="duplicate"):
        ModeOptions.parse("fp16=fp16_dot,fp16=bfp8_mac")
    with pytest.raises(ConfigurationError, match="align_narrow_frac"):
        ModeOptions(align_narrow_frac=2.0)


def test_mode_options_hashable_and_roundtrip():
    opts = ModeOptions.parse("fp16", align_narrow_frac=0.75)
    assert hash(opts) == hash(ModeOptions.parse("fp16", align_narrow_frac=0.75))
    assert ModeOptions.from_dict(opts.as_dict()) == opts
    assert ModeOptions.from_dict({"overrides": []}) == ModeOptions()


# ---------------------------------------------------------------------------
# Mode resolution
# ---------------------------------------------------------------------------

def test_resolve_unit_mode_precedence():
    # Registered format default: bfp/int ride the MAC array.
    assert resolve_unit_mode("bfp8").name == "bfp8_mac"
    assert resolve_unit_mode("int8").name == "bfp8_mac"
    assert resolve_unit_mode("fp8-e4m3").name == "bfp8_mac"
    # Unmapped formats fall back to the vector personality...
    assert resolve_unit_mode("fp32").name == "fp32_vector"
    assert resolve_unit_mode("fp16").name == "fp32_vector"
    # ...unless an override routes them onto an array mode.
    opts = ModeOptions.parse("fp16")
    assert resolve_unit_mode("fp16", opts).name == "fp16_dot"
    assert resolve_unit_mode("bfp8", opts).name == "bfp8_mac"


# ---------------------------------------------------------------------------
# Compiled schedules under mode overrides
# ---------------------------------------------------------------------------

def _decode(policy, modes):
    return compile_decoder(
        vocab=1000, dim=128, depth=4, n_heads=4, context=128,
        phase="decode", batch=8, policy=policy, modes=modes,
    )


def test_fp16_dot_override_beats_vector_cliff():
    pol = get_policy("fp16-linear")
    cliff = _decode(pol, None)
    dot = _decode(pol, ModeOptions.parse("fp16"))
    assert dot.unit_cycles_per_item() < cliff.unit_cycles_per_item()
    assert "fp16_dot" in dot.latency_by_unit_mode(15)
    assert "fp16_dot" not in cliff.latency_by_unit_mode(15)


def test_reconfig_stages_only_on_transitions():
    pol = get_policy("fp16-linear")
    dot = _decode(pol, ModeOptions.parse("fp16"))
    reconfigs = [s for s in dot.stages if s.kind == "reconfig"]
    fp16_matmuls = [
        s for s in dot.stages
        if s.kind == "matmul" and s.unit_mode == "fp16_dot"
    ]
    assert reconfigs, "entering fp16_dot must charge a reconfiguration"
    # Consecutive fp16 matmuls share one datapath configuration: strictly
    # fewer reconfig stages than fp16 matmuls.
    assert len(reconfigs) < len(fp16_matmuls)
    assert all(s.chunk_cycles == 32 for s in reconfigs)
    # An all-array baseline never leaves the resting personality.
    base = _decode(get_policy("bfp8-mixed"), None)
    assert not [s for s in base.stages if s.kind == "reconfig"]


def test_align_narrow_frac_reduces_schedule_cycles():
    pol = get_policy("bfp8-mixed")
    kw = dict(vocab=1000, dim=128, depth=4, n_heads=4, context=128,
              phase="prefill", batch=4, policy=pol)
    base = compile_decoder(**kw, modes=None)
    narrow = compile_decoder(**kw, modes=ModeOptions(align_narrow_frac=1.0))
    # Prefill streams are long (compute-bound): every predicted-narrow
    # alignment shift saves a cycle end to end.
    assert narrow.unit_cycles_per_item() < base.unit_cycles_per_item()
    # Decode's short streams are memory-bound — the knob must never make
    # anything *slower*.
    dec_base = _decode(pol, None)
    dec_narrow = _decode(pol, ModeOptions(align_narrow_frac=1.0))
    assert dec_narrow.unit_cycles_per_item() <= dec_base.unit_cycles_per_item()
