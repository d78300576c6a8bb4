"""The quantization-format registry: lookup, array mapping, minifloat semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import RegistryError
from repro.formats.halfprec import quantize_half
from repro.formats.minifloat import E4M3, E5M2
from repro.formats.registry import (
    BfpFormat,
    IntFormat,
    MiniFloatFormat,
    available_formats,
    get_format,
)


class TestLookup:
    def test_builtins_present(self):
        names = available_formats()
        for expected in ("fp32", "bfp8", "int8", "ibert", "bf16", "fp16",
                         "fp8-e4m3", "fp8-e5m2"):
            assert expected in names

    def test_get_format_returns_named_instance(self):
        for name in available_formats():
            assert get_format(name).name == name

    def test_unknown_format_raises_with_available_list(self):
        with pytest.raises(RegistryError, match="bfp8"):
            get_format("no-such-format")

    def test_parametric_bfp_width(self):
        fmt = get_format("bfp4")
        assert isinstance(fmt, BfpFormat)
        assert fmt.name == "bfp4"
        # Materialized on demand and then served from the registry.
        assert get_format("bfp4") is fmt

    def test_parametric_int_width(self):
        fmt = get_format("int6")
        assert isinstance(fmt, IntFormat)
        assert fmt.name == "int6"


class TestArrayMapping:
    def test_array_mode_names(self):
        # bfp/int map onto the systolic array; fp32 and the two-slice
        # fp16 run on the vector personality; single-slice minifloats
        # (8-bit-or-less significand) map onto the array.
        assert get_format("bfp8").array_mode == "bfp8_mac"
        assert get_format("int8").array_mode == "bfp8_mac"
        assert get_format("fp8-e4m3").array_mode == "bfp8_mac"
        assert get_format("bf16").array_mode == "bfp8_mac"
        assert get_format("fp32").array_mode is None
        assert get_format("fp16").array_mode is None


class TestMinifloat:
    def test_e4m3_saturates_at_240(self):
        x = np.array([1e6, -1e6, 250.0, 240.0], dtype=np.float32)
        q = quantize_half(x, E4M3)
        assert np.all(np.abs(q) <= E4M3.max_finite)
        np.testing.assert_array_equal(
            q, [240.0, -240.0, 240.0, 240.0])

    def test_e5m2_saturates_at_57344(self):
        q = quantize_half(np.array([1e9, -1e9], np.float32), E5M2)
        np.testing.assert_array_equal(q, [57344.0, -57344.0])

    def test_quantize_is_idempotent(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(64,)).astype(np.float32)
        for fmt in (E4M3, E5M2):
            q = quantize_half(x, fmt)
            np.testing.assert_array_equal(q, quantize_half(q, fmt))

    def test_e4m3_grid_spacing(self):
        # In [1, 2) the e4m3 grid step is 2^-3 = 0.125.
        q = quantize_half(np.array([1.0625], np.float32), E4M3)
        assert q[0] in (1.0, 1.125)
        q = quantize_half(np.array([1.125], np.float32), E4M3)
        assert q[0] == 1.125

    def test_matmul_quantizes_operands(self):
        fmt = MiniFloatFormat(E4M3)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(8, 16)).astype(np.float32)
        w = rng.normal(size=(16, 4)).astype(np.float32)
        seen = []
        out = fmt.matmul(x, w, record=seen.append)
        ref = (quantize_half(x, E4M3) @ quantize_half(w, E4M3)).astype(
            np.float32)
        np.testing.assert_array_equal(out, ref)
        assert sum(seen) == x.size + w.size


class TestProtocolDefaults:
    def test_fp32_matmul_is_exact(self):
        fmt = get_format("fp32")
        x = np.array([[1.0, 2.0]], np.float32)
        w = np.array([[3.0], [4.0]], np.float32)
        out = fmt.matmul(x, w, record=lambda n: None)
        np.testing.assert_array_equal(out, [[11.0]])
        assert out.dtype == np.float32

    def test_bfp_format_snap_roundtrip(self):
        fmt = get_format("bfp8")
        rng = np.random.default_rng(2)
        x = rng.normal(size=(16, 16)).astype(np.float32)
        s = fmt.snap(x)
        np.testing.assert_array_equal(s, fmt.snap(s))
