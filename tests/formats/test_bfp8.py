"""Tests for the bfp8 block format and quantizer."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ConfigurationError, HardwareContractError
from repro.formats.bfp8 import (
    EXP_MAX,
    EXP_MIN,
    BfpBlock,
    align_add_mantissas,
    choose_shared_exponent,
    dequantize_tiles,
    quantize_block,
    quantize_tiles,
)
from repro.formats.blocking import BfpMatrix

ROUNDINGS = ("nearest_even", "truncate", "nearest_away")

#: Tile scales ``2^e``: ordinary values, the EXP_MIN clamp, subnormals
#: (float64 and, after a float32 cast, float32), the EXP_MAX clamp, and
#: values past 2^190, whose scaled mantissas overflow an int64.
TILE_EXPONENTS = st.one_of(
    st.integers(-30, 30),
    st.integers(-160, -110),
    st.integers(-1080, -1020),
    st.integers(110, 300),
)

block_values = hnp.arrays(
    np.float64,
    (8, 8),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


class TestBfpBlock:
    def test_decode(self):
        b = BfpBlock(np.full((2, 2), 3, np.int8), -1)
        assert np.allclose(b.decode(), 1.5)

    def test_rejects_minus_128(self):
        with pytest.raises(ConfigurationError):
            BfpBlock(np.full((2, 2), -128, np.int16), 0)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ConfigurationError):
            BfpBlock(np.zeros((2, 2), np.int8), 200)

    def test_rejects_non_2d(self):
        with pytest.raises(ConfigurationError):
            BfpBlock(np.zeros(4, np.int8), 0)


class TestQuantizeBlock:
    @given(block_values)
    def test_error_bound(self, x):
        """Quantization error is at most half a mantissa step."""
        b = quantize_block(x)
        step = 2.0 ** b.exponent
        err = np.abs(b.decode() - x).max()
        # Elements clamped at +/-127 can exceed half a step only if the
        # pre-bump rounding saturated; the bump guarantees <= 1 step total.
        assert err <= step * 1.0 + 1e-12

    @given(block_values)
    def test_mantissas_in_range(self, x):
        b = quantize_block(x)
        assert int(b.mantissas.min()) >= -127
        assert int(b.mantissas.max()) <= 127

    @given(block_values)
    def test_largest_element_uses_seven_bits(self, x):
        """The peak mantissa is at least 64 unless the exponent saturated."""
        b = quantize_block(x)
        peak = int(np.abs(b.mantissas).max())
        # Exponent saturation at EXP_MIN (values below ~2^-121) legitimately
        # underflows mantissas; the 7-bit guarantee holds otherwise.
        if np.abs(x).max() >= 2.0**-120:
            assert peak >= 64

    def test_zero_block(self):
        b = quantize_block(np.zeros((8, 8)))
        assert b.exponent == EXP_MIN
        assert (b.mantissas == 0).all()

    def test_rejects_nan(self):
        x = np.zeros((8, 8))
        x[0, 0] = np.nan
        with pytest.raises(ConfigurationError):
            quantize_block(x)

    def test_rejects_non_2d(self):
        with pytest.raises(ConfigurationError):
            quantize_block(np.zeros(8))

    def test_overflow_bump(self):
        """A value that rounds to 128 bumps the shared exponent."""
        x = np.zeros((8, 8))
        x[0, 0] = 127.6  # expb=0 would round to 128
        b = quantize_block(x)
        assert b.exponent == 1
        assert int(b.mantissas[0, 0]) == 64

    def test_exponent_choice(self):
        assert choose_shared_exponent(np.array([[1.0]])) == -6
        assert choose_shared_exponent(np.array([[64.0]])) == 0
        assert choose_shared_exponent(np.zeros((2, 2))) == EXP_MIN


class TestQuantizeTiles:
    @given(
        seed=st.integers(0, 2**32 - 1),
        exps=st.lists(TILE_EXPONENTS, min_size=6, max_size=6),
        zero=st.lists(st.booleans(), min_size=6, max_size=6),
        rounding=st.sampled_from(ROUNDINGS),
        man_bits=st.integers(2, 8),
        f32=st.booleans(),
    )
    def test_matches_scalar_quantizer(
        self, seed, exps, zero, rounding, man_bits, f32
    ):
        """The one-pass path is element-identical to quantize_block in
        every rounding mode and width, at both exponent clamps, on
        subnormals, all-zero tiles and float32 input."""
        rng = np.random.default_rng(seed)
        tiles = np.ldexp(rng.normal(size=(6, 8, 8)), np.array(exps)[:, None, None])
        tiles[np.array(zero)] = 0.0
        if f32:
            tiles = np.clip(tiles, -3e38, 3e38).astype(np.float32)
        tiles = tiles.reshape(3, 2, 8, 8)
        man, exp = quantize_tiles(tiles, rounding=rounding, man_bits=man_bits)
        for i in range(tiles.shape[0]):
            for j in range(tiles.shape[1]):
                ref = quantize_block(
                    tiles[i, j], rounding=rounding, man_bits=man_bits
                )
                assert exp[i, j] == ref.exponent
                assert np.array_equal(man[i, j], ref.mantissas.astype(np.int16))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_rejects_non_finite(self, bad, dtype):
        tiles = np.ones((3, 2, 8, 8), dtype=dtype)
        tiles[1, 0, 3, 5] = bad
        with pytest.raises(ConfigurationError):
            quantize_tiles(tiles)
        with pytest.raises(ConfigurationError):
            BfpMatrix.from_dense(tiles[1, 0])

    def test_dequantize_roundtrip(self):
        rng = np.random.default_rng(0)
        tiles = rng.normal(size=(4, 8, 8))
        man, exp = quantize_tiles(tiles)
        back = dequantize_tiles(man, exp)
        step = np.exp2(exp.astype(float))[..., None, None]
        assert (np.abs(back - tiles) <= step).all()

    def test_rejects_low_rank(self):
        with pytest.raises(ConfigurationError):
            quantize_tiles(np.zeros(8))


class TestHugeValues:
    @pytest.mark.parametrize("rounding", ROUNDINGS)
    @pytest.mark.parametrize("value", [1e60, 2.0**200])
    def test_saturate_with_their_own_sign(self, rounding, value):
        """Finite values at or past 2^190 clamp to +/-127 x 2^127 with
        their own signs; an int64 cast before the clamp used to wrap them
        to -127."""
        signs = np.where(np.arange(64).reshape(8, 8) % 3, 1.0, -1.0)
        x = value * signs
        want = 127 * 2.0**EXP_MAX * signs
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            block = quantize_block(x, rounding=rounding)
            man, exp = quantize_tiles(x[None], rounding=rounding)
            dense = BfpMatrix.from_dense(x, rounding=rounding).to_dense()
        assert block.exponent == EXP_MAX
        assert np.array_equal(block.decode(), want)
        assert np.array_equal(dequantize_tiles(man, exp)[0], want)
        assert np.array_equal(dense, want)


class TestAlignAdd:
    def test_equal_exponents_exact(self):
        m, e = align_add_mantissas(np.array([3]), 2, np.array([4]), 2)
        assert list(m) == [7] and e == 2

    def test_alignment_shifts_smaller(self):
        m, e = align_add_mantissas(np.array([1]), 4, np.array([16]), 0)
        assert e == 4 and list(m) == [2]  # 16 >> 4 == 1, 1 + 1

    def test_truncation_drops_bits(self):
        m, e = align_add_mantissas(np.array([0]), 3, np.array([7]), 0)
        assert e == 3 and list(m) == [0]  # 7 >> 3 truncates to 0

    def test_overflow_guard(self):
        big = np.array([(1 << 47) - 1])
        with pytest.raises(HardwareContractError):
            align_add_mantissas(big, 0, big, 0)
