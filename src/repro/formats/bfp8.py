"""8-bit block floating point (bfp8), the paper's linear-layer format.

A bfp8 block (paper Fig. 1, Eqn 1) holds an ``8 x 8`` tile of values that
share a single 8-bit two's-complement exponent; each element keeps its own
8-bit two's-complement mantissa::

    val[i, j] = man[i, j] * 2**expb

Quantization policy (normative, see DESIGN.md Section 5):

* mantissas are clamped to ``[-127, 127]`` — never -128.  This is what makes
  the combined-MAC packing of two 8-bit products into one DSP48E2 safe for
  8-row accumulation (8 * 127**2 < 2**17).
* the shared exponent is chosen so the largest-magnitude element uses 7
  magnitude bits: ``expb = floor(log2(max|x|)) - 6``, bumped by one if
  rounding would overflow 127.
* an all-zero block takes the minimum exponent with all-zero mantissas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.formats.rounding import RoundingMode, shift_right

__all__ = [
    "BLOCK_ROWS",
    "BLOCK_COLS",
    "MAN_MIN",
    "MAN_MAX",
    "EXP_MIN",
    "EXP_MAX",
    "BfpBlock",
    "quantize_block",
    "choose_shared_exponent",
    "quantize_dense",
    "quantize_tiles",
    "dequantize_tiles",
]

BLOCK_ROWS = 8
BLOCK_COLS = 8
MAN_MIN = -127
MAN_MAX = 127
EXP_MIN = -128
EXP_MAX = 127

# The largest element of a block occupies man_bits-1 magnitude bits; for the
# default bfp8 that is 7 bits (value ~2**6..2**7).
_TARGET_MSB = 6


def _man_limits(man_bits: int) -> tuple[int, int]:
    """(man_max, target_msb) for a given mantissa width (2..8 bits).

    The magnitude is clamped to ``2**(man_bits-1) - 1`` (never the most
    negative code, preserving the combined-MAC packing guarantee), and the
    shared exponent targets ``man_bits - 2`` magnitude bits for the peak.
    """
    if not (2 <= man_bits <= 8):
        raise ConfigurationError(f"mantissa width {man_bits} outside 2..8")
    return (1 << (man_bits - 1)) - 1, man_bits - 2


@dataclass(frozen=True)
class BfpBlock:
    """One quantized bfp8 block: int8 mantissas plus a shared exponent."""

    mantissas: np.ndarray  # shape (rows, cols), int8-valued
    exponent: int

    def __post_init__(self) -> None:
        man = np.asarray(self.mantissas)
        if man.ndim != 2:
            raise ConfigurationError("BfpBlock mantissas must be 2-D")
        if man.size and (man.min() < MAN_MIN or man.max() > MAN_MAX):
            raise ConfigurationError(
                f"mantissas outside [{MAN_MIN}, {MAN_MAX}]"
            )
        if not (EXP_MIN <= int(self.exponent) <= EXP_MAX):
            raise ConfigurationError(
                f"shared exponent {self.exponent} outside 8-bit range"
            )
        object.__setattr__(self, "mantissas", man.astype(np.int8))
        object.__setattr__(self, "exponent", int(self.exponent))

    @property
    def shape(self) -> tuple[int, int]:
        return self.mantissas.shape  # type: ignore[return-value]

    def decode(self) -> np.ndarray:
        """Dequantize to float64 (``man * 2**expb``)."""
        return self.mantissas.astype(np.float64) * np.ldexp(1.0, self.exponent)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BfpBlock(shape={self.shape}, exponent={self.exponent}, "
            f"max|man|={int(np.abs(self.mantissas).max()) if self.mantissas.size else 0})"
        )


def choose_shared_exponent(x: np.ndarray, *, man_bits: int = 8) -> int:
    """Shared exponent for a block of real values (before overflow bump)."""
    _, target_msb = _man_limits(man_bits)
    x = np.asarray(x, dtype=np.float64)
    amax = float(np.abs(x).max()) if x.size else 0.0
    if amax == 0.0 or not np.isfinite(amax):
        return EXP_MIN
    _, e = np.frexp(amax)  # amax = m * 2**e with m in [0.5, 1)
    expb = int(e) - 1 - target_msb
    return int(np.clip(expb, EXP_MIN, EXP_MAX))


def quantize_block(
    x: np.ndarray, *, rounding: RoundingMode = "nearest_even", man_bits: int = 8
) -> BfpBlock:
    """Quantize one real-valued tile into a :class:`BfpBlock`.

    ``man_bits`` selects the block-fp bitwidth (bfp8 by default; bfp4/bfp6
    for the bitwidth-sweep experiments).  Raises on NaN/Inf input — the
    quantizer sits after fp32 hardware that, in this model, refuses special
    values.  This is the per-block reference :func:`quantize_dense` is
    tested against.
    """
    man_max, _ = _man_limits(man_bits)
    rnd = _rounder(rounding)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ConfigurationError("quantize_block expects a 2-D tile")
    if x.size and not np.isfinite(x).all():
        raise ConfigurationError("NaN/Inf in block quantizer input")
    expb = choose_shared_exponent(x, man_bits=man_bits)
    man = rnd(np.ldexp(x, -expb))
    if man.size and np.abs(man).max() > man_max:
        expb = min(expb + 1, EXP_MAX)
        man = rnd(np.ldexp(x, -expb))
    # Clamp while still float: a value past 2^63 would wrap in an int cast.
    return BfpBlock(np.clip(man, -man_max, man_max).astype(np.int8), expb)


def _nearest_away(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.trunc(v + np.copysign(0.5, v), out=out)


#: Block rounding modes: each maps scaled values to integer-valued floats
#: and is monotone, which :func:`quantize_dense` relies on.
_ROUNDERS = {
    "nearest_even": np.rint,
    "truncate": np.floor,
    "nearest_away": _nearest_away,
}


def _rounder(rounding: RoundingMode):
    rnd = _ROUNDERS.get(rounding)
    if rnd is None:
        raise ConfigurationError(f"unsupported block rounding mode: {rounding!r}")
    return rnd


# ---------------------------------------------------------------------------
# Vectorized multi-tile quantization (used by the model-emulation fast path).
# ---------------------------------------------------------------------------

#: :func:`quantize_dense`'s default mantissa layout, ``(..., Rb, Cb, r, c)``:
#: one tile per block, as :class:`~repro.formats.blocking.BfpMatrix` holds.
_GRID_ORDER = (0, 2, 1, 3)


def quantize_dense(
    x: np.ndarray,
    rows: int = BLOCK_ROWS,
    cols: int = BLOCK_COLS,
    *,
    order: tuple[int, int, int, int] = _GRID_ORDER,
    rounding: RoundingMode = "nearest_even",
    man_bits: int = 8,
) -> tuple[np.ndarray, np.ndarray]:
    """Block-quantize a dense ``(..., M, N)`` stack straight into the
    layout its consumer reads.

    Tiles are ``rows x cols``; a ragged edge is zero-padded.  Returns the
    mantissas as integer-valued float32 with the four tile axes (row
    block, row in block, column block, column in block) in ``order``,
    so no later pass re-casts or re-lays them out, and the
    ``(..., Mb, Nb)`` int64 shared exponents.  Semantics are
    element-for-element those of :func:`quantize_block` (a property test
    enforces this).

    Each tile's exponent and overflow bump are decided from the tile's
    max and min alone: every rounding mode is monotone, so the tile's
    largest code is the rounded max or the rounded min.  NaN and Inf
    surface in those per-tile values, so finiteness is checked there.
    The input is then read once more, scaled by one multiply with
    ``2^-exp`` (exact: a power of two) into the output layout, and
    rounded in place.  Only a tile still over range after the bump,
    whose exponent is already ``EXP_MAX``, needs a clamp.  Scaling,
    rounding and the clamp run in float64; only the final codes,
    ``|m| <= 127``, are cast to float32, where they are exact.  Float32 arithmetic
    before that point would not be: a float32 multiply can underflow a
    small negative value to ``-0.0``, whose truncation loses the
    ``-1``; ``nearest_away``'s ``+0.5`` rounds; and casting before the
    clamp overflows.
    """
    man_max, target_msb = _man_limits(man_bits)
    rnd = _rounder(rounding)
    x = np.asarray(x)
    if x.dtype != np.float32:
        x = x.astype(np.float64, copy=False)
    if x.ndim < 2:
        raise ConfigurationError("quantize_dense expects shape (..., M, N)")
    lead, (m, n) = x.shape[:-2], x.shape[-2:]
    mb, nb = -(-m // rows), -(-n // cols)
    if (m, n) != (mb * rows, nb * cols):
        padded = np.zeros((*lead, mb * rows, nb * cols), dtype=x.dtype)
        padded[..., :m, :n] = x
        x = padded
    tiles = x.reshape(*lead, mb, rows, nb, cols)

    def extreme(ufunc: np.ufunc) -> np.ndarray:
        # Across a tile's rows first, elementwise over whole matrix rows,
        # then across its columns from a small column-major copy: reducing
        # the 8-wide column axis in place runs one short loop per row and
        # measured ~30x slower.
        v = np.ascontiguousarray(np.moveaxis(ufunc.reduce(tiles, axis=-3), -1, 0))
        return ufunc.reduce(v, axis=0).astype(np.float64)

    hi, lo = extreme(np.maximum), extreme(np.minimum)
    amax = np.maximum(hi, -lo)
    if not np.isfinite(amax).all():
        raise ConfigurationError("NaN/Inf in block quantizer input")
    _, e = np.frexp(amax)
    expb = np.where(
        amax == 0.0, EXP_MIN, np.clip(e - 1 - target_msb, EXP_MIN, EXP_MAX)
    ).astype(np.int64)

    def over_range(expb: np.ndarray) -> np.ndarray:
        s = np.ldexp(1.0, -expb.astype(np.int32))
        return (rnd(hi * s) > man_max) | (rnd(lo * s) < -man_max)

    over = over_range(expb)
    if over.any():
        expb = np.where(over, np.minimum(expb + 1, EXP_MAX), expb)
        over = over_range(expb)
    scale = np.ldexp(1.0, -expb.astype(np.int32))[..., :, None, :, None]
    nl = len(lead)
    perm = (*range(nl), *(nl + i for i in order))
    out = np.empty([tiles.shape[i] for i in perm])
    np.multiply(tiles.transpose(perm), scale.transpose(perm), out=out)
    rnd(out, out=out)
    if over.any():
        np.clip(out, -man_max, man_max, out=out)
    return out.astype(np.float32), expb


def quantize_tiles(
    tiles: np.ndarray,
    *,
    rounding: RoundingMode = "nearest_even",
    man_bits: int = 8,
) -> tuple[np.ndarray, np.ndarray]:
    """Quantize a batch of tiles at once.

    ``tiles`` has shape ``(..., r, c)``; returns ``(mantissas, exponents)``
    with shapes ``(..., r, c)`` (int8-valued int16) and ``(...,)`` (int16).
    Each tile is its own block: :func:`quantize_dense` with ``r x c``
    tiles.
    """
    tiles = np.asarray(tiles)
    if tiles.ndim < 2:
        raise ConfigurationError("quantize_tiles expects shape (..., r, c)")
    r, c = tiles.shape[-2:]
    man, exp = quantize_dense(tiles, r, c, rounding=rounding, man_bits=man_bits)
    return (
        man.reshape(tiles.shape).astype(np.int16),
        exp.reshape(tiles.shape[:-2]).astype(np.int16),
    )


def dequantize_tiles(mantissas: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """Inverse of :func:`quantize_tiles` (up to quantization error)."""
    man = np.asarray(mantissas, dtype=np.float64)
    exp = np.asarray(exponents, dtype=np.int32)
    return np.ldexp(man, exp[..., None, None])


def align_add_mantissas(
    man_x: np.ndarray,
    exp_x: int,
    man_y: np.ndarray,
    exp_y: int,
    *,
    width: int = 48,
) -> tuple[np.ndarray, int]:
    """Add two mantissa tiles under bfp semantics (paper Eqn 3).

    The tile with the smaller exponent is shifted right (truncating) before
    an integer add; the result keeps the larger exponent.  ``width`` bounds
    the adder: results are asserted to fit (the modeled PSU path is 48-bit).
    """
    man_x = np.asarray(man_x, dtype=np.int64)
    man_y = np.asarray(man_y, dtype=np.int64)
    if exp_x >= exp_y:
        hi, lo, d, exp = man_x, man_y, exp_x - exp_y, exp_x
    else:
        hi, lo, d, exp = man_y, man_x, exp_y - exp_x, exp_y
    out = hi + shift_right(lo, d, "truncate")
    limit = np.int64(1) << (width - 1)
    if out.size and (out.min() < -limit or out.max() >= limit):
        from repro.errors import HardwareContractError

        raise HardwareContractError(
            f"aligned add overflows the {width}-bit accumulator"
        )
    return out, exp
