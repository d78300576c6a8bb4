"""Tiling of dense matrices into 8x8 bfp8 blocks.

The hardware operates on fixed ``8 x 8`` blocks (paper Section II-B).  A
:class:`BfpMatrix` stores an arbitrary ``(M, N)`` real matrix as a grid of
quantized blocks, zero-padding the ragged edge.  It is the unit of exchange
between the model-emulation layer (``repro.models``) and the hardware
simulator (``repro.hw``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.formats.bfp8 import (
    BLOCK_COLS,
    BLOCK_ROWS,
    BfpBlock,
    dequantize_tiles,
    quantize_dense,
)
from repro.formats.rounding import RoundingMode

__all__ = ["BfpMatrix", "pad_to_blocks"]


def pad_to_blocks(
    x: np.ndarray, rows: int = BLOCK_ROWS, cols: int = BLOCK_COLS
) -> np.ndarray:
    """Zero-pad a 2-D array so both dimensions are multiples of the block."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ConfigurationError("pad_to_blocks expects a 2-D array")
    m, n = x.shape
    pm = (-m) % rows
    pn = (-n) % cols
    if pm == 0 and pn == 0:
        return x
    return np.pad(x, ((0, pm), (0, pn)))


@dataclass(frozen=True)
class BfpMatrix:
    """A dense matrix stored as a grid of bfp8 blocks.

    Attributes
    ----------
    mantissas:
        ``(Rb, Cb, rows, cols)`` int16 array of int8-valued mantissas.
    exponents:
        ``(Rb, Cb)`` int16 array of shared exponents.
    shape:
        the original (unpadded) matrix shape.
    """

    mantissas: np.ndarray
    exponents: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        man = np.asarray(self.mantissas, dtype=np.int16)
        exp = np.asarray(self.exponents, dtype=np.int16)
        if man.ndim != 4:
            raise ConfigurationError("mantissas must be (Rb, Cb, rows, cols)")
        if exp.shape != man.shape[:2]:
            raise ConfigurationError("exponent grid does not match block grid")
        object.__setattr__(self, "mantissas", man)
        object.__setattr__(self, "exponents", exp)
        object.__setattr__(self, "shape", (int(self.shape[0]), int(self.shape[1])))

    # -- construction -------------------------------------------------------
    @classmethod
    def from_dense(
        cls,
        x: np.ndarray,
        *,
        rows: int = BLOCK_ROWS,
        cols: int = BLOCK_COLS,
        rounding: RoundingMode = "nearest_even",
        man_bits: int = 8,
    ) -> "BfpMatrix":
        x = np.asarray(x)
        if x.ndim != 2:
            raise ConfigurationError("from_dense expects a 2-D array")
        man, exp = quantize_dense(
            x, rows, cols, rounding=rounding, man_bits=man_bits
        )
        return cls(man, exp, x.shape)

    # -- views --------------------------------------------------------------
    @property
    def block_grid(self) -> tuple[int, int]:
        return self.mantissas.shape[0], self.mantissas.shape[1]

    @property
    def block_shape(self) -> tuple[int, int]:
        return self.mantissas.shape[2], self.mantissas.shape[3]

    def block(self, bi: int, bj: int) -> BfpBlock:
        return BfpBlock(
            self.mantissas[bi, bj].astype(np.int8), int(self.exponents[bi, bj])
        )

    def to_dense(self) -> np.ndarray:
        """Dequantize back to a dense float64 array of the original shape."""
        rb, cb = self.block_grid
        r, c = self.block_shape
        vals = dequantize_tiles(self.mantissas, self.exponents)
        dense = vals.swapaxes(1, 2).reshape(rb * r, cb * c)
        return dense[: self.shape[0], : self.shape[1]]

    def quantization_error(self, reference: np.ndarray) -> float:
        """Max absolute error of this encoding against a reference matrix."""
        ref = np.asarray(reference, dtype=np.float64)
        if ref.shape != self.shape:
            raise ConfigurationError("reference shape mismatch")
        return float(np.abs(self.to_dense() - ref).max()) if ref.size else 0.0
