"""X and Y buffers with the dual-format BRAM data layout (paper Fig. 4).

bfp8 mode
---------
The X buffer holds 17 BRAM18s: 16 for mantissas (two groups of 8; streamed
blocks stripe across the groups) and one for the shared exponents.  Within a
group, BRAM ``k`` stores column ``k`` of each block, so one byte per BRAM
per cycle yields a full X row for the (delay-chain skewed) systolic array.
The Y buffer replicates the mantissa bank (16 + 16 + 1 BRAMs = 33) because
the combined-MAC optimization streams *two* resident Y blocks at once.

fp32 mode
---------
The same 16 mantissa BRAMs are repurposed: each fp32 value owns 4 BRAMs —
three 8-bit mantissa slices plus one exponent byte — so the 128-bit port
yields exactly **4 fp32 values per cycle**, which is why only 4 of the 8 PE
columns can be used in fp32 mode (Section II-C).  The sign bit is stored in
bit 7 of the top slice byte: for normalized values bit 23 of the magnitude
is the implicit one and need not be stored, so the top byte packs
``sign << 7 | magnitude[22:16]`` and an exponent byte of 0 denotes zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from repro.errors import ConfigurationError, HardwareContractError
from repro.formats import fp32bits
from repro.formats.bfp8 import BLOCK_COLS, BLOCK_ROWS, BfpBlock
from repro.hw.bram import BRAM18_BYTES, Bram18

__all__ = [
    "XBuffer",
    "YBuffer",
    "MAX_X_BLOCKS",
    "MAX_FP32_STREAM",
    "FP32_LANES",
]

MAX_X_BLOCKS = 64  # paper II-D: continuous X stream bound (PSU depth 512)
MAX_FP32_STREAM = 128  # paper II-D: L_fp32 bound (single BRAM18 capacity share)
FP32_LANES = 4

BufferMode = Literal["idle", "bfp8", "fp32"]


def _encode_fp32_bytes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encode float32 values into (4, n) slice bytes + zero-flag handling.

    Returns ``(bytes_, exps)`` where ``bytes_[0..2]`` are mantissa slice
    bytes (top slice packed with the sign) and ``exps`` the exponent bytes.
    """
    values = np.asarray(values, dtype=np.float32)
    sign, exp, man = fp32bits.decompose(values)
    slices = fp32bits.mantissa_slices(man)
    top = (sign.astype(np.int64) << 7) | (slices[..., 2] & 0x7F)
    bytes_ = np.stack([slices[..., 0], slices[..., 1], top], axis=0)
    return bytes_.astype(np.int64), exp.astype(np.int64)


def _decode_fp32_bytes(
    b0: int, b1: int, b2: int, exp: int
) -> tuple[int, int, int]:
    """Inverse of :func:`_encode_fp32_bytes` for one value.

    Returns ``(sign, biased_exp, man24)``; an exponent byte of 0 is zero.
    """
    if exp == 0:
        return 0, 0, 0
    sign = (b2 >> 7) & 1
    man = ((0x80 | (b2 & 0x7F)) << 16) | ((b1 & 0xFF) << 8) | (b0 & 0xFF)
    return sign, exp, man


@dataclass
class XBuffer:
    """17-BRAM X-side buffer (16 mantissa + 1 exponent)."""

    name: str = "xbuf"
    mode: BufferMode = "idle"
    brams: list[Bram18] = field(default_factory=list)
    _n_blocks: int = 0
    _fp32_len: int = 0

    def __post_init__(self) -> None:
        if not self.brams:
            self.brams = [Bram18(f"{self.name}.man{i}") for i in range(16)]
            self.brams.append(Bram18(f"{self.name}.exp"))
        if len(self.brams) != 17:
            raise ConfigurationError("X buffer requires exactly 17 BRAM18s")

    @property
    def n_brams(self) -> int:
        return len(self.brams)

    @property
    def exponent_bram(self) -> Bram18:
        return self.brams[16]

    # -- bfp8 ----------------------------------------------------------------
    def load_bfp_blocks(self, blocks: list[BfpBlock]) -> None:
        """Store a continuous X block stream (group-striped, Fig. 4)."""
        if len(blocks) == 0:
            raise ConfigurationError("empty X block stream")
        if len(blocks) > MAX_X_BLOCKS:
            raise HardwareContractError(
                f"X stream of {len(blocks)} blocks exceeds the "
                f"{MAX_X_BLOCKS}-block limit (PSU depth)"
            )
        self.mode = "bfp8"
        self._n_blocks = len(blocks)
        for b_idx, block in enumerate(blocks):
            if block.shape != (BLOCK_ROWS, BLOCK_COLS):
                raise ConfigurationError(f"X block {b_idx} is not 8x8")
            group = b_idx % 2
            depth = (b_idx // 2) * BLOCK_ROWS
            if depth + BLOCK_ROWS > BRAM18_BYTES:
                raise HardwareContractError("X buffer BRAM capacity exceeded")
            for k in range(BLOCK_COLS):
                self.brams[group * 8 + k].write_block(
                    depth, block.mantissas[:, k].astype(np.int64)
                )
            self.exponent_bram.write(b_idx, int(block.exponent) & 0xFF)

    def read_bfp_row(self, block_idx: int, row: int) -> tuple[np.ndarray, int]:
        """One cycle's port read: row ``row`` of block ``block_idx`` + exp."""
        if self.mode != "bfp8":
            raise HardwareContractError("X buffer not in bfp8 mode")
        if not (0 <= block_idx < self._n_blocks):
            raise HardwareContractError(f"X block index {block_idx} out of range")
        group = block_idx % 2
        depth = (block_idx // 2) * BLOCK_ROWS + row
        row_vals = np.array(
            [self.brams[group * 8 + k].read(depth) for k in range(BLOCK_COLS)],
            dtype=np.int64,
        )
        exp = self.exponent_bram.read(block_idx)
        return row_vals, exp

    @property
    def n_blocks(self) -> int:
        return self._n_blocks

    # -- fp32 ----------------------------------------------------------------
    def load_fp32(self, values: np.ndarray) -> None:
        """Store an fp32 stream of shape ``(4, L)`` — 4 lanes, length L."""
        values = np.asarray(values, dtype=np.float32)
        if values.ndim != 2 or values.shape[0] != FP32_LANES:
            raise ConfigurationError("fp32 stream must have shape (4, L)")
        L = values.shape[1]
        if L == 0:
            raise ConfigurationError("empty fp32 stream")
        if L > MAX_FP32_STREAM:
            raise HardwareContractError(
                f"fp32 stream length {L} exceeds the {MAX_FP32_STREAM} limit"
            )
        self.mode = "fp32"
        self._fp32_len = L
        bytes_, exps = _encode_fp32_bytes(values)  # (3, 4, L), (4, L)
        for lane in range(FP32_LANES):
            for s in range(3):
                self.brams[lane * 4 + s].write_block(0, bytes_[s, lane])
            self.brams[lane * 4 + 3].write_block(0, exps[lane] & 0xFF)

    def read_fp32(self, lane: int, pos: int) -> tuple[int, int, int]:
        """One lane's port read at stream position ``pos``: (sign, exp, man24)."""
        if self.mode != "fp32":
            raise HardwareContractError("X buffer not in fp32 mode")
        if not (0 <= lane < FP32_LANES and 0 <= pos < self._fp32_len):
            raise HardwareContractError("fp32 read out of range")
        b0 = self.brams[lane * 4 + 0].read(pos)
        b1 = self.brams[lane * 4 + 1].read(pos)
        b2 = self.brams[lane * 4 + 2].read(pos)
        exp = self.brams[lane * 4 + 3].read(pos)
        return _decode_fp32_bytes(b0 & 0xFF, b1 & 0xFF, b2 & 0xFF, exp & 0xFF)


@dataclass
class YBuffer(XBuffer):
    """33-BRAM Y-side buffer: replicated mantissa banks for the packed pair.

    Bank 0 (BRAMs 0..15) follows the X layout; bank 1 (BRAMs 17..32) holds
    the second resident Y block's mantissas so both can stream per cycle.
    In fp32 mode only bank 0 is used.
    """

    name: str = "ybuf"

    def __post_init__(self) -> None:
        if not self.brams:
            self.brams = [Bram18(f"{self.name}.man{i}") for i in range(16)]
            self.brams.append(Bram18(f"{self.name}.exp"))
            self.brams.extend(Bram18(f"{self.name}.man{i + 16}") for i in range(16))
        if len(self.brams) != 33:
            raise ConfigurationError("Y buffer requires exactly 33 BRAM18s")

    def load_bfp_pair(self, y_hi: BfpBlock, y_lo: BfpBlock) -> None:
        """Store the two resident Y blocks (combined-MAC pair)."""
        for name, blk in (("y_hi", y_hi), ("y_lo", y_lo)):
            if blk.shape != (BLOCK_ROWS, BLOCK_COLS):
                raise ConfigurationError(f"{name} is not 8x8")
        self.mode = "bfp8"
        self._n_blocks = 2
        for k in range(BLOCK_COLS):
            self.brams[k].write_block(0, y_hi.mantissas[:, k].astype(np.int64))
            self.brams[17 + k].write_block(0, y_lo.mantissas[:, k].astype(np.int64))
        self.exponent_bram.write(0, int(y_hi.exponent) & 0xFF)
        self.exponent_bram.write(1, int(y_lo.exponent) & 0xFF)

    def read_bfp_pair_row(self, row: int) -> tuple[np.ndarray, np.ndarray, int, int]:
        """Both resident blocks' row ``row`` plus their exponents."""
        if self.mode != "bfp8":
            raise HardwareContractError("Y buffer not in bfp8 mode")
        hi = np.array([self.brams[k].read(row) for k in range(BLOCK_COLS)], dtype=np.int64)
        lo = np.array(
            [self.brams[17 + k].read(row) for k in range(BLOCK_COLS)], dtype=np.int64
        )
        e_hi = self.exponent_bram.read(0)
        e_lo = self.exponent_bram.read(1)
        return hi, lo, e_hi, e_lo
