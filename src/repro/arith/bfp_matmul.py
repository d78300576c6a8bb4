"""Reference semantics of bfp8 matrix multiplication (paper Eqns 2-3).

Multiplying two bfp8 blocks is an int8 matrix multiply of the mantissas plus
an int8 add of the shared exponents (Eqn 2).  Accumulating across the K
dimension of a tiled matmul requires *alignment*: the partial block with the
smaller exponent is right-shifted (truncating) before the integer add
(Eqn 3), exactly what the per-column shifter + PSU accumulator do in
hardware.

The per-block functions (:func:`block_matmul`, :func:`accumulate`,
:func:`bfp_matmul_dense`) are the numerical oracle for the cycle-level
simulator in ``repro.hw``.  Model emulation has one bfp kernel,
:func:`fast_emulate_blocks`: every emulated bfp matmul — eager ViT and
prefill, the format registry, compiled decode replay — runs it through
:func:`bfp_matmul_prepared` or :func:`bfp_matmul_from_tiles`.  Like the
PSU accumulator, it aligns each partial block once to the running PSU
exponent as the block arrives, rescales the PSU only at K steps where
some running exponent grows, and streams K in L2-sized chunks, so the
full ``(Kb, M, N)`` tensor of block products never exists.  Like the
array's columns, each output column block is its own chain, so large
calls run disjoint column blocks on every core the process may use.  It
computes in float32 wherever that is exact (padded K up to 1,040, every
matmul of TinyLM decode and DeiT-Tiny encode) and in float64 above, and
stays exact either way, because every intermediate is an integer below
``K * 127^2`` and every scaling is a power of two (:func:`_chain_dtype`).
Operands are quantized once, straight into the float32 layouts the
kernel reads (:func:`stream_tiles`, :func:`resident_tiles`).  The integer
:func:`_emulate_blocks` is its bit-exact reference: the tests compare
the two, and it still runs in exactly two cases the float kernel does
not cover — an attached :class:`AlignmentProbe` (the probe lives in the
integer loop), and a reduction too deep for float64 to stay exact
(:func:`_fast_ok`).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, HardwareContractError
from repro.formats.bfp8 import (
    BLOCK_COLS,
    BLOCK_ROWS,
    MAN_MAX,
    BfpBlock,
    quantize_dense,
)
from repro.formats.blocking import BfpMatrix
from repro.formats.rounding import RoundingMode, shift_right

__all__ = [
    "WideBlock",
    "BfpWeight",
    "BfpStream",
    "PSU_WIDTH",
    "AlignmentProbe",
    "set_alignment_probe",
    "get_alignment_probe",
    "block_matmul",
    "accumulate",
    "requantize_wide",
    "bfp_matmul_dense",
    "bfp_matmul",
    "bfp_matmul_emulate",
    "bfp_matmul_prepared",
    "bfp_batched_tiles",
    "bfp_matmul_from_tiles",
    "stream_tiles",
    "resident_tiles",
    "stream_grid",
    "resident_grid",
    "fast_emulate_blocks",
    "activation_blocks",
]

PSU_WIDTH = 48  # DSP48E2 accumulator / PSU buffer word width


@dataclass
class AlignmentProbe:
    """Observer for the shift-aware aligned-width predictor (extension).

    While attached (:func:`set_alignment_probe`), every emulated matmul
    runs on the integer :func:`_emulate_blocks`, where each sequential PSU
    alignment step also runs the exponent unit's magnitude-bound predictor
    (:func:`repro.hw.exponent_unit.predict_aligned_bound` semantics,
    vectorized) and cross-checks it against the emulated mantissas.  The
    probe only *observes* — results are bit-identical with or without it —
    so a zero ``under_predictions`` count is a machine-checked proof that
    bypassing the upper shifter stage on predicted-narrow steps
    (:func:`repro.hw.shifter.alignment_shift_cycles`) loses nothing.
    ``narrow_frac`` is the measured input to the cost model's
    ``align_narrow_frac`` knob.
    """

    narrow_bits: int | None = None  # default: repro.hw.shifter.NARROW_ALIGN_BITS
    steps: int = 0
    narrow_steps: int = 0
    under_predictions: int = 0
    max_predicted_width: int = 0
    max_actual_width: int = 0

    def __post_init__(self) -> None:
        if self.narrow_bits is None:
            from repro.hw.shifter import NARROW_ALIGN_BITS

            self.narrow_bits = NARROW_ALIGN_BITS

    @property
    def narrow_frac(self) -> float:
        return self.narrow_steps / self.steps if self.steps else 0.0

    def observe(self, bounds: np.ndarray, actual_mags: np.ndarray) -> None:
        """Fold one alignment step's predicted bounds + actual magnitudes."""
        bounds = np.asarray(bounds, dtype=np.int64)
        actual = np.asarray(actual_mags, dtype=np.int64)
        self.steps += int(bounds.size)
        self.narrow_steps += int(
            (bounds < (np.int64(1) << self.narrow_bits)).sum()
        )
        self.under_predictions += int((actual > bounds).sum())
        # frexp's exponent is the bit length (exact: bounds stay far
        # below 2**53).
        if bounds.size:
            self.max_predicted_width = max(
                self.max_predicted_width,
                int(np.frexp(bounds.astype(np.float64))[1].max()),
            )
            self.max_actual_width = max(
                self.max_actual_width,
                int(np.frexp(actual.astype(np.float64))[1].max()),
            )

    def as_dict(self) -> dict:
        return {
            "steps": self.steps,
            "narrow_steps": self.narrow_steps,
            "narrow_frac": self.narrow_frac,
            "under_predictions": self.under_predictions,
            "max_predicted_width": self.max_predicted_width,
            "max_actual_width": self.max_actual_width,
            "narrow_bits": self.narrow_bits,
        }


_ALIGN_PROBE: AlignmentProbe | None = None


def set_alignment_probe(
    probe: AlignmentProbe | None,
) -> AlignmentProbe | None:
    """Attach (or detach with ``None``) the alignment probe; returns the
    previous one.  The emulation hot path pays one ``is None`` check per
    call when detached."""
    global _ALIGN_PROBE
    previous = _ALIGN_PROBE
    _ALIGN_PROBE = probe
    return previous


def get_alignment_probe() -> AlignmentProbe | None:
    return _ALIGN_PROBE


@dataclass(frozen=True)
class WideBlock:
    """A partial-sum block in the PSU domain: wide mantissas + exponent.

    ``mantissas`` are int64 values guaranteed (by contract checks) to fit the
    48-bit PSU; ``exponent`` is the shared block exponent of the partial sum.
    """

    mantissas: np.ndarray
    exponent: int

    def __post_init__(self) -> None:
        man = np.asarray(self.mantissas, dtype=np.int64)
        limit = np.int64(1) << (PSU_WIDTH - 1)
        if man.size and (man.min() < -limit or man.max() >= limit):
            raise HardwareContractError("mantissa exceeds the 48-bit PSU width")
        object.__setattr__(self, "mantissas", man)
        object.__setattr__(self, "exponent", int(self.exponent))

    def decode(self) -> np.ndarray:
        return self.mantissas.astype(np.float64) * np.ldexp(1.0, self.exponent)


def block_matmul(x: BfpBlock, y: BfpBlock) -> WideBlock:
    """Multiply two bfp8 blocks (Eqn 2): int mantissa matmul, exponent add."""
    if x.shape[1] != y.shape[0]:
        raise ConfigurationError(
            f"inner dimensions disagree: {x.shape} @ {y.shape}"
        )
    man = x.mantissas.astype(np.int64) @ y.mantissas.astype(np.int64)
    return WideBlock(man, x.exponent + y.exponent)


def accumulate(psu: WideBlock | None, incoming: WideBlock) -> WideBlock:
    """Aligned accumulation of partial blocks (Eqn 3).

    The operand with the smaller exponent is truncating-right-shifted so both
    share the larger exponent, then added.  ``psu is None`` models an empty
    PSU buffer (first partial block of a tile row).
    """
    if psu is None:
        return incoming
    if psu.exponent >= incoming.exponent:
        d = psu.exponent - incoming.exponent
        man = psu.mantissas + shift_right(incoming.mantissas, d, "truncate")
        exp = psu.exponent
    else:
        d = incoming.exponent - psu.exponent
        man = incoming.mantissas + shift_right(psu.mantissas, d, "truncate")
        exp = incoming.exponent
    return WideBlock(man, exp)


def requantize_wide(wide: WideBlock) -> BfpBlock:
    """Hardware output quantizer: renormalize a PSU block back to bfp8.

    Finds the smallest shift that brings every mantissa into [-127, 127]
    (nearest-even on the discarded bits, with a one-step bump if rounding
    overflows), and adds the shift to the exponent.
    """
    man = wide.mantissas
    amax = int(np.abs(man).max()) if man.size else 0
    shift = 0
    while (amax >> shift) > 127:
        shift += 1
    out = shift_right(man, shift, "nearest_even")
    if out.size and int(np.abs(out).max()) > 127:
        shift += 1
        out = shift_right(man, shift, "nearest_even")
    exp = wide.exponent + shift
    if exp > 127:
        raise HardwareContractError(
            f"requantized block exponent {exp} exceeds the 8-bit field"
        )
    if exp < -128:
        # Value too small for the exponent field: shift mantissas right to
        # raise the exponent to the representable minimum (precision loss).
        out = shift_right(out, -128 - exp, "nearest_even")
        exp = -128
    return BfpBlock(np.clip(out, -127, 127).astype(np.int8), exp)


def bfp_matmul_dense(a: BfpMatrix, b: BfpMatrix) -> np.ndarray:
    """Tiled bfp8 matmul returning the dequantized dense result (float64).

    Faithful to hardware accumulation order (K blocks in ascending order,
    truncating alignment at each step).
    """
    if a.shape[1] != b.shape[0]:
        raise ConfigurationError(f"inner dimensions disagree: {a.shape} @ {b.shape}")
    rb, kb = a.block_grid
    kb2, cb = b.block_grid
    if kb != kb2:
        raise ConfigurationError("block grids disagree on the inner dimension")
    r, _ = a.block_shape
    _, c = b.block_shape
    out = np.zeros((rb * r, cb * c), dtype=np.float64)
    for bi in range(rb):
        for bj in range(cb):
            psu: WideBlock | None = None
            for bk in range(kb):
                prod = block_matmul(a.block(bi, bk), b.block(bk, bj))
                psu = accumulate(psu, prod)
            assert psu is not None
            out[bi * r : (bi + 1) * r, bj * c : (bj + 1) * c] = psu.decode()
    return out[: a.shape[0], : b.shape[1]]


def bfp_matmul(a: BfpMatrix, b: BfpMatrix) -> BfpMatrix:
    """Tiled bfp8 matmul with hardware output requantization to bfp8."""
    if a.shape[1] != b.shape[0]:
        raise ConfigurationError(f"inner dimensions disagree: {a.shape} @ {b.shape}")
    rb, kb = a.block_grid
    _, cb = b.block_grid
    r, _ = a.block_shape
    _, c = b.block_shape
    man = np.zeros((rb, cb, r, c), dtype=np.int16)
    exps = np.zeros((rb, cb), dtype=np.int16)
    for bi in range(rb):
        for bj in range(cb):
            psu: WideBlock | None = None
            for bk in range(kb):
                psu = accumulate(psu, block_matmul(a.block(bi, bk), b.block(bk, bj)))
            assert psu is not None
            q = requantize_wide(psu)
            man[bi, bj] = q.mantissas
            exps[bi, bj] = q.exponent
    return BfpMatrix(man, exps, (a.shape[0], b.shape[1]))


#: :func:`~repro.formats.bfp8.quantize_dense` orders of the tile axes (row
#: block, row in block, column block, column in block) for the kernel's two
#: operands.  The streamed left operand is one ``(M, h)`` slab per K block,
#: ``(..., Kb, Rb*r, h)``.  The resident right operand ``(..., Kb, h, Cb*c)``
#: is the zero-padded matrix itself, so all Cb column blocks of one K block
#: form a single matmul operand: one BLAS slice per K block.
_STREAM_ORDER = (2, 0, 1, 3)
_RESIDENT_ORDER = (0, 1, 2, 3)


def _flatten_cols(b_man: np.ndarray) -> np.ndarray:
    """Right-operand block grid ``(..., Kb, Cb, h, c)`` -> the kernel's
    float32 ``(..., Kb, h, Cb*c)``."""
    kb, cb, h, c = b_man.shape[-4:]
    return np.ascontiguousarray(
        b_man.astype(np.float32).swapaxes(-2, -3)
    ).reshape(*b_man.shape[:-4], kb, h, cb * c)


def _stream_layout(a_man: np.ndarray) -> np.ndarray:
    """Left-operand block grid ``(..., Rb, Kb, r, h)`` -> the kernel's
    float32 ``(..., Kb, Rb*r, h)``."""
    rb, kb, r, h = a_man.shape[-4:]
    return np.ascontiguousarray(
        np.swapaxes(a_man, -4, -3), dtype=np.float32
    ).reshape(*a_man.shape[:-4], kb, rb * r, h)


def stream_grid(
    a_man: np.ndarray, a_exp: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel-layout left-operand tiles back on the block grid:
    ``(..., Kb, Rb*r, h)`` mantissas -> ``(..., Rb, Kb, r, h)``, exponents
    unchanged, the layout the numerics monitor reads."""
    kb, rows, h = a_man.shape[-3:]
    rb = a_exp.shape[-2]
    grid = a_man.reshape(*a_man.shape[:-2], rb, rows // max(rb, 1), h)
    return grid.swapaxes(-4, -3), a_exp


def resident_grid(
    b_man: np.ndarray, b_exp: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel-layout right-operand tiles back on the block grid:
    ``(..., Kb, h, Cb*c)`` mantissas -> ``(..., Kb, Cb, h, c)``, exponents
    unchanged."""
    cb = b_exp.shape[-1]
    grid = b_man.reshape(*b_man.shape[:-1], cb, b_man.shape[-1] // max(cb, 1))
    return grid.swapaxes(-3, -2), b_exp


@dataclass(frozen=True)
class BfpWeight:
    """A quantized right-hand operand in matmul-ready layout.

    Built once per weight (prepare time): :meth:`from_dense` quantizes
    straight into the kernel's ``(Kb, h, Cb*c)`` float32 layout, so the
    kernel's mantissa product needs no per-call cast or re-layout — the
    per-call work the Y-stationary hardware also never repeats.  The codes
    are held once, in that layout; :attr:`matrix` rebuilds the block grid
    for observers.
    """

    man: np.ndarray  # (Kb, h, Cb*c) float32, integer-valued
    exp: np.ndarray  # (Kb, Cb) int64
    shape: tuple[int, int]

    @classmethod
    def from_matrix(cls, bm: BfpMatrix) -> "BfpWeight":
        return cls(
            _flatten_cols(bm.mantissas), bm.exponents.astype(np.int64),
            bm.shape,
        )

    @classmethod
    def from_dense(
        cls,
        w: np.ndarray,
        *,
        man_bits: int = 8,
        rounding: RoundingMode = "nearest_even",
    ) -> "BfpWeight":
        w = np.asarray(w)
        if w.ndim != 2:
            raise ConfigurationError("BfpWeight.from_dense expects a 2-D array")
        man, exp = quantize_dense(
            w, order=_RESIDENT_ORDER, rounding=rounding, man_bits=man_bits
        )
        kb, h, cb, c = man.shape
        return cls(man.reshape(kb, h, cb * c), exp, w.shape)

    @property
    def matrix(self) -> BfpMatrix:
        """The same codes on the block grid (a fresh int16 copy), for
        observers."""
        return BfpMatrix(*resident_grid(self.man, self.exp), self.shape)

    @property
    def block_shape(self) -> tuple[int, int]:
        h, cols = self.man.shape[-2:]
        return h, cols // max(self.exp.shape[-1], 1)

    def to_dense(self) -> np.ndarray:
        return self.matrix.to_dense()


@dataclass(frozen=True)
class BfpStream:
    """A quantized left-hand (streamed) operand in the kernel's layout.

    The activation-side twin of :class:`BfpWeight`:
    :func:`activation_blocks` quantizes straight into ``man``, so the
    kernel multiplies the mantissas with no cast or re-layout.
    """

    man: np.ndarray  # (Kb, Rb*r, h) float32, integer-valued
    exp: np.ndarray  # (Rb, Kb) int64
    shape: tuple[int, int]

    @classmethod
    def from_matrix(cls, am: BfpMatrix) -> "BfpStream":
        return cls(
            _stream_layout(am.mantissas), am.exponents.astype(np.int64),
            am.shape,
        )

    @property
    def block_shape(self) -> tuple[int, int]:
        rows, h = self.man.shape[-2:]
        return rows // max(self.exp.shape[-2], 1), h

    def to_matrix(self) -> BfpMatrix:
        """The same codes on the block grid, for observers."""
        return BfpMatrix(*stream_grid(self.man, self.exp), self.shape)


def activation_blocks(a: np.ndarray, *, man_bits: int = 8) -> BfpStream:
    """Block-quantize an activation matrix with trimmed block rows.

    A decode-step activation is a single row; padding it to the full 8-row
    tile makes the mantissa matmul do 8x the useful work on zeros.  For
    matrices shorter than one tile this uses ``M``-row blocks instead —
    *bit-identical* to the padded encoding, because padded rows are zero:
    they leave the shared exponent unchanged (it is chosen from the tile's
    max magnitude) and contribute zero products to every partial sum.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ConfigurationError("activation_blocks expects a 2-D array")
    return BfpStream(*stream_tiles(a, man_bits=man_bits), a.shape)


def stream_tiles(
    a: np.ndarray, *, man_bits: int = 8
) -> tuple[np.ndarray, np.ndarray]:
    """Quantize the streamed (left) operand ``(..., M, K)`` of a matmul
    into the kernel's layout: ``(..., Kb, Mb*r, 8)`` float32 mantissas and
    ``(..., Mb, Kb)`` int64 exponents, with row blocks trimmed to ``M``
    rows below one tile (see :func:`activation_blocks`)."""
    m = a.shape[-2]
    rows = BLOCK_ROWS if m >= BLOCK_ROWS else max(1, m)
    man, exp = quantize_dense(
        a, rows, BLOCK_COLS, order=_STREAM_ORDER, man_bits=man_bits
    )
    kb, mb = man.shape[-4:-2]
    return man.reshape(*man.shape[:-4], kb, mb * rows, BLOCK_COLS), exp


def resident_tiles(
    b: np.ndarray, *, man_bits: int = 8
) -> tuple[np.ndarray, np.ndarray]:
    """Quantize the resident (right) operand ``(..., K, N)`` of a matmul
    into the kernel's layout: ``(..., Kb, 8, Cb*8)`` float32 mantissas and
    ``(..., Kb, Cb)`` int64 exponents, the layout a :class:`BfpWeight`
    holds for a weight.

    Quantization is per 8x8 block, so the tiles of a slab of whole K (or
    N) blocks are exactly those blocks' tiles in the whole operand.
    """
    man, exp = quantize_dense(b, order=_RESIDENT_ORDER, man_bits=man_bits)
    cb = man.shape[-2]
    return man.reshape(*man.shape[:-2], cb * BLOCK_COLS), exp


def _emulate_blocks(
    a_k: np.ndarray,
    a_exp: np.ndarray,
    b_flat: np.ndarray,
    b_exp: np.ndarray,
) -> np.ndarray:
    """Integer block-grid matmul: the reference for the float kernel.

    Takes the kernel's operand layouts (:func:`stream_tiles`,
    :func:`resident_tiles`), widened to int64 here: ``a_k``:
    ``(..., Kb, Rb*r, h)`` left mantissas; ``a_exp``: ``(..., Rb, Kb)``;
    ``b_flat``: ``(..., Kb, h, Cb*c)`` right mantissas; ``b_exp``:
    ``(..., Kb, Cb)``.  Leading batch dimensions are optional and
    broadcast-compatible.  Returns the dense padded result
    ``(..., Rb*r, Cb*c)`` in float64.

    It keeps the per-K-block Python loop: the running PSU exponent makes
    each alignment depend on the previous step, exactly as in hardware.
    """
    a_k = np.asarray(a_k, dtype=np.int64)
    a_exp = np.asarray(a_exp, dtype=np.int64)
    b_flat = np.asarray(b_flat, dtype=np.int64)
    b_exp = np.asarray(b_exp, dtype=np.int64)
    kb, rows, h = a_k.shape[-3:]
    rb, cb = a_exp.shape[-2], b_exp.shape[-1]
    nc = b_flat.shape[-1]
    lead = np.broadcast_shapes(a_k.shape[:-3], b_flat.shape[:-3])
    if kb == 0 or cb == 0 or rb == 0:
        return np.zeros((*lead, rows, nc), dtype=np.float64)
    r, c = rows // rb, nc // cb
    a_sw = a_k.reshape(*a_k.shape[:-2], rb, r, h)  # (..., Kb, Rb, r, h)

    # Mantissa products are independent of accumulation order, so compute
    # them for every K block in one batched matmul up front — one gufunc
    # slice per (K block, row block) thanks to the flat column layout;
    # only the truncating alignment chain below is inherently sequential.
    prods = np.matmul(
        a_sw,  # (..., Kb, Rb, r, h)
        b_flat[..., :, None, :, :],  # (..., Kb, 1, h, Cb*c)
    )  # (..., Kb, Rb, r, Cb*c)
    exps = a_exp.swapaxes(-2, -1)[..., None] + b_exp[..., None, :]
    # (..., Kb, Rb, Cb)

    # The PSU exponent after block k is the prefix max of the product
    # exponents, so every alignment decision (who shifts, by how much) is
    # known up front; only the truncating integer adds are sequential.
    # A clamp at 63 preserves shift_right's >=63 saturation for the
    # truncate mode (an arithmetic ``x >> 63`` is already the sign).
    run = np.maximum.accumulate(exps, axis=-3)
    keeps = run[..., :-1, :, :] >= exps[..., 1:, :, :]
    ds = np.minimum(np.abs(run[..., :-1, :, :] - exps[..., 1:, :, :]), 63)
    # Per-step "is every PSU keeping its exponent" flags, reduced once up
    # front: a True step needs no branch select in the loop below.
    kb_axis = keeps.ndim - 3
    uniform = keeps.all(axis=tuple(i for i in range(keeps.ndim) if i != kb_axis))

    probe = _ALIGN_PROBE
    if probe is not None:
        # Format-level magnitude bound on one product block: ``h`` MACs of
        # the operands' largest mantissa codes — the constant a hardware
        # exponent unit derives from the format alone.
        m_a = int(np.abs(a_k).max()) if a_k.size else 0
        m_b = int(np.abs(b_flat).max()) if b_flat.size else 0
        w0_bound = np.int64(h * m_a * m_b)
        pred_bound = np.full_like(exps[..., 0, :, :], w0_bound)

    pv = prods.reshape(*prods.shape[:-1], cb, c)  # (..., Kb, Rb, r, Cb, c)
    psu_man = pv[..., 0, :, :, :, :]  # (..., Rb, r, Cb, c)
    for bk in range(1, kb):
        prod = pv[..., bk, :, :, :, :]
        d = ds[..., bk - 1, :, None, :, None]
        if uniform[bk - 1]:
            psu_man = psu_man + (prod >> d)
        else:
            psu_man = np.where(
                keeps[..., bk - 1, :, None, :, None],
                psu_man + (prod >> d),
                prod + (psu_man >> d),
            )
        if probe is not None:
            # Predictor update mirrors predict_aligned_bound(): the
            # shifted side's bound gains +1 (truncation of a negative
            # value can round its magnitude up), then the sides add.
            d_s = ds[..., bk - 1, :, :]
            k_s = keeps[..., bk - 1, :, :]
            nz = (d_s > 0).astype(np.int64)
            pred_bound = np.where(
                k_s,
                pred_bound + (w0_bound >> d_s) + nz,
                (pred_bound >> d_s) + nz + w0_bound,
            )
            probe.observe(pred_bound, np.abs(psu_man).max(axis=(-3, -1)))
    limit = np.int64(1) << (PSU_WIDTH - 1)
    if psu_man.size and (psu_man.min() < -limit or psu_man.max() >= limit):
        raise HardwareContractError("emulated PSU overflowed 48 bits")
    dense = psu_man.astype(np.float64) * np.exp2(
        run[..., -1, :, :].astype(np.float64)
    )[..., :, None, :, None]
    return dense.reshape(*lead, rb * r, nc)


def _fast_ok(depth: int) -> bool:
    """Whether float64 arithmetic is exact for a ``depth``-long reduction.

    Every intermediate of :func:`fast_emulate_blocks` is an integer
    bounded by ``depth * MAN_MAX**2`` (products of two clamped mantissas
    summed over the padded K extent; aligned partials only shrink);
    exactness needs that below 2^52.
    """
    return depth * MAN_MAX * MAN_MAX < 1 << 52


def _chain_dtype(depth: int) -> type[np.floating]:
    """The float type :func:`fast_emulate_blocks` runs a ``depth``-long
    reduction in: float32 while the same ``depth * MAN_MAX**2`` bound is
    below 2^24, float32's exact-integer range (padded K up to 1,040),
    float64 above it."""
    return np.float32 if depth * MAN_MAX * MAN_MAX < 1 << 24 else np.float64


#: The oracle's ``>> 63`` saturation: alignment and growth shifts are
#: clamped here, which also keeps every float32 factor ``2^-d`` normal.
_MAX_SHIFT = 63

#: Block products one kernel part holds at once: 512 KiB of float32 (1 MiB
#: on the float64 chain), a quarter of the 2 MiB per-core L2 of the x86
#: benchmark host.  K streams through in chunks of this many elements, or
#: one K block at a time when a single block is larger.  Re-measured for
#: the float32 chain (2-core host, single-threaded BLAS, captured calls
#: replayed in alternation): a batch-8 decode step's 13 calls took 5.8,
#: 5.3, 5.2, 5.4 and 5.6 ms at 2^15 ... 2^19, a DeiT-Tiny image plus a
#: 120-token prefill 131, 132, 124, 124 and 141 ms.
_CHUNK_ELEMS = 2**17

#: PSU elements (output elements, padding included) from which a kernel
#: call splits its column blocks across cores, each part keeping at least
#: half of them.  Smaller calls stay on the calling thread, where thread
#: hand-off and GIL contention cost more than a part saves.  The float32
#: chain halves a part's arithmetic but not its Python per K step, so the
#: threshold doubled from the float64 chain's 30,000: on a 2-core host
#: with single-threaded BLAS, one encode round's 134 calls (a 12-block
#: DeiT-Tiny image and four prefills) took 451 ms split from 30,000,
#: 424 ms from 60,000, about the same from 100,000 to 200,000, and
#: 478 ms unsplit; DeiT-Tiny's fc2 and P.V calls (38,400) now run
#: 1.1-1.3x slower split.  Decode (at most 16,384) never splits.
_SPLIT_ELEMS = 60_000

_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()


def _threads() -> int:
    """CPUs this process may run on: the threads a split call uses, the
    calling thread included.  ``taskset -c 0`` makes it 1."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _pool() -> ThreadPoolExecutor:
    """The worker threads of split kernel calls, created on first use."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(
                max_workers=max(1, _threads() - 1),
                thread_name_prefix="bfp-kernel",
            )
        return _POOL


def _forget_pool() -> None:
    # A forked child has none of its parent's threads.
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def fast_emulate_blocks(
    a_k: np.ndarray,
    a_exp: np.ndarray,
    b_flat: np.ndarray,
    b_exp: np.ndarray,
) -> np.ndarray:
    """The bfp kernel: :func:`_emulate_blocks` computed in floating
    point, bit for bit, on the same operand layouts.

    Mantissa products run as BLAS matmuls, one per K block over every row
    block, and the truncating alignment ``x >> d`` becomes
    ``floor(x * 2^-d)``.  With ``run_k`` the running PSU exponent after K
    step ``k`` (the prefix max of the product exponents ``e_k``), the
    oracle's keep/grow branches are one update, as in the PSU datapath::

        psu_k = floor(psu_{k-1} * 2^(run_{k-1} - run_k))
              + floor(prod_k * 2^(e_k - run_k))

    so each block product is aligned once, in place, to its step's
    running exponent, and the PSU is rescaled only at steps where some
    block's running exponent grows; elsewhere the update is a plain sum.
    K streams through one reused slab of at most ``_CHUNK_ELEMS``
    products, so the full ``(Kb, M, N)`` product tensor never exists.

    Every output column block is its own PSU chain, as every array
    column has its own shifter and accumulator in hardware.  A call
    whose PSU holds at least ``_SPLIT_ELEMS`` elements therefore cuts its
    column blocks into contiguous parts, at most one per CPU this process
    may use, and runs them concurrently: part 0 on the calling thread,
    the rest on a pool of worker threads.  Each part runs the unchanged chain
    on its own columns and writes them into one shared output.  Workers
    call only private functions, never a public name that a profiler may
    have wrapped.  A one-part call runs its chain directly, with no pool.

    The chain — products, alignment floors, PSU sums and rescales — runs
    in :func:`_chain_dtype` of the padded depth: float32 up to K = 1,040,
    so every pass moves half the bytes at twice the SIMD width, and
    float64 above, on operands cast per call.  Exact either way:

    * *Products and sums.*  A product is ``h = 8`` terms of at most
      ``127^2``, below 2^17, and every PSU value is an integer below
      ``depth * 127^2``, which the dtype rule keeps inside the dtype's
      exact-integer range.  So BLAS sums (FMA included) are exact in any
      order, and aligned partials only shrink.
    * *Shifts.*  Alignment and growth factors are exact powers of two,
      computed in float64 and cast, and read from one table per chain
      dtype (``_HALVINGS``).  Each shift is clamped at
      ``_MAX_SHIFT`` = 63, as the oracle clamps ``>> 63``: a floor by
      ``2^-d`` is then the oracle's shift for every ``d`` (the sign once
      ``2^d`` passes the bound), and ``2^-63`` is a normal float32.
      Unclamped, a shift past 149 would underflow a negative partial to
      ``-0.0`` and its floor would lose the ``-1``.
    * *Final scale.*  ``psu * 2^run`` is computed in float64, because
      ``run`` reaches +/-254, beyond float32's range.

    No value depends on which columns share a part.
    """
    dtype = _chain_dtype(np.shape(a_k)[-3] * np.shape(a_k)[-1])
    a_k = np.asarray(a_k, dtype=dtype)
    a_exp = np.asarray(a_exp, dtype=np.int64)
    b_flat = np.asarray(b_flat, dtype=dtype)
    b_exp = np.asarray(b_exp, dtype=np.int64)
    kb, rows = a_k.shape[-3:-1]
    rb, cb = a_exp.shape[-2], b_exp.shape[-1]
    nc = b_flat.shape[-1]
    lead = np.broadcast_shapes(a_k.shape[:-3], b_flat.shape[:-3])
    if kb == 0 or cb == 0 or rb == 0:
        return np.zeros((*lead, rows, nc), dtype=np.float64)
    out = np.empty((*lead, rows, nc))
    # (..., Kb, Rb, Cb), C-contiguous: the broadcast sum's default layout
    # follows the transposed a_exp, and every pass over it would stride.
    exps = np.add(
        a_exp.swapaxes(-2, -1)[..., None], b_exp[..., None, :], order="C"
    )
    parts = 1
    if out.size >= _SPLIT_ELEMS:
        parts = min(_threads(), cb, 2 * out.size // _SPLIT_ELEMS)
    if parts == 1:
        _psu_chain(a_k, exps, b_flat, out)
        return out
    c = nc // cb
    edges = [cb * i // parts for i in range(parts + 1)]
    jobs = [
        (a_k, exps[..., j0:j1], b_flat[..., j0 * c : j1 * c],
         out[..., j0 * c : j1 * c])
        for j0, j1 in zip(edges, edges[1:])
    ]
    futures = [_pool().submit(_psu_chain, *job) for job in jobs[1:]]
    try:
        _psu_chain(*jobs[0])
    finally:
        wait(futures)
    for f in futures:
        f.result()  # re-raises a worker's exception here
    return out


def _psu_chain(
    a_k: np.ndarray, exps: np.ndarray, b_flat: np.ndarray, out: np.ndarray
) -> None:
    """One part of :func:`fast_emulate_blocks`: the PSU chain of the
    column blocks in ``b_flat``, in the operands' dtype, written to
    ``out`` (the matching float64 columns of the result,
    ``(..., Rb*r, cols)``)."""
    kb, rows = a_k.shape[-3:-1]
    rb, cb = exps.shape[-2:]
    r, nc = rows // rb, b_flat.shape[-1]
    lead = out.shape[:-2]
    dtype = a_k.dtype
    halvings = _HALVINGS[dtype.type]
    run = np.maximum.accumulate(exps, axis=-3)  # (..., Kb, Rb, Cb)
    growth = np.zeros_like(run)  # run_k - run_{k-1}, clamped
    np.subtract(run[..., 1:, :, :], run[..., :-1, :, :], out=growth[..., 1:, :, :])
    np.minimum(growth, _MAX_SHIFT, out=growth)
    grows = growth.reshape(-1, kb, rb * cb).any(axis=(0, 2)).tolist()
    shift = run - exps  # every K step's alignment run_k - e_k, clamped
    np.minimum(shift, _MAX_SHIFT, out=shift)

    def spread(f: np.ndarray) -> np.ndarray:
        # Block factors (..., Rb, Cb) repeated over each block's columns,
        # so every ufunc inner loop spans an output row.
        return f.repeat(nc // cb, axis=-1)[..., None, :]

    psu = np.zeros((*lead, rb, r, nc), dtype=dtype)
    kc = min(kb, max(1, _CHUNK_ELEMS // max(psu.size, 1)))
    slab = np.empty((*lead, kc, rows, nc), dtype=dtype)  # reused: no fresh pages per chunk
    for k0 in range(0, kb, kc):
        k1 = min(k0 + kc, kb)
        pv = np.matmul(a_k[..., k0:k1, :, :], b_flat[..., k0:k1, :, :],
                       out=slab[..., : k1 - k0, :, :])
        pv = pv.reshape(*lead, k1 - k0, rb, r, nc)
        np.multiply(pv, spread(halvings.take(shift[..., k0:k1, :, :])), out=pv)
        np.floor(pv, out=pv)
        for k in range(k0, k1):
            if grows[k]:
                np.multiply(psu, spread(halvings.take(growth[..., k, :, :])), out=psu)
                np.floor(psu, out=psu)
            psu += pv[..., k - k0, :, :, :]
    limit = float(1 << (PSU_WIDTH - 1))
    if psu.size and (psu.min() < -limit or psu.max() >= limit):
        raise HardwareContractError("emulated PSU overflowed 48 bits")
    # +0.0 normalizes any -0.0 from all-zero float products: the integer
    # oracle decodes those lanes to +0.0.
    psu += 0.0
    np.multiply(psu, spread(np.exp2(run[..., -1, :, :].astype(np.float64))),
                out=out.reshape(*lead, rb, r, nc))


#: Every alignment and growth factor ``2^-d``, ``d = 0 ... _MAX_SHIFT``,
#: per chain dtype: exact powers of two, computed in float64 and cast.  A
#: chain reads its factors from here with one ``take``; an ``exp2`` over
#: float64 copies of the shifts measured ~5% slower on decode's calls.
#: Built from Python floats: built with ``np.exp2`` at import, it read
#: ~0.45 MB more resident memory after import, and 1.3 MB more decode peak
#: RSS on the repository benchmark.
_HALVINGS = {
    t: np.array([2.0**-d for d in range(_MAX_SHIFT + 1)], dtype=t)
    for t in (np.float32, np.float64)
}


def _emulate(
    a_k: np.ndarray,
    a_exp: np.ndarray,
    b_flat: np.ndarray,
    b_exp: np.ndarray,
) -> np.ndarray:
    """Run :func:`fast_emulate_blocks`, or the integer oracle where the
    float kernel does not apply (see the module docstring)."""
    depth = a_k.shape[-3] * a_k.shape[-1]
    if _ALIGN_PROBE is not None or not _fast_ok(depth):
        return _emulate_blocks(a_k, a_exp, b_flat, b_exp)
    return fast_emulate_blocks(a_k, a_exp, b_flat, b_exp)


def bfp_matmul_prepared(
    am: BfpStream | BfpMatrix, bm: BfpMatrix | BfpWeight
) -> np.ndarray:
    """Emulated bfp matmul of two *already quantized* operands.

    This is the hot-path entry point for the prepared-operand cache
    (:mod:`repro.perf.prepared`): a weight quantized once — ideally as a
    :class:`BfpWeight`, whose matmul-ready layout is also precomputed —
    can be multiplied against any number of activation encodings without
    paying its quantization again, the emulation analogue of
    Y-stationary weight residency.  Activations arrive as
    :class:`BfpStream` (:func:`activation_blocks`); a :class:`BfpMatrix`
    on either side is re-laid out first.  The operands' inner block
    edges must agree; the activation's row-block height may be trimmed
    (see :func:`activation_blocks`).
    """
    if am.shape[1] != bm.shape[0]:
        raise ConfigurationError(
            f"inner dimensions disagree: {am.shape} @ {bm.shape}"
        )
    if am.block_shape[1] != bm.block_shape[0]:
        raise ConfigurationError(
            "inner block edges disagree: "
            f"{am.block_shape} @ {bm.block_shape}"
        )
    sa = am if isinstance(am, BfpStream) else BfpStream.from_matrix(am)
    bw = bm if isinstance(bm, BfpWeight) else BfpWeight.from_matrix(bm)
    dense = _emulate(sa.man, sa.exp, bw.man, bw.exp)
    return dense[: am.shape[0], : bm.shape[1]]


def bfp_matmul_emulate(
    a: np.ndarray, b: np.ndarray, *, man_bits: int = 8
) -> np.ndarray:
    """Fast vectorized emulation of bfp8 matmul on dense fp inputs.

    Quantizes both operands straight into the kernel's layouts
    (:func:`stream_tiles`, :func:`resident_tiles`) and multiplies with the
    same aligned-truncating accumulation as the hardware, vectorized over
    the whole output block grid.  Pre-quantized operands (cached weights)
    enter :func:`bfp_matmul_prepared` instead.

    This is the workhorse of the Transformer accuracy experiments: a
    DeiT-Small layer is thousands of blocks, far too many for the
    per-block oracle above.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ConfigurationError(f"bad matmul shapes: {a.shape} @ {b.shape}")
    dense = _emulate(
        *stream_tiles(a, man_bits=man_bits), *resident_tiles(b, man_bits=man_bits)
    )
    return dense[: a.shape[0], : b.shape[1]]


def bfp_batched_tiles(
    a: np.ndarray, b: np.ndarray, *, man_bits: int = 8
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Quantize both operands of a batched matmul into the kernel's
    layouts.

    ``(B, M, K) @ (B, K, N)`` — the compute shape of per-head attention
    and of batched decode steps.  Returns ``(a_man, a_exp, b_man, b_exp,
    m, n)``, :func:`stream_tiles` and :func:`resident_tiles` of the two
    operands, for :func:`bfp_matmul_from_tiles`; the split exists so
    callers that also *observe* the quantization (the numerics monitor,
    through :func:`stream_grid` and :func:`resident_grid`) can inspect
    the tiles without quantizing twice.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 3 or b.ndim != 3 or a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise ConfigurationError(f"bad batched matmul shapes: {a.shape} @ {b.shape}")
    a_man, a_exp = stream_tiles(a, man_bits=man_bits)
    b_man, b_exp = resident_tiles(b, man_bits=man_bits)
    return a_man, a_exp, b_man, b_exp, a.shape[1], b.shape[2]


def bfp_matmul_from_tiles(
    a_man: np.ndarray,
    a_exp: np.ndarray,
    b_man: np.ndarray,
    b_exp: np.ndarray,
    m: int,
    n: int,
) -> np.ndarray:
    """Finish a batched emulated matmul from tiles in the kernel's
    layouts: :func:`bfp_batched_tiles`, or a fresh left operand against
    the bfp K/V tiles a decode plan's KV arena keeps.

    One fused kernel call for the whole stack; each slice's result is
    bit-identical to :func:`bfp_matmul_emulate` on that slice, because
    quantization grids and alignment decisions are per-block and blocks
    never span slices.
    """
    return _emulate(a_man, a_exp, b_man, b_exp)[:, :m, :n]
