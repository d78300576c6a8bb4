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
:func:`bfp_matmul_prepared`, :func:`bfp_matmul_from_tiles` or
:func:`bfp_matmul_resident`.  Like the
PSU accumulator, it aligns each partial block once to the running PSU
exponent as the block arrives, rescales the PSU only at K steps where
some running exponent grows, and streams K in L2-sized chunks, so the
full ``(Kb, M, N)`` tensor of block products never exists.  It computes
in float64 and stays exact, because every intermediate is an integer
below 2^52 and every scaling is a power of two.  The integer
:func:`_emulate_blocks` is its bit-exact reference: the tests compare
the two, and it still runs in exactly two cases the float64 kernel does
not cover — an attached :class:`AlignmentProbe` (the probe lives in the
integer loop), and a reduction too deep for float64 to stay exact
(:func:`_fast_ok`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, HardwareContractError
from repro.formats.bfp8 import (
    BLOCK_COLS,
    BLOCK_ROWS,
    MAN_MAX,
    BfpBlock,
    quantize_tiles,
)
from repro.formats.blocking import BfpMatrix
from repro.formats.rounding import shift_right

__all__ = [
    "WideBlock",
    "BfpWeight",
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
    "bfp_matmul_resident",
    "stream_tiles",
    "resident_tiles",
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


def _flatten_cols(b_man: np.ndarray) -> np.ndarray:
    """Right-operand mantissas ``(..., Kb, Cb, h, c)`` -> ``(..., Kb, h, Cb*c)``.

    The column-flattened float64 layout the emulation kernels multiply
    against: all Cb column blocks of one K block form a single matmul
    operand, so the mantissa product is one BLAS slice per (K block,
    row block) instead of one per output block.  The integer oracle
    widens it to int64 itself.
    """
    kb, cb, h, c = b_man.shape[-4:]
    return np.ascontiguousarray(
        b_man.astype(np.float64).swapaxes(-2, -3)
    ).reshape(*b_man.shape[:-4], kb, h, cb * c)


@dataclass(frozen=True)
class BfpWeight:
    """A quantized right-hand operand in matmul-ready layout.

    Built once per weight (prepare time): the :class:`BfpMatrix`
    mantissas column-flattened to ``(Kb, h, Cb*c)`` float64 (see
    :func:`_flatten_cols`) so the kernel's mantissa product needs no
    per-call cast or re-layout — the per-call work the Y-stationary
    hardware also never repeats.
    """

    matrix: BfpMatrix
    man64: np.ndarray  # (Kb, h, Cb*c) float64, integer-valued
    exp64: np.ndarray  # (Kb, Cb) int64

    @classmethod
    def from_matrix(cls, bm: BfpMatrix) -> "BfpWeight":
        return cls(
            bm, _flatten_cols(bm.mantissas), bm.exponents.astype(np.int64)
        )

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @property
    def block_shape(self) -> tuple[int, int]:
        return self.matrix.block_shape

    def to_dense(self) -> np.ndarray:
        return self.matrix.to_dense()


def activation_blocks(a: np.ndarray, *, man_bits: int = 8) -> BfpMatrix:
    """Block-quantize an activation matrix with trimmed block rows.

    A decode-step activation is a single row; padding it to the full 8-row
    tile makes the mantissa matmul do 8x the useful work on zeros.  For
    matrices shorter than one tile this uses ``M``-row blocks instead —
    *bit-identical* to the padded encoding, because padded rows are zero:
    they leave the shared exponent unchanged (it is chosen from the tile's
    max magnitude) and contribute zero products to every partial sum.
    """
    a = np.asarray(a, dtype=np.float64)
    rows = BLOCK_ROWS if a.shape[0] >= BLOCK_ROWS else max(1, a.shape[0])
    return BfpMatrix.from_dense(a, rows=rows, man_bits=man_bits)


def _tile_batch(
    x: np.ndarray, rows: int, cols: int, *, man_bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Quantize a ``(..., M, K)`` stack into ``(..., Mb, Kb, rows, cols)``."""
    lead = x.shape[:-2]
    m, k = x.shape[-2:]
    pm, pk = (-m) % rows, (-k) % cols
    if pm or pk:
        x = np.pad(x, [(0, 0)] * len(lead) + [(0, pm), (0, pk)])
    tiles = x.reshape(
        *lead, (m + pm) // rows, rows, (k + pk) // cols, cols
    ).swapaxes(-3, -2)
    return quantize_tiles(tiles, man_bits=man_bits)


def stream_tiles(
    a: np.ndarray, *, man_bits: int = 8
) -> tuple[np.ndarray, np.ndarray]:
    """Quantize the streamed (left) operand ``(B, M, K)`` of a batched
    matmul into ``(B, Mb, Kb, r, 8)`` block-grid tiles, with row blocks
    trimmed to ``M`` rows below one tile (see :func:`activation_blocks`)."""
    m = a.shape[-2]
    rows = BLOCK_ROWS if m >= BLOCK_ROWS else max(1, m)
    return _tile_batch(a, rows, BLOCK_COLS, man_bits=man_bits)


def resident_tiles(
    b: np.ndarray, *, man_bits: int = 8
) -> tuple[np.ndarray, np.ndarray]:
    """Quantize the resident (right) operand ``(B, K, N)`` of a batched
    matmul into the kernel's layout: ``(B, Kb, 8, Cb*8)`` float64
    mantissas and ``(B, Kb, Cb)`` int64 exponents, the layout a
    :class:`BfpWeight` holds for a weight (see :func:`_flatten_cols`).

    Quantization is per 8x8 block, so the tiles of a slab of whole K (or
    N) blocks are exactly those blocks' tiles in the whole operand.
    """
    man, exp = _tile_batch(b, BLOCK_ROWS, BLOCK_COLS, man_bits=man_bits)
    return _flatten_cols(man), exp.astype(np.int64)


def _emulate_blocks(
    a_man: np.ndarray,
    a_exp: np.ndarray,
    b_flat: np.ndarray,
    b_exp: np.ndarray,
) -> np.ndarray:
    """Integer block-grid matmul: the reference for the float64 kernel.

    ``a_man``: ``(..., Rb, Kb, r, h)`` block-grid mantissas; ``b_flat``:
    ``(..., Kb, h, Cb*c)`` — the column-flattened right operand (a
    :class:`BfpWeight`'s resident layout, see :func:`_flatten_cols`),
    widened to int64 here; ``b_exp``: ``(..., Kb, Cb)``.  Leading batch
    dimensions are optional and broadcast-compatible.  Returns the dense
    padded result ``(..., Rb*r, Cb*c)`` in float64.

    It keeps the per-K-block Python loop: the running PSU exponent makes
    each alignment depend on the previous step, exactly as in hardware.
    """
    a_man = np.asarray(a_man, dtype=np.int64)
    a_exp = np.asarray(a_exp, dtype=np.int64)
    b_flat = np.asarray(b_flat, dtype=np.int64)
    b_exp = np.asarray(b_exp, dtype=np.int64)
    rb, kb, r = a_man.shape[-4], a_man.shape[-3], a_man.shape[-2]
    cb = b_exp.shape[-1]
    nc = b_flat.shape[-1]
    lead = np.broadcast_shapes(a_man.shape[:-4], b_flat.shape[:-3])
    if kb == 0 or cb == 0:
        return np.zeros((*lead, rb * r, nc), dtype=np.float64)
    c = nc // cb
    a_sw = a_man.swapaxes(-4, -3)  # (..., Kb, Rb, r, h)

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
        h = a_man.shape[-1]
        m_a = int(np.abs(a_man).max()) if a_man.size else 0
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


#: Float64 block products :func:`fast_emulate_blocks` holds at once: 1 MiB,
#: half the 2 MiB per-core L2 of the x86 benchmark host.  K streams
#: through in chunks of this many elements, or one K block at a time
#: when a single block is larger.
_CHUNK_ELEMS = 2**17


def fast_emulate_blocks(
    a_man: np.ndarray,
    a_exp: np.ndarray,
    b_flat: np.ndarray,
    b_exp: np.ndarray,
) -> np.ndarray:
    """The bfp kernel: :func:`_emulate_blocks` computed in float64, bit
    for bit.

    Mantissa products run as float64 BLAS matmuls, one per K block over
    every row block, and the truncating alignment ``x >> d`` becomes
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

    Exact: every intermediate is an integer below ``depth * 127^2 < 2^52``
    (the :func:`_fast_ok` gate), scalings are powers of two, float64 sums
    of such integers do not depend on order, and the bound makes a floor
    by ``2^-d``, ``d >= 52``, the sign, like the oracle's ``>> 63``.
    """
    a_exp = np.asarray(a_exp, dtype=np.int64)
    b_exp = np.asarray(b_exp, dtype=np.int64)
    rb, kb, r, h = a_man.shape[-4:]
    cb = b_exp.shape[-1]
    nc = b_flat.shape[-1]
    lead = np.broadcast_shapes(a_man.shape[:-4], b_flat.shape[:-3])
    if kb == 0 or cb == 0:
        return np.zeros((*lead, rb * r, nc), dtype=np.float64)
    a_k = np.ascontiguousarray(
        np.swapaxes(a_man, -4, -3), dtype=np.float64
    ).reshape(*a_man.shape[:-4], kb, rb * r, h)  # (..., Kb, Rb*r, h)
    b_flat = np.asarray(b_flat, dtype=np.float64)
    exps = a_exp.swapaxes(-2, -1)[..., None] + b_exp[..., None, :]
    run = np.maximum.accumulate(exps, axis=-3)  # (..., Kb, Rb, Cb)
    growth = np.diff(run, axis=-3, prepend=run[..., :1, :, :])
    grows = np.moveaxis(growth, -3, 0).reshape(kb, -1).any(axis=1)

    def pow2(e: np.ndarray) -> np.ndarray:
        # Block exponents (..., Rb, Cb) -> factors 2^e repeated over each
        # block's columns, so every ufunc inner loop spans an output row.
        f = np.exp2(e.astype(np.float64))
        return np.repeat(f, nc // cb, axis=-1)[..., None, :]

    psu = np.zeros((*lead, rb, r, nc))
    kc = min(kb, max(1, _CHUNK_ELEMS // max(psu.size, 1)))
    slab = np.empty((*lead, kc, rb * r, nc))  # reused: no fresh pages per chunk
    for k0 in range(0, kb, kc):
        k1 = min(k0 + kc, kb)
        pv = np.matmul(a_k[..., k0:k1, :, :], b_flat[..., k0:k1, :, :],
                       out=slab[..., : k1 - k0, :, :])
        pv = pv.reshape(*lead, k1 - k0, rb, r, nc)
        np.multiply(pv, pow2(exps[..., k0:k1, :, :] - run[..., k0:k1, :, :]),
                    out=pv)
        np.floor(pv, out=pv)
        for k in range(k0, k1):
            if grows[k]:
                np.multiply(psu, pow2(-growth[..., k, :, :]), out=psu)
                np.floor(psu, out=psu)
            psu += pv[..., k - k0, :, :, :]
    limit = float(1 << (PSU_WIDTH - 1))
    if psu.size and (psu.min() < -limit or psu.max() >= limit):
        raise HardwareContractError("emulated PSU overflowed 48 bits")
    # +0.0 normalizes any -0.0 from all-zero f64 products: the integer
    # oracle decodes those lanes to +0.0.
    dense = (psu + 0.0) * pow2(run[..., -1, :, :])
    return dense.reshape(*lead, rb * r, nc)


def _emulate(
    a_man: np.ndarray,
    a_exp: np.ndarray,
    b_flat: np.ndarray,
    b_exp: np.ndarray,
) -> np.ndarray:
    """Run :func:`fast_emulate_blocks`, or the integer oracle where the
    float64 kernel does not apply (see the module docstring)."""
    depth = a_man.shape[-3] * a_man.shape[-1]
    if _ALIGN_PROBE is not None or not _fast_ok(depth):
        return _emulate_blocks(a_man, a_exp, b_flat, b_exp)
    return fast_emulate_blocks(a_man, a_exp, b_flat, b_exp)


def bfp_matmul_prepared(
    am: BfpMatrix, bm: BfpMatrix | BfpWeight
) -> np.ndarray:
    """Emulated bfp matmul of two *already quantized* operands.

    This is the hot-path entry point for the prepared-operand cache
    (:mod:`repro.perf.prepared`): a weight quantized once — ideally as a
    :class:`BfpWeight`, whose matmul-ready layout is also precomputed —
    can be multiplied against any number of activation encodings without
    paying its quantization again, the emulation analogue of
    Y-stationary weight residency.  The operands' inner block edges must
    agree; the activation's row-block height may be trimmed (see
    :func:`activation_blocks`).
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
    bw = bm if isinstance(bm, BfpWeight) else BfpWeight.from_matrix(bm)
    dense = _emulate(am.mantissas, am.exponents, bw.man64, bw.exp64)
    return dense[: am.shape[0], : bm.shape[1]]


def bfp_matmul_emulate(
    a: np.ndarray, b: np.ndarray, *, man_bits: int = 8
) -> np.ndarray:
    """Fast vectorized emulation of bfp8 matmul on dense fp inputs.

    Quantizes both operands to bfp tiles and multiplies with the same
    aligned-truncating accumulation as the hardware, vectorized over the
    whole output block grid.  A thin wrapper over
    :func:`bfp_matmul_prepared`; pre-quantized operands (cached weights)
    enter there directly.

    This is the workhorse of the Transformer accuracy experiments: a
    DeiT-Small layer is thousands of blocks, far too many for the
    per-block oracle above.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ConfigurationError(f"bad matmul shapes: {a.shape} @ {b.shape}")
    am = activation_blocks(a, man_bits=man_bits)
    bm = BfpMatrix.from_dense(b, man_bits=man_bits)
    return bfp_matmul_prepared(am, bm)


def bfp_batched_tiles(
    a: np.ndarray, b: np.ndarray, *, man_bits: int = 8
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Quantize both operands of a batched matmul to block-grid tiles.

    ``(B, M, K) @ (B, K, N)`` — the compute shape of per-head attention
    and of batched decode steps.  Returns ``(a_man, a_exp, b_man, b_exp,
    m, n)`` for :func:`bfp_matmul_from_tiles`; the split exists so
    callers that also *observe* the quantization (the numerics monitor)
    can inspect the tiles without quantizing twice.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 3 or b.ndim != 3 or a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise ConfigurationError(f"bad batched matmul shapes: {a.shape} @ {b.shape}")
    a_man, a_exp = stream_tiles(a, man_bits=man_bits)
    b_man, b_exp = _tile_batch(b, BLOCK_ROWS, BLOCK_COLS, man_bits=man_bits)
    return a_man, a_exp, b_man, b_exp, a.shape[1], b.shape[2]


def bfp_matmul_from_tiles(
    a_man: np.ndarray,
    a_exp: np.ndarray,
    b_man: np.ndarray,
    b_exp: np.ndarray,
    m: int,
    n: int,
) -> np.ndarray:
    """Finish a batched emulated matmul from pre-quantized tiles.

    One fused kernel call for the whole stack; each slice's result is
    bit-identical to :func:`bfp_matmul_emulate` on that slice, because
    quantization grids and alignment decisions are per-block and blocks
    never span slices.
    """
    return bfp_matmul_resident(a_man, a_exp, _flatten_cols(b_man), b_exp, m, n)


def bfp_matmul_resident(
    a_man: np.ndarray,
    a_exp: np.ndarray,
    b_flat: np.ndarray,
    b_exp: np.ndarray,
    m: int,
    n: int,
) -> np.ndarray:
    """Finish a batched emulated matmul whose right operand is already in
    the kernel's layout (:func:`resident_tiles`): the decode plan's
    attention against the bfp K/V tiles a KV arena keeps."""
    return _emulate(a_man, a_exp, b_flat, b_exp)[:, :m, :n]
