"""The float64 bfp kernel against its integer oracle, and kernel dispatch.

:func:`~repro.arith.bfp_matmul.fast_emulate_blocks` is the only
production bfp kernel; the integer ``_emulate_blocks`` is its reference.
The two must agree bit for bit — raw bytes, so a ``-0.0`` where the
oracle has ``+0.0`` is a failure — over every block geometry and
exponent regime, including the ``d >= 63`` sign saturation of the
truncating alignment and all-zero blocks, and wherever the kernel's K
chunks end.  The dispatch tests pin which kernel each entry point runs.
"""

import importlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith.bfp_matmul import (
    AlignmentProbe,
    BfpWeight,
    _emulate_blocks,
    _fast_ok,
    _flatten_cols,
    activation_blocks,
    fast_emulate_blocks,
    set_alignment_probe,
)
from repro.formats.bfp8 import BLOCK_COLS, BLOCK_ROWS, EXP_MIN
from repro.formats.blocking import BfpMatrix
from repro.formats.registry import get_format

# The module itself: ``repro.arith`` re-exports a *function* named
# ``bfp_matmul``, which shadows the submodule as a package attribute.
bm = importlib.import_module("repro.arith.bfp_matmul")


def _operands(rng, lead_a, lead_b, rb, kb, cb, r, man_bits, spread, zero_frac):
    """Random block-grid operands in the kernels' input layout."""
    m_max = (1 << (man_bits - 1)) - 1
    h, c = BLOCK_COLS, BLOCK_ROWS
    a_man = rng.integers(-m_max, m_max + 1, (*lead_a, rb, kb, r, h))
    b_man = rng.integers(-m_max, m_max + 1, (*lead_b, kb, cb, h, c))
    lo = -(spread // 2)
    a_exp = rng.integers(lo, lo + spread + 1, (*lead_a, rb, kb))
    b_exp = rng.integers(lo, lo + spread + 1, (*lead_b, kb, cb))
    # All-zero blocks take the quantizer's minimum exponent.
    a_zero = rng.random((*lead_a, rb, kb)) < zero_frac
    b_zero = rng.random((*lead_b, kb, cb)) < zero_frac
    a_man[a_zero] = 0
    a_exp[a_zero] = EXP_MIN
    b_man[b_zero] = 0
    b_exp[b_zero] = EXP_MIN
    return (
        a_man.astype(np.int16), a_exp.astype(np.int16),
        _flatten_cols(b_man.astype(np.int16)), b_exp.astype(np.int16),
    )


@given(
    lead=st.lists(st.integers(1, 3), max_size=2),
    broadcast_b=st.booleans(),
    rb=st.integers(1, 3),
    kb=st.integers(1, 16),
    cb=st.integers(1, 3),
    r=st.integers(1, BLOCK_ROWS),
    man_bits=st.integers(2, 8),
    spread=st.integers(0, 70),
    zero_frac=st.sampled_from([0.0, 0.3, 1.0]),
    chunk_kb=st.sampled_from([None, 1, 2, 3, 5]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_fast_kernel_matches_integer_oracle_bytewise(
    lead, broadcast_b, rb, kb, cb, r, man_bits, spread, zero_frac, chunk_kb,
    seed,
):
    """``chunk_kb`` sets how many K blocks one chunk holds: ``None`` keeps
    the default chunk, 1 forces ``_CHUNK_ELEMS = 1`` (every K block its
    own chunk), and 2, 3 or 5 cut K at chunk edges that fall between the
    steps where running exponents grow."""
    rng = np.random.default_rng(seed)
    lead_b = () if broadcast_b else tuple(lead)
    args = _operands(
        rng, tuple(lead), lead_b, rb, kb, cb, r, man_bits, spread, zero_frac
    )
    want = _emulate_blocks(*args)
    chunk = bm._CHUNK_ELEMS
    if chunk_kb is not None:
        # One K block's product slab: the output's element count.
        chunk = chunk_kb * want.size if chunk_kb > 1 else 1
    with mock.patch.object(bm, "_CHUNK_ELEMS", chunk):
        got = fast_emulate_blocks(*args)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _deep_k_operands():
    """DeiT-Tiny fc2 operands, 197x768 @ 768x192 (Kb = 96): power-of-two
    scales on every K row of both sides spread the block exponents."""
    rng = np.random.default_rng(14)
    k_scale = np.exp2(rng.integers(0, 4, size=768))
    x = rng.normal(size=(197, 768)) * k_scale
    w = rng.normal(size=(768, 192)) * k_scale[::-1, None]
    am = activation_blocks(x)
    bw = BfpWeight.from_matrix(BfpMatrix.from_dense(w))
    return am.mantissas, am.exponents, bw.man64, bw.exp64


def test_deep_k_matches_oracle_at_default_chunk():
    """A 96-block K spans many default chunks with growth steps inside."""
    args = _deep_k_operands()
    assert args[0].shape[-3] == 96
    exps = args[1].astype(np.int64)[:, :, None] + args[3][None, :, :]
    assert np.ptp(exps) >= 3
    want = _emulate_blocks(*args)
    got = fast_emulate_blocks(*args)
    assert got.tobytes() == want.tobytes()


def test_kernel_never_holds_the_product_tensor():
    """Streaming K keeps the kernel's peak allocation (tracemalloc sees
    NumPy buffers) under a quarter of the ``(Kb, M, N)`` float64 product
    tensor, 29.5 MB on this shape."""
    args = _deep_k_operands()
    kb, m, n = args[0].shape[-3], 8 * args[0].shape[-4], args[2].shape[-1]
    tracemalloc.start()
    try:
        fast_emulate_blocks(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < kb * m * n * 8 / 4


def test_sign_saturation_is_exercised():
    """A 70-wide exponent spread really produces clamped d=63 shifts of
    negative partials (floor and >> must both give -1 there)."""
    a_man = np.full((1, 2, 1, 8), -5, dtype=np.int16)
    a_exp = np.array([[70, 0]], dtype=np.int16)
    b_flat = _flatten_cols(np.ones((2, 1, 8, 8), dtype=np.int16))
    b_exp = np.zeros((2, 1), dtype=np.int16)
    want = _emulate_blocks(a_man, a_exp, b_flat, b_exp)
    got = fast_emulate_blocks(a_man, a_exp, b_flat, b_exp)
    assert got.tobytes() == want.tobytes()
    # -40 >> 63 == -1: the second block contributes exactly one ulp down.
    assert want[0, 0] == (-40 - 1) * 2.0**70


def test_zero_products_decode_to_positive_zero():
    """Zero mantissas times negative ones are ``-0.0`` in IEEE arithmetic
    on some BLAS builds; the integer oracle has no negative zero."""
    a_man = np.zeros((1, 1, 1, 8), dtype=np.int16)
    a_exp = np.zeros((1, 1), dtype=np.int16)
    b_flat = _flatten_cols(np.full((1, 1, 8, 8), -3, dtype=np.int16))
    b_exp = np.zeros((1, 1), dtype=np.int16)
    got = fast_emulate_blocks(a_man, a_exp, b_flat, b_exp)
    assert not np.signbit(got).any()


def test_fast_ok_bound():
    assert _fast_ok(BLOCK_COLS * 100_000)
    assert not _fast_ok(1 << 40)


# ---------------------------------------------------------------------------
# Dispatch: which kernel runs
# ---------------------------------------------------------------------------


@pytest.fixture
def calls(monkeypatch):
    """Count calls into each kernel (the entry points look both up in
    the module namespace at call time)."""
    counts = {"fast": 0, "oracle": 0}

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(bm, "fast_emulate_blocks", spy("fast", fast_emulate_blocks))
    monkeypatch.setattr(bm, "_emulate_blocks", spy("oracle", _emulate_blocks))
    return counts


def _run_both(fmt, rng):
    x, w = rng.normal(size=(5, 24)), rng.normal(size=(24, 16))
    a, b = rng.normal(size=(3, 4, 16)), rng.normal(size=(3, 16, 9))
    return fmt.matmul(x, w), fmt.matmul_batched(a, b)


def test_eager_format_runs_fast_kernel(calls, rng):
    _run_both(get_format("bfp8"), rng)
    assert calls == {"fast": 2, "oracle": 0}


def test_probe_routes_to_oracle(calls, rng):
    probe = AlignmentProbe()
    prev = set_alignment_probe(probe)
    try:
        _run_both(get_format("bfp8"), rng)
    finally:
        set_alignment_probe(prev)
    assert calls == {"fast": 0, "oracle": 2}
    assert probe.steps > 0


def test_inexact_depth_routes_to_oracle(calls, monkeypatch, rng):
    monkeypatch.setattr(bm, "_fast_ok", lambda depth: False)
    _run_both(get_format("bfp8"), rng)
    assert calls == {"fast": 0, "oracle": 2}

