"""The bfp kernel against its integer oracle, and kernel dispatch.

:func:`~repro.arith.bfp_matmul.fast_emulate_blocks` is the only
production bfp kernel; the integer ``_emulate_blocks`` is its reference.
The two must agree bit for bit — raw bytes, so a ``-0.0`` where the
oracle has ``+0.0`` is a failure — over every block geometry and
exponent regime, including the ``d >= 63`` sign saturation of the
truncating alignment, shifts across the whole 8-bit exponent field and
all-zero blocks, on both sides of the float32/float64 depth boundary,
wherever the kernel's K chunks end, and however its column blocks are
split across threads.  The dispatch tests pin which kernel and which
chain dtype each entry point runs and that only large calls hand work
to worker threads.
"""

import importlib
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith.bfp_matmul import (
    AlignmentProbe,
    BfpStream,
    BfpWeight,
    _chain_dtype,
    _emulate_blocks,
    _fast_ok,
    _flatten_cols,
    _stream_layout,
    activation_blocks,
    fast_emulate_blocks,
    resident_grid,
    resident_tiles,
    set_alignment_probe,
    stream_grid,
    stream_tiles,
)
from repro.formats.bfp8 import BLOCK_COLS, BLOCK_ROWS, EXP_MAX, EXP_MIN
from repro.formats.blocking import BfpMatrix
from repro.formats.registry import get_format
from repro.models.backend import get_backend
from repro.models.decoder import TinyLM
from tests.conftest import BLOCK_REGIMES, block_scaled

# The module itself: ``repro.arith`` re-exports a *function* named
# ``bfp_matmul``, which shadows the submodule as a package attribute.
bm = importlib.import_module("repro.arith.bfp_matmul")


def _operands(rng, lead_a, lead_b, rb, kb, cb, r, man_bits, spread, zero_frac,
              lo=None):
    """Random block-grid operands in the kernels' input layout: block
    exponents drawn from ``[lo, lo + spread]`` (centred on 0 by
    default)."""
    m_max = (1 << (man_bits - 1)) - 1
    h, c = BLOCK_COLS, BLOCK_ROWS
    a_man = rng.integers(-m_max, m_max + 1, (*lead_a, rb, kb, r, h))
    b_man = rng.integers(-m_max, m_max + 1, (*lead_b, kb, cb, h, c))
    if lo is None:
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
        _stream_layout(a_man.astype(np.int16)), a_exp.astype(np.int16),
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


@given(
    kb=st.sampled_from([1, 3, 16, 129, 130, 131, 140]),
    rb=st.integers(1, 2),
    cb=st.integers(1, 2),
    r=st.integers(1, BLOCK_ROWS),
    man_bits=st.integers(2, 8),
    exp_bounds=st.tuples(st.integers(EXP_MIN, EXP_MAX),
                         st.integers(EXP_MIN, EXP_MAX)),
    zero_frac=st.sampled_from([0.0, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_matches_oracle_across_dtype_boundary_and_exponent_field(
    kb, rb, cb, r, man_bits, exp_bounds, zero_frac, seed
):
    """Kb 129 and 130 (padded K 1,032 and 1,040) run the float32 chain,
    131 and 140 the float64 one.  Block exponents anywhere in the 8-bit
    field make product exponents span [-256, 254], so alignment and
    growth shifts reach 510: far past float32's smallest subnormal,
    where only the clamp at 63 keeps the floor of a negative partial at
    ``-1`` as the oracle's ``>> 63`` does."""
    rng = np.random.default_rng(seed)
    lo, hi = sorted(exp_bounds)
    args = _operands(rng, (), (), rb, kb, cb, r, man_bits, hi - lo,
                     zero_frac, lo=lo)
    want = _emulate_blocks(*args)
    got = fast_emulate_blocks(*args)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_shift_clamp_keeps_float32_floors_at_the_sign():
    """Products of -40 whose exponents sit 255 apart: ``2^-255``
    underflows float32 to zero, so only the shift clamped at 63 floors a
    -40 aligned that far down to -1, as the oracle's ``>> 63`` does, both
    for a product aligned to the PSU and for a PSU rescaled by a 255-step
    growth."""
    a_man = _stream_layout(np.full((1, 3, 1, 8), -5, dtype=np.int16))
    b_flat = _flatten_cols(np.ones((3, 1, 8, 8), dtype=np.int16))
    b_exp = np.zeros((3, 1), dtype=np.int16)
    for a_exp, psu in (
        ([127, -128, 127], -40 - 1 - 40),  # keep, shift 255; keep
        ([-128, 127, -128], -1 - 40 - 1),  # grow by 255; keep, shift 255
    ):
        a_exp = np.array([a_exp], dtype=np.int16)
        want = _emulate_blocks(a_man, a_exp, b_flat, b_exp)
        got = fast_emulate_blocks(a_man, a_exp, b_flat, b_exp)
        assert got.tobytes() == want.tobytes()
        assert want[0, 0] == psu * 2.0**127


@pytest.fixture
def chain_dtypes(monkeypatch):
    """The dtype of every PSU chain part the kernel runs."""
    seen = []
    chain = bm._psu_chain

    def spy(a_k, *rest):
        seen.append(a_k.dtype)
        return chain(a_k, *rest)

    monkeypatch.setattr(bm, "_psu_chain", spy)
    return seen


@pytest.mark.parametrize("kb, dtype", [(130, np.float32), (131, np.float64)])
def test_kernel_runs_the_chain_in_the_bound_dtype(chain_dtypes, kb, dtype):
    """float32 while padded-K * 127^2 < 2^24: K = 1,040 (Kb 130) is the
    deepest float32 chain, K = 1,048 (Kb 131) runs float64."""
    depth = kb * BLOCK_COLS
    assert (depth * 127**2 < 2**24) == (dtype is np.float32)
    assert _chain_dtype(depth) is dtype
    rng = np.random.default_rng(kb)
    args = _operands(rng, (), (), 2, kb, 2, BLOCK_ROWS, 8, 40, 0.0)
    assert all(a.dtype == np.float32 for a in args[::2])
    got = fast_emulate_blocks(*args)
    assert chain_dtypes == [dtype]
    assert got.tobytes() == _emulate_blocks(*args).tobytes()


def test_deit_small_fc2_runs_float64_and_matches_oracle(chain_dtypes):
    """DeiT-Small's fc2 weight (1,536 x 384, K past the float32 bound) on
    a 16-token activation: the float64 chain, on float32 operands cast
    per call, equals the oracle byte for byte."""
    rng = np.random.default_rng(21)
    k_scale = np.exp2(rng.integers(0, 6, size=1536))
    am = activation_blocks(rng.normal(size=(16, 1536)) * k_scale)
    bw = BfpWeight.from_dense(rng.normal(size=(1536, 384)) * k_scale[:, None])
    assert am.man.dtype == bw.man.dtype == np.float32
    got = fast_emulate_blocks(am.man, am.exp, bw.man, bw.exp)
    assert chain_dtypes == [np.float64]
    want = _emulate_blocks(am.man, am.exp, bw.man, bw.exp)
    assert got.tobytes() == want.tobytes()


def test_operands_are_stored_as_float32_codes(rng):
    """Every stored kernel operand holds float32 integer codes, four
    bytes each, half what float64 codes take; the block-grid views keep
    their int16 codes."""
    x, w = rng.normal(size=(13, 40)), rng.normal(size=(40, 24))
    bw = BfpWeight.from_dense(w)
    am = activation_blocks(x)
    for man in (
        bw.man, am.man, BfpWeight.from_matrix(bw.matrix).man,
        BfpStream.from_matrix(am.to_matrix()).man,
        stream_tiles(x)[0], resident_tiles(w)[0],
    ):
        assert man.dtype == np.float32
        assert man.nbytes == 4 * man.size
    assert bw.matrix.mantissas.dtype == np.int16
    assert bw.exp.dtype == am.exp.dtype == np.int64


def _deep_k_operands():
    """DeiT-Tiny fc2 operands, 197x768 @ 768x192 (Kb = 96): power-of-two
    scales on every K row of both sides spread the block exponents."""
    rng = np.random.default_rng(14)
    k_scale = np.exp2(rng.integers(0, 4, size=768))
    x = rng.normal(size=(197, 768)) * k_scale
    w = rng.normal(size=(768, 192)) * k_scale[::-1, None]
    am = activation_blocks(x)
    bw = BfpWeight.from_dense(w)
    return am.man, am.exp, bw.man, bw.exp


def test_deep_k_matches_oracle_at_default_chunk():
    """A 96-block K spans many default chunks with growth steps inside."""
    args = _deep_k_operands()
    assert args[0].shape[-3] == 96
    exps = args[1][:, :, None] + args[3][None, :, :]
    assert np.ptp(exps) >= 3
    want = _emulate_blocks(*args)
    got = fast_emulate_blocks(*args)
    assert got.tobytes() == want.tobytes()


def test_kernel_never_holds_the_product_tensor():
    """Streaming K keeps the kernel's peak allocation (tracemalloc sees
    NumPy buffers) under a quarter of the ``(Kb, M, N)`` float64 product
    tensor, 29.5 MB on this shape."""
    args = _deep_k_operands()
    kb, m, n = args[0].shape[-3], args[0].shape[-2], args[2].shape[-1]
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
    a_man = _stream_layout(np.full((1, 2, 1, 8), -5, dtype=np.int16))
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
    a_man = np.zeros((1, 1, 8))
    a_exp = np.zeros((1, 1), dtype=np.int16)
    b_flat = _flatten_cols(np.full((1, 1, 8, 8), -3, dtype=np.int16))
    b_exp = np.zeros((1, 1), dtype=np.int16)
    got = fast_emulate_blocks(a_man, a_exp, b_flat, b_exp)
    assert not np.signbit(got).any()


def test_fast_ok_bound():
    assert _fast_ok(BLOCK_COLS * 100_000)
    assert not _fast_ok(1 << 40)


@given(
    n_slices=st.integers(0, 3),
    m=st.integers(1, 20),
    n=st.integers(1, 40),
    man_bits=st.integers(2, 8),
    regime=BLOCK_REGIMES,
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_layouts_hold_the_block_grid_codes(
    n_slices, m, n, man_bits, regime, seed
):
    """The one-pass quantizer writes each operand straight into the
    kernel's layout; re-laid out on the block grid, its codes are exactly
    :meth:`BfpMatrix.from_dense`'s, slice by slice."""
    rng = np.random.default_rng(seed)
    xs = [block_scaled(rng, (m, n), regime) for _ in range(max(n_slices, 1))]
    x = np.stack(xs) if n_slices else xs[0]
    stream = stream_grid(*stream_tiles(x, man_bits=man_bits))
    resident = resident_grid(*resident_tiles(x, man_bits=man_bits))
    for i, xi in enumerate(xs):
        pick = (i,) if n_slices else ()
        for (man, exp), rows in ((stream, min(m, BLOCK_ROWS)),
                                 (resident, BLOCK_ROWS)):
            grid = BfpMatrix.from_dense(xi, rows=rows, man_bits=man_bits)
            assert np.array_equal(man[pick], grid.mantissas)
            assert np.array_equal(exp[pick], grid.exponents)


# ---------------------------------------------------------------------------
# Column split: parts of one call on worker threads
# ---------------------------------------------------------------------------


def _stacked(rng, lead, shape, regime):
    count = int(np.prod(lead))
    slices = [block_scaled(rng, shape, regime) for _ in range(count)]
    return np.stack(slices).reshape(*lead, *shape)


@given(
    lead=st.lists(st.integers(1, 3), max_size=2),
    broadcast_b=st.booleans(),
    m=st.integers(1, 20),
    k=st.integers(1, 100),
    cb=st.sampled_from([1, 2, 3, 5, 7]),
    n_cut=st.integers(0, BLOCK_COLS - 1),
    threads=st.integers(2, 5),
    regime=BLOCK_REGIMES,
    chunk_kb=st.sampled_from([None, 1, 2, 3, 5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_kernel_matches_one_part_and_oracle(
    lead, broadcast_b, m, k, cb, n_cut, threads, regime, chunk_kb, seed
):
    """With the split threshold patched to one element, a call cuts its
    ``Cb`` column blocks into ``min(threads, Cb)`` parts on the pool.  The
    split result must equal the one-part kernel and the integer oracle
    byte for byte, over broadcast lead dims, single and odd column-block
    counts, K chunk edges and the quantizer's block regimes."""
    rng = np.random.default_rng(seed)
    lead_b = () if broadcast_b else tuple(lead)
    a = _stacked(rng, tuple(lead), (m, k), regime)
    b = _stacked(rng, lead_b, (k, BLOCK_COLS * cb - n_cut), regime)
    args = (*stream_tiles(a), *resident_tiles(b))
    want = _emulate_blocks(*args)
    chunk = bm._CHUNK_ELEMS
    if chunk_kb is not None:
        chunk = chunk_kb * want.size if chunk_kb > 1 else 1
    with mock.patch.object(bm, "_CHUNK_ELEMS", chunk):
        with mock.patch.object(bm, "_threads", lambda: 1):
            one = fast_emulate_blocks(*args)
        with mock.patch.object(bm, "_SPLIT_ELEMS", 1), \
                mock.patch.object(bm, "_threads", lambda: threads):
            split = fast_emulate_blocks(*args)
    assert one.tobytes() == want.tobytes()
    assert split.shape == want.shape and split.tobytes() == want.tobytes()


def test_split_under_thread_churn_matches_one_part():
    """Nine parts on a pool of eight, more threads than cores, with the
    interpreter switching threads every microsecond: a part that wrote
    outside its columns, or a lost write, would change the bytes."""
    args = _deep_k_operands()
    with mock.patch.object(bm, "_threads", lambda: 1):
        want = fast_emulate_blocks(*args).tobytes()
    pool = ThreadPoolExecutor(max_workers=8)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        with mock.patch.object(bm, "_POOL", pool), \
                mock.patch.object(bm, "_SPLIT_ELEMS", 1), \
                mock.patch.object(bm, "_threads", lambda: 9):
            for _ in range(3):
                assert fast_emulate_blocks(*args).tobytes() == want
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown(wait=True)


def test_worker_exception_reaches_caller_and_pool_survives(monkeypatch):
    args = _deep_k_operands()
    want = _emulate_blocks(*args).tobytes()
    chain, caller = bm._psu_chain, threading.get_ident()

    def failing_on_workers(*part):
        if threading.get_ident() != caller:
            raise RuntimeError("worker part failed")
        return chain(*part)

    monkeypatch.setattr(bm, "_threads", lambda: 2)
    monkeypatch.setattr(bm, "_SPLIT_ELEMS", 1)
    monkeypatch.setattr(bm, "_psu_chain", failing_on_workers)
    with pytest.raises(RuntimeError, match="worker part failed"):
        fast_emulate_blocks(*args)
    monkeypatch.setattr(bm, "_psu_chain", chain)
    assert fast_emulate_blocks(*args).tobytes() == want
    assert bm._POOL is not None


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



def test_compiled_decode_never_splits(monkeypatch):
    """Compiled batch-8 TinyLM decode steps (the decode benchmark's model)
    complete with a pool that refuses all work, even with eight CPUs
    claimed: every decode PSU sits below the split threshold.  The largest,
    gate/up's 8 x 2,048, does not grow with the context; attention's
    32 x t stays below it up to the 264-token window."""

    class RefusingPool:
        def submit(self, *args, **kwargs):
            raise AssertionError("a decode kernel call split across threads")

    monkeypatch.setattr(bm, "_threads", lambda: 8)
    monkeypatch.setattr(bm, "_pool", lambda: RefusingPool())
    model = TinyLM(vocab=32, dim=384, depth=2, n_heads=4, seq_len=264, seed=7)
    backend = get_backend("bfp8-mixed")
    model.prepare(backend)
    caches = [model.init_cache() for _ in range(8)]
    for pos in range(2):  # the trace step, then a replay
        logits = model.forward_step_batch(
            [1] * 8, [pos] * 8, caches, backend, compiled=True
        )
    assert logits.shape == (8, model.vocab) and np.isfinite(logits).all()


def test_compiled_decode_runs_float32_operands_and_chains(monkeypatch):
    """Every kernel call of a compiled batch-8 TinyLM decode step (the
    decode benchmark's model, whose deepest matmul is down's K = 1,024)
    receives float32 operands, as stored, and runs the float32 chain."""
    calls, chains = [], []
    fast, chain = bm.fast_emulate_blocks, bm._psu_chain

    def spy_fast(a_k, a_exp, b_flat, b_exp):
        calls.append((a_k.dtype, b_flat.dtype, a_k.shape[-3] * a_k.shape[-1]))
        return fast(a_k, a_exp, b_flat, b_exp)

    def spy_chain(a_k, *rest):
        chains.append(a_k.dtype)
        return chain(a_k, *rest)

    model = TinyLM(vocab=32, dim=384, depth=2, n_heads=4, seq_len=264, seed=7)
    backend = get_backend("bfp8-mixed")
    model.prepare(backend)
    caches = [model.init_cache() for _ in range(8)]
    model.forward_step_batch([1] * 8, [0] * 8, caches, backend, compiled=True)
    monkeypatch.setattr(bm, "fast_emulate_blocks", spy_fast)
    monkeypatch.setattr(bm, "_psu_chain", spy_chain)
    model.forward_step_batch([2] * 8, [1] * 8, caches, backend, compiled=True)
    assert len(calls) == 13 and len(chains) == 13
    assert all(a == b == np.float32 for a, b, _ in calls), calls
    assert max(depth for *_, depth in calls) == 1024
    assert set(chains) == {np.dtype(np.float32)}


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"),
    reason="no CPU affinity API on this platform",
)
def test_one_cpu_affinity_starts_no_worker_thread():
    """Pinned to one CPU (as ``taskset -c 0`` would), a call far above the
    split threshold runs on the calling thread and no pool is created."""
    code = """if True:
        import importlib, os, threading
        import numpy as np
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        bm = importlib.import_module("repro.arith.bfp_matmul")
        rng = np.random.default_rng(0)
        out = bm.bfp_matmul_emulate(rng.normal(size=(197, 192)),
                                    rng.normal(size=(192, 768)))
        assert out.shape == (197, 768)
        assert bm._POOL is None, bm._POOL
        assert threading.active_count() == 1, threading.enumerate()
    """
    src = Path(bm.__file__).resolve().parents[2]
    subprocess.run(
        [sys.executable, "-c", code], check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
