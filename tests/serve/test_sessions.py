"""Tests for decoder session state: residency, affinity, KV accounting."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError, InvariantError
from repro.models.backend import get_backend
from repro.models.decoder import TinyLM
from repro.serve.request import Request
from repro.serve.sessions import SessionTable


def llm(rid: int, prompt: int = 10, gen: int = 3) -> Request:
    return Request(rid, "llm", 0, prompt_tokens=prompt, gen_tokens=gen)


class TestSessionTable:
    def test_open_pins_and_bounds(self):
        t = SessionTable(2, max_sessions_per_unit=2)
        t.open(llm(0), unit=1)
        t.open(llm(1), unit=1)
        assert t.free_slots(1) == 0 and t.free_slots(0) == 2
        with pytest.raises(ConfigurationError):
            t.open(llm(2), unit=1)
        with pytest.raises(ConfigurationError):
            t.open(llm(0), unit=0)  # duplicate rid

    def test_step_affinity_and_eviction(self):
        t = SessionTable(4)
        t.open(llm(7, prompt=5, gen=2), unit=3)
        first = t.first_decode_item(7, now=100)
        assert first.unit == 3 and first.step == 0 and first.context == 5

        nxt = t.step(7, now=200)  # first token generated
        assert nxt is not None
        assert nxt.unit == 3 and nxt.step == 1 and nxt.context == 6
        assert t.step(7, now=300) is None  # generation done -> evicted
        assert t.active() == 0 and t.free_slots(3) == t.max_sessions_per_unit

    def test_kv_accounting(self):
        t = SessionTable(2, kv_bytes_per_token=100)
        t.open(llm(0, prompt=10, gen=5), unit=0)
        assert t.kv_bytes(0) == 1000 and t.kv_bytes(1) == 0
        t.step(0, now=1)  # context grows with each generated token
        assert t.kv_bytes(0) == 1100
        assert t.peak_kv_bytes == 1000  # sampled when a session opens

    def test_close_that_would_free_missing_kv_raises(self):
        t = SessionTable(2)
        t.open(llm(0, prompt=10, gen=2), unit=1)
        t.open(llm(1, prompt=4, gen=3), unit=0)
        t.step(0, now=1)
        t.kv_tokens -= 10  # KV released outside the table
        with pytest.raises(InvariantError, match="unit 1: closing request 0"):
            t.step(0, now=2)  # the close would leave -6 tokens resident


KV_OPS = st.lists(
    st.tuples(st.sampled_from(("open", "step")),
              st.integers(0, 2),  # unit to open on / live session to step
              st.integers(1, 20),  # prompt tokens
              st.integers(1, 4)),  # generated tokens
    max_size=60,
)


@given(KV_OPS)
def test_running_kv_tokens_match_resident_sessions(ops):
    """The running token count prices every resident session's KV after
    any sequence of opens and steps (evictions included), and the peak is
    the largest resident KV seen at an open."""
    t = SessionTable(3, max_sessions_per_unit=2, kv_bytes_per_token=7)
    live: list[int] = []
    peak = 0
    for rid, (op, pick, prompt, gen) in enumerate(ops):
        if op == "open":
            if t.free_slots(pick) > 0:
                t.open(llm(rid, prompt=prompt, gen=gen), unit=pick)
                live.append(rid)
                peak = max(peak, sum(t.kv_bytes(u) for u in range(3)))
        elif live:
            stepped = live[pick % len(live)]
            if t.step(stepped, now=rid) is None:
                live.remove(stepped)
        resident = sum(t.kv_bytes(u) for u in range(3))
        assert t.kv_tokens * t.kv_bytes_per_token == resident
        assert t.peak_kv_bytes == peak


class TestFunctionalAffinity:
    """Batched stepping of co-resident sessions reproduces per-session decode."""

    def test_batched_sessions_match_sequential(self):
        lm = TinyLM(vocab=8, seq_len=16, dim=32, depth=2, n_heads=4, seed=1)
        be = get_backend("fp32")
        prompts = [[1, 2, 3, 4], [5, 1, 0, 2], [7, 7, 1, 3]]

        # Reference: each session decoded alone through forward_step.
        ref = [lm.generate_cached(np.array(p), 5, get_backend("fp32")) for p in prompts]

        # Serving path: sessions resident together, stepped as one batch.
        caches = [lm.init_cache() for _ in prompts]
        seqs = [list(p) for p in prompts]
        for pos in range(len(prompts[0])):
            logits = lm.forward_step_batch(
                [p[pos] for p in prompts], [pos] * 3, caches, be
            )
        for _ in range(5):
            nxt = [int(np.argmax(logits[i])) for i in range(3)]
            for s, n in zip(seqs, nxt):
                s.append(n)
            pos = len(seqs[0]) - 1
            logits = lm.forward_step_batch(nxt, [pos] * 3, caches, be)
        for got, want in zip(seqs, ref):
            assert got == list(want)

    def test_batched_step_amortizes_weight_passes(self):
        lm = TinyLM(vocab=8, seq_len=8, dim=32, depth=2, n_heads=4, seed=0)
        seq_be, bat_be = get_backend("fp32"), get_backend("fp32")

        caches = [lm.init_cache() for _ in range(4)]
        for i, c in enumerate(caches):
            lm.forward_step(i + 1, 0, c, seq_be)
        seq = seq_be.stats()

        caches = [lm.init_cache() for _ in range(4)]
        lm.forward_step_batch([1, 2, 3, 4], [0] * 4, caches, bat_be)
        bat = bat_be.stats()

        assert bat["rows"] == seq["rows"]  # same useful work...
        assert bat["matmuls"] < seq["matmuls"]  # ...fewer weight streams
        # Linear layers collapse 4 -> 1; only per-session attention remains.
        linear_per_step = 2 * 4 + 2  # (qkv, proj, gate, up, down ... ) lower bound
        assert seq["matmuls"] - bat["matmuls"] >= linear_per_step

    def test_mixed_positions_fall_into_groups(self):
        lm = TinyLM(vocab=8, seq_len=8, dim=32, depth=2, n_heads=4, seed=0)
        # Session 0 is one token ahead of session 1.
        c0, c0_ref = lm.init_cache(), lm.init_cache()
        lm.forward_step(3, 0, c0, get_backend("fp32"))
        lm.forward_step(3, 0, c0_ref, get_backend("fp32"))
        c1 = lm.init_cache()

        out = lm.forward_step_batch([1, 2], [1, 0], [c0, c1], get_backend("fp32"))
        ref0 = lm.forward_step(1, 1, c0_ref, get_backend("fp32"))
        ref1 = lm.forward_step(2, 0, lm.init_cache(), get_backend("fp32"))
        assert out.shape == (2, 8)
        assert np.allclose(out[0], ref0, atol=1e-6)
        assert np.allclose(out[1], ref1, atol=1e-6)

    def test_batch_validation(self):
        lm = TinyLM(vocab=8, seq_len=8, dim=32, depth=2, n_heads=4, seed=0)
        c0, c1 = lm.init_cache(), lm.init_cache()
        lm.forward_step(3, 0, c0)
        with pytest.raises(ConfigurationError):
            lm.forward_step_batch([1], [0, 1], [c0])  # ragged batch fields
        with pytest.raises(ConfigurationError):
            # Same position but unequal KV lengths: cannot stack.
            lm.forward_step_batch([1, 2], [1, 1], [c0, c1])
