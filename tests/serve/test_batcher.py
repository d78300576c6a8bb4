"""Tests for dynamic-batcher coalescing and window-timeout edges."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.perf.throughput import DEFAULT_CLOCK
from repro.serve.batcher import BatchPolicy, DynamicBatcher
from repro.serve.request import PhaseItem, Request

WAIT_US = 100.0
WAIT_CYC = BatchPolicy(max_wait_us=WAIT_US).max_wait_cycles(DEFAULT_CLOCK)


def vit_item(rid: int, ready: int) -> PhaseItem:
    return PhaseItem(Request(rid, "vit", 0), "vit", ready=ready)


def llm_request(rid: int) -> Request:
    return Request(rid, "llm", 0, prompt_tokens=8, gen_tokens=4)


def prefill_item(rid: int, ready: int) -> PhaseItem:
    return PhaseItem(llm_request(rid), "prefill", ready=ready, context=8)


def decode_item(rid: int, ready: int, unit: int, context: int = 8) -> PhaseItem:
    return PhaseItem(llm_request(rid), "decode", ready=ready,
                     context=context, unit=unit)


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ConfigurationError):
            BatchPolicy(max_wait_us=-1.0)
        with pytest.raises(ConfigurationError):
            BatchPolicy(vit_max_batch=0)

    def test_wait_cycles(self):
        assert BatchPolicy(max_wait_us=100.0).max_wait_cycles(DEFAULT_CLOCK) == 30000


class TestCoalescing:
    def test_batch_closes_at_max_size(self):
        b = DynamicBatcher(BatchPolicy(max_batch=4, max_wait_us=WAIT_US,
                                       vit_max_batch=4))
        for i in range(6):
            b.add(vit_item(i, ready=0))
        batch = b.pop_ready(now=1, unit=0)
        assert batch is not None and batch.size == 4
        assert [i.request.rid for i in batch.items] == [0, 1, 2, 3]  # FIFO
        # Remainder is below max size and inside the window: not ready.
        assert b.pop_ready(now=1, unit=0) is None
        assert b.depth() == 2

    def test_window_timeout_closes_partial_batch(self):
        b = DynamicBatcher(BatchPolicy(max_batch=8, max_wait_us=WAIT_US))
        b.add(prefill_item(0, ready=100))
        assert b.pop_ready(now=100 + WAIT_CYC - 1, unit=0) is None
        batch = b.pop_ready(now=100 + WAIT_CYC, unit=0)
        assert batch is not None and batch.size == 1

    def test_zero_window_dispatches_immediately(self):
        b = DynamicBatcher(BatchPolicy(max_batch=8, max_wait_us=0.0,
                                       vit_max_batch=8))
        b.add(vit_item(0, ready=5))
        b.add(vit_item(1, ready=5))
        batch = b.pop_ready(now=5, unit=0)
        assert batch is not None and batch.size == 2  # coalesces what is queued

    def test_vit_capped_separately(self):
        # Default policy: ViT never batches (no stream-efficiency gain).
        b = DynamicBatcher(BatchPolicy(max_batch=8, max_wait_us=0.0))
        for i in range(3):
            b.add(vit_item(i, ready=0))
        assert b.pop_ready(now=0, unit=0).size == 1
        assert b.depth() == 2

    def test_next_expiry_tracks_oldest_head(self):
        b = DynamicBatcher(BatchPolicy(max_batch=8, max_wait_us=WAIT_US))
        assert b.next_expiry() is None
        b.add(vit_item(0, ready=200))
        b.add(prefill_item(1, ready=50))
        assert b.next_expiry() == 50 + WAIT_CYC

    def test_phases_never_mix(self):
        b = DynamicBatcher(BatchPolicy(max_batch=8, max_wait_us=0.0))
        b.add(vit_item(0, ready=0))
        b.add(prefill_item(1, ready=0))
        first = b.pop_ready(now=0, unit=0)
        second = b.pop_ready(now=0, unit=0)
        assert {first.phase, second.phase} == {"vit", "prefill"}
        assert first.size == second.size == 1

    def test_oldest_head_wins_between_classes(self):
        b = DynamicBatcher(BatchPolicy(max_batch=8, max_wait_us=0.0))
        b.add(prefill_item(0, ready=10))
        b.add(vit_item(1, ready=5))
        assert b.pop_ready(now=10, unit=0).phase == "vit"


class TestDecodeAffinity:
    def test_decode_requires_unit_pin(self):
        b = DynamicBatcher()
        with pytest.raises(ConfigurationError):
            b.add(PhaseItem(llm_request(0), "decode", ready=0, context=8))

    def test_decode_only_pops_on_its_unit(self):
        b = DynamicBatcher(BatchPolicy(max_batch=8, max_wait_us=0.0))
        b.add(decode_item(0, ready=0, unit=3))
        assert b.pop_ready(now=0, unit=1) is None
        batch = b.pop_ready(now=0, unit=3)
        assert batch is not None and batch.unit == 3

    def test_decode_preferred_over_global_classes(self):
        b = DynamicBatcher(BatchPolicy(max_batch=8, max_wait_us=0.0))
        b.add(vit_item(0, ready=0))
        b.add(decode_item(1, ready=50, unit=2))
        assert b.pop_ready(now=50, unit=2).phase == "decode"

    def test_batch_context_is_worst_item(self):
        b = DynamicBatcher(BatchPolicy(max_batch=8, max_wait_us=0.0))
        b.add(decode_item(0, ready=0, unit=0, context=8))
        b.add(decode_item(1, ready=0, unit=0, context=40))
        assert b.pop_ready(now=0, unit=0).context == 40


class TestPrefillSlots:
    def test_slots_cap_batch_size(self):
        b = DynamicBatcher(BatchPolicy(max_batch=8, max_wait_us=0.0))
        for i in range(5):
            b.add(prefill_item(i, ready=0))
        batch = b.pop_ready(now=0, unit=0, prefill_slots=2)
        assert batch.size == 2
        assert b.depth() == 3

    def test_zero_slots_suppress_prefill(self):
        b = DynamicBatcher(BatchPolicy(max_batch=8, max_wait_us=0.0))
        b.add(prefill_item(0, ready=0))
        assert b.pop_ready(now=0, unit=0, prefill_slots=0) is None
        b.add(vit_item(1, ready=0))
        assert b.pop_ready(now=0, unit=0, prefill_slots=0).phase == "vit"


OPS = st.lists(
    st.tuples(st.sampled_from(("vit", "prefill", "decode", "pop")),
              st.integers(0, 2),  # unit
              st.integers(0, 3),  # prefill slots
              st.integers(0, 2 * WAIT_CYC)),  # cycle of the op
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(OPS)
def test_running_depth_matches_queue_lengths(ops):
    """The O(1) depth counter agrees with the queues after any sequence
    of adds and pops (including partial, slot-capped and window-gated
    pops), and so do empty(), the pinned-unit set and the vit/prefill
    readiness answer; no class is left holding an empty queue."""
    b = DynamicBatcher(BatchPolicy(max_batch=3, max_wait_us=WAIT_US,
                                   vit_max_batch=2))
    for rid, (op, unit, slots, now) in enumerate(ops):
        if op == "vit":
            b.add(vit_item(rid, ready=now))
        elif op == "prefill":
            b.add(prefill_item(rid, ready=now))
        elif op == "decode":
            b.add(decode_item(rid, ready=now, unit=unit))
        else:
            b.pop_ready(now, unit, prefill_slots=slots, decode_sessions=slots)
        assert all(b._queues.values())  # no class keeps an empty queue
        assert b.depth() == sum(len(q) for q in b._queues.values())
        assert b.empty() == (b.depth() == 0)
        assert b.decode_units == {
            unit for (phase, unit), q in b._queues.items()
            if phase == "decode" and q
        }
        assert b.global_ready(now) == (b._ready(("vit", None), now)
                                       or b._ready(("prefill", None), now))
