"""Span bookkeeping: self-time identity and wrapping of aliases/methods."""

import sys
import time
import types

import pytest

import repro  # noqa: F401 - the parent package of the synthetic modules
from bench.spans import SpanRecorder


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


@pytest.fixture
def fake_modules():
    """``repro.fake_a`` defines functions; ``repro.fake_b`` imported one
    of them under an alias, the way ``from x import f as g`` does."""
    a = types.ModuleType("repro.fake_a")

    def inner():
        _busy(0.002)

    def outer():
        _busy(0.001)
        a.inner()
        a.inner()
        return "done"

    class Box:
        def work(self):
            a.inner()

    a.inner, a.outer, a.Box = inner, outer, Box
    b = types.ModuleType("repro.fake_b")
    b.aliased_inner = inner
    sys.modules["repro.fake_a"] = a
    sys.modules["repro.fake_b"] = b
    yield a, b
    del sys.modules["repro.fake_a"], sys.modules["repro.fake_b"]


TARGETS = (("repro.fake_a", "inner"), ("repro.fake_a", "outer"),
           ("repro.fake_a", "Box.work"))


def test_self_time_identity_on_nested_calls(fake_modules):
    a, _ = fake_modules
    rec = SpanRecorder()
    rec.install(TARGETS)
    try:
        def phase():
            _busy(0.001)  # root self time: unattributed
            for _ in range(3):
                a.outer()
            a.Box().work()

        _, wall = rec.root(phase)
    finally:
        rec.uninstall()
    calls = {k: v[0] for k, v in rec.agg.items()}
    assert calls == {"fake_a.inner": 7, "fake_a.outer": 3, "fake_a.Box.work": 1}
    outer_total = rec.agg["fake_a.outer"][1]
    outer_self = rec.agg["fake_a.outer"][2]
    assert 0 < outer_self < outer_total
    assert rec.unattributed > 0
    assert rec.self_total() + rec.unattributed == pytest.approx(wall, rel=1e-9)
    # Parents of kept spans are spans of the enclosing call (or the root).
    ids = {s[0]: s[1] for s in rec.spans}
    inner_parents = {ids[s[4]] for s in rec.spans if s[1] == "fake_a.inner"}
    assert inner_parents == {"fake_a.outer", "fake_a.Box.work"}


def test_module_alias_is_patched_and_restored(fake_modules):
    a, b = fake_modules
    original = a.inner
    rec = SpanRecorder()
    rec.install(TARGETS[:1])
    try:
        assert b.aliased_inner is a.inner is not original
        rec.root(b.aliased_inner)
    finally:
        rec.uninstall()
    assert rec.agg["fake_a.inner"][0] == 1
    assert a.inner is original and b.aliased_inner is original


def test_calls_outside_a_root_are_not_recorded(fake_modules):
    a, _ = fake_modules
    rec = SpanRecorder()
    rec.install(TARGETS)
    try:
        a.outer()
    finally:
        rec.uninstall()
    assert all(v[0] == 0 for v in rec.agg.values())
    assert "work" in a.Box.__dict__ and a.Box.work.__name__ == "work"
