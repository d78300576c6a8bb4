"""Compiled decode plans: trace-once/replay-many vs the eager path.

The contract under test (:mod:`repro.runtime.plan`):

* replayed logits are **bit-identical** to eager ``forward_step_batch``
  for every precision policy (SHA-256 over the raw bytes), and backend
  op statistics match exactly;
* plans are cached per (backend, batch) and invalidated by policy
  swaps, prepared-cache clears (generation bump) and cache swaps;
* untraceable models and non-policy backends fall back to eager;
* with a live numerics monitor the compiled path samples 1-in-N steps
  through the full eager tap path and replays the rest tap-free;
* KV arenas append in place — a stable batch group pays zero per-token
  copies — and keep bfp K/V tiles that a step brings up to date by
  quantizing one 8-token block, or catching up on every block an eager
  step, a regroup or a width change left stale.
"""

import hashlib
import importlib

import numpy as np
import pytest

from repro.arith.bfp_matmul import resident_tiles
from repro.errors import ConfigurationError
from repro.models.backend import PolicyBackend, get_backend
from repro.models.decoder import TinyLM
from repro.models.policy import PolicyRule, PrecisionPolicy, get_policy
from repro.obs.numerics import NULL_MONITOR, NumericsMonitor, set_monitor
from repro.perf.prepared import PreparedOperandCache, get_cache, set_cache
from repro.runtime import plan as planmod
from repro.runtime.plan import (
    KvArena,
    bind_group_cache,
    compiled_active,
    plan_stats,
    resolve_plan,
    set_compiled_default,
    set_tap_sampling,
)


def _sha(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _half_policy(fmt: str) -> PrecisionPolicy:
    return PrecisionPolicy(
        name=f"{fmt}-linear",
        rules=(
            PolicyRule("*", "linear", fmt),
            PolicyRule("*", "attention", fmt),
        ),
        default="fp32",
    )


def _model(dim=48, depth=2, heads=4, seq_len=16, seed=3) -> TinyLM:
    return TinyLM(
        vocab=32, seq_len=seq_len, dim=dim, depth=depth, n_heads=heads,
        seed=seed,
    )


@pytest.fixture(autouse=True)
def _clean_state():
    """Isolate the process-wide knobs every test touches."""
    prev_cache = set_cache(PreparedOperandCache())
    prev_mon = set_monitor(NULL_MONITOR)
    prev_default = set_compiled_default(True)
    prev_tap = set_tap_sampling(planmod.DEFAULT_TAP_SAMPLE)
    try:
        yield
    finally:
        set_cache(prev_cache)
        set_monitor(prev_mon)
        set_compiled_default(prev_default)
        set_tap_sampling(prev_tap)


def _decode_both(model, policy, steps=8, batch=2, seed=11):
    """Run the same token stream eager and compiled; return both sides."""
    rng = np.random.default_rng(seed)
    toks = rng.integers(0, model.vocab, size=(batch, steps))
    out = {}
    for mode, compiled in (("eager", False), ("compiled", True)):
        backend = PolicyBackend(policy)
        caches = [model.init_cache() for _ in range(batch)]
        logits = []
        for s in range(steps):
            logits.append(
                model.forward_step_batch(
                    list(toks[:, s]), [s] * batch, caches, backend,
                    compiled=compiled,
                )
            )
        out[mode] = (np.stack(logits), backend.stats())
    return out["eager"], out["compiled"]


class TestBitIdentity:
    """Replay must be indistinguishable from eager — to the bit."""

    @pytest.mark.parametrize(
        "policy_name",
        ["bfp8-mixed", "bfp8-all", "int8-linear", "int8-all", "ibert",
         "mixed-fp8", "fp32"],
    )
    def test_preset_policies(self, policy_name):
        model = _model()
        (le, se), (lc, sc) = _decode_both(model, get_policy(policy_name))
        assert _sha(le) == _sha(lc)
        assert np.array_equal(le, lc)
        assert se == sc, "backend op statistics diverged"

    @pytest.mark.parametrize("fmt", ["fp16", "bf16", "fp8-e4m3"])
    def test_half_and_minifloat_policies(self, fmt):
        model = _model(depth=1)
        (le, _), (lc, _) = _decode_both(model, _half_policy(fmt), steps=6)
        assert _sha(le) == _sha(lc)

    def test_single_session_forward_step(self):
        """forward_step (batch-of-one) rides the same compiled path."""
        model = _model()
        backend_e = PolicyBackend(get_policy("bfp8-mixed"))
        backend_c = PolicyBackend(get_policy("bfp8-mixed"))
        cache_e, cache_c = model.init_cache(), model.init_cache()
        for s in range(6):
            le = model.forward_step(s % 7, s, cache_e, backend_e, compiled=False)
            lc = model.forward_step(s % 7, s, cache_c, backend_c, compiled=True)
            assert np.array_equal(le, lc)
        assert plan_stats(model), "compiled decode never built a plan"

    def test_mixed_position_batch_groups(self):
        """Sessions at different positions split into per-shape groups,
        each replayed by its own plan — results match eager exactly."""
        model = _model()
        policy = get_policy("bfp8-mixed")
        rng = np.random.default_rng(5)

        def run(compiled):
            backend = PolicyBackend(policy)
            caches = [model.init_cache() for _ in range(3)]
            # Stagger session 2: step it alone twice, then join the batch.
            for s in range(2):
                model.forward_step_batch(
                    [int(rng.integers(32))], [s], [caches[2]], backend,
                    compiled=compiled,
                )
            outs = []
            for s in range(4):
                toks = [1 + s, 2 + s, 3 + s]
                outs.append(
                    model.forward_step_batch(
                        toks, [s, s, s + 2], caches, backend,
                        compiled=compiled,
                    )
                )
            return np.stack(outs)

        rng = np.random.default_rng(5)
        le = run(False)
        rng = np.random.default_rng(5)
        lc = run(True)
        assert np.array_equal(le, lc)
        # Two group shapes -> two plans (batch 2 and batch 1).
        batches = sorted(p["batch"] for p in plan_stats(model))
        assert batches == [1, 2]


class TestPlanCache:
    def test_plan_reused_across_steps(self):
        model = _model()
        backend = PolicyBackend(get_policy("bfp8-mixed"))
        p1 = resolve_plan(model, backend, 2)
        p2 = resolve_plan(model, backend, 2)
        assert p1 is p2

    def test_new_backend_new_plan(self):
        model = _model()
        policy = get_policy("bfp8-mixed")
        p1 = resolve_plan(model, PolicyBackend(policy), 1)
        p2 = resolve_plan(model, PolicyBackend(policy), 1)
        assert p1 is not p2

    def test_policy_swap_invalidates(self):
        model = _model()
        backend = PolicyBackend(get_policy("bfp8-mixed"))
        p1 = resolve_plan(model, backend, 1)
        backend.policy = get_policy("int8-linear")
        p2 = resolve_plan(model, backend, 1)
        assert p1 is not p2

    def test_prepared_cache_clear_invalidates(self):
        """clear() bumps the generation — the weight-mutation contract."""
        model = _model()
        backend = PolicyBackend(get_policy("bfp8-mixed"))
        p1 = resolve_plan(model, backend, 1)
        get_cache().clear()
        p2 = resolve_plan(model, backend, 1)
        assert p1 is not p2

    def test_prepared_cache_swap_invalidates(self):
        model = _model()
        backend = PolicyBackend(get_policy("bfp8-mixed"))
        p1 = resolve_plan(model, backend, 1)
        set_cache(PreparedOperandCache())
        p2 = resolve_plan(model, backend, 1)
        assert p1 is not p2

    def test_weight_mutation_contract_end_to_end(self):
        """In-place weight edit + get_cache().clear() re-traces and the
        replayed logits track the new weights exactly."""
        model = _model(depth=1)
        backend = PolicyBackend(get_policy("bfp8-mixed"))
        cache = model.init_cache()
        model.forward_step(1, 0, cache, backend, compiled=True)

        lin = model.blocks[0].attn.qkv
        lin.params["w"] += 0.25
        get_cache().clear()

        eager_backend = PolicyBackend(get_policy("bfp8-mixed"))
        ce, cc = model.init_cache(), model.init_cache()
        for s in range(3):
            le = model.forward_step(2, s, ce, eager_backend, compiled=False)
            lc = model.forward_step(2, s, cc, backend, compiled=True)
            assert np.array_equal(le, lc)

    def test_cache_bounded(self):
        model = _model(depth=1)
        policy = get_policy("fp32")
        backends = [PolicyBackend(policy) for _ in range(planmod._PLAN_CACHE_MAX + 3)]
        for be in backends:
            resolve_plan(model, be, 1)
        assert len(model.__dict__[planmod._PLAN_CACHE_ATTR]) <= planmod._PLAN_CACHE_MAX


class TestEagerFallback:
    def test_untraceable_model_caches_none(self):
        class OddBlockLM(TinyLM):
            pass

        model = OddBlockLM(vocab=16, seq_len=8, dim=16, depth=1, n_heads=2)
        backend = PolicyBackend(get_policy("bfp8-mixed"))
        assert resolve_plan(model, backend, 1) is None
        assert resolve_plan(model, backend, 1) is None  # cached marker

        # The decode still works (falls back to eager) and matches a
        # plain TinyLM with identical parameters.
        twin = _model(dim=16, depth=1, heads=2)
        twin2 = OddBlockLM(vocab=32, seq_len=16, dim=16, depth=1, n_heads=2, seed=3)
        ce, cc = twin.init_cache(), twin2.init_cache()
        be, bc = get_backend("fp32"), get_backend("fp32")
        for s in range(3):
            le = twin.forward_step(1, s, ce, be, compiled=False)
            lc = twin2.forward_step(1, s, cc, bc, compiled=True)
            assert np.array_equal(le, lc)

    def test_non_causal_unsupported(self):
        model = _model(depth=1)
        model.blocks[0].attn.causal = False
        backend = PolicyBackend(get_policy("bfp8-mixed"))
        assert resolve_plan(model, backend, 1) is None
        model.blocks[0].attn.causal = True

    def test_compiled_active_gates(self):
        backend = PolicyBackend(get_policy("bfp8-mixed"))
        assert compiled_active(backend)
        assert not compiled_active(backend, override=False)
        assert not compiled_active(object())
        with backend.scope("outer"):
            assert not compiled_active(backend)
        assert compiled_active(backend)

        set_compiled_default(False)
        assert not compiled_active(backend)
        assert compiled_active(backend, override=True)

    def test_monitor_defaults_to_eager(self):
        """A live monitor flips the default to eager (full taps) unless
        the caller explicitly opts into sampled-tap compiled decode."""
        backend = PolicyBackend(get_policy("bfp8-mixed"))
        set_monitor(NumericsMonitor())
        assert not compiled_active(backend)
        assert compiled_active(backend, override=True)


class TestSampledTaps:
    def test_one_in_n_steps_sample_full_taps(self):
        set_tap_sampling(2)
        model = _model(depth=1)
        backend = PolicyBackend(get_policy("bfp8-mixed"))
        mon = NumericsMonitor()
        set_monitor(mon)
        cache = model.init_cache()
        for s in range(6):
            model.forward_step(1, s, cache, backend, compiled=True)
        stats = plan_stats(model)
        assert len(stats) == 1
        assert stats[0]["sample_every"] == 2
        assert stats[0]["sampled_taps"] == 3  # steps 1, 3, 5
        assert stats[0]["replays"] == 3
        # The sampled steps ran the full eager tap path: the monitor saw
        # bfp8 activation observations.
        assert mon.as_dict(), "sampled taps recorded nothing"

    def test_monitored_compiled_logits_match_eager(self):
        set_tap_sampling(3)
        model = _model(depth=1)
        be = PolicyBackend(get_policy("bfp8-mixed"))
        bc = PolicyBackend(get_policy("bfp8-mixed"))
        set_monitor(NumericsMonitor())
        ce, cc = model.init_cache(), model.init_cache()
        for s in range(5):
            le = model.forward_step(2, s, ce, be, compiled=False)
            lc = model.forward_step(2, s, cc, bc, compiled=True)
            assert np.array_equal(le, lc)


def _decode_schedule(model, schedule, backends, *, compiled, seed=23):
    """Decode a step schedule; return the logits of every step, stacked.

    ``schedule`` lists one entry per step: the session indices stepped
    together (grouped by position as ``forward_step_batch`` does) and the
    backend index to run them under.  Session ``i`` decodes token
    ``toks[i, p]`` at its own position ``p``.
    """
    n = 1 + max(i for idxs, _ in schedule for i in idxs)
    toks = np.random.default_rng(seed).integers(0, model.vocab, size=(n, 64))
    caches = [model.init_cache() for _ in range(n)]
    pos = [0] * n
    outs = []
    for idxs, which in schedule:
        outs.append(model.forward_step_batch(
            [int(toks[i, pos[i]]) for i in idxs], [pos[i] for i in idxs],
            [caches[i] for i in idxs], backends[which], compiled=compiled,
        ))
        for i in idxs:
            pos[i] += 1
    return np.concatenate(outs), caches


def _compiled_matches_eager(model, policies, schedule):
    """Run ``schedule`` eager and compiled on fresh backends; assert the
    logits are SHA-identical and return the compiled run's caches."""
    eager, _ = _decode_schedule(
        model, schedule, [PolicyBackend(p) for p in policies], compiled=False
    )
    compiled, caches = _decode_schedule(
        model, schedule, [PolicyBackend(p) for p in policies], compiled=True
    )
    assert _sha(compiled) == _sha(eager)
    return caches


class TestKvTileStaleness:
    """Compiled decode keeps bfp K/V tiles in the arena; every way they can
    go stale must still give eager's logits, to the bit."""

    @pytest.mark.parametrize(
        "policy_name, dim, heads",
        [
            ("bfp2-mixed", 48, 4), ("bfp3-mixed", 64, 2), ("bfp4-mixed", 40, 5),
            ("bfp5-mixed", 48, 4), ("bfp6-mixed", 64, 2), ("bfp7-mixed", 40, 5),
            ("bfp8-mixed", 48, 4), ("bfp8-all", 64, 2), ("mixed-fp8", 40, 5),
        ],
    )
    def test_long_staggered_schedule(self, policy_name, dim, heads):
        """Sessions 0 and 1 decode 42 steps as one group; session 2 starts
        5 steps later in its own group.  Finished blocks are reused many
        times, across arena growths, on head_dim 12, 32 and 8."""
        model = _model(dim=dim, heads=heads, depth=1, seq_len=64)
        steps, lag = 42, 5
        schedule = [
            ([i for i, start in enumerate((0, 0, lag))
              if 0 <= s - start < steps], 0)
            for s in range(steps + lag)
        ]
        caches = _compiled_matches_eager(
            model, [get_policy(policy_name)], schedule
        )
        arena = caches[0][0]["arena"]
        assert arena.rows == 2 and arena.length == steps
        assert arena.length // 8 >= 4 and arena.grow_events >= 3

    def test_width_switch_mid_block(self):
        """One group's live caches decoded by a bfp8 and a bfp4 backend in
        turn, switching every 5 steps: the tiles must re-quantize at each
        switch, none of which falls on a block edge."""
        model = _model(depth=1, seq_len=32)
        schedule = [([0, 1], (s // 5) % 2) for s in range(30)]
        _compiled_matches_eager(
            model, [get_policy("bfp8-mixed"), get_policy("bfp4-mixed")],
            schedule,
        )

    def test_sampled_eager_steps_between_replays(self):
        """With the monitor on, every third step runs eagerly and appends
        K/V without tiling them; the next replay must catch up."""
        set_tap_sampling(3)
        set_monitor(NumericsMonitor())
        model = _model(depth=1, seq_len=32)
        caches = _compiled_matches_eager(
            model, [get_policy("bfp8-mixed")], [([0, 1], 0)] * 30
        )
        (stats,) = plan_stats(model)
        assert stats["sampled_taps"] == 10 and stats["replays"] == 20
        assert caches[0][0]["arena"].length == 30

    def test_regroup_after_solo_decode(self):
        """Two sessions decode alone for 13 steps, then one batch for 17:
        the regrouped arena starts with no tiles."""
        model = _model(depth=1, seq_len=32)
        schedule = [([i], 0) for _ in range(13) for i in (0, 1)]
        schedule += [([0, 1], 0)] * 17
        caches = _compiled_matches_eager(
            model, [get_policy("bfp8-mixed")], schedule
        )
        arena = caches[0][0]["arena"]
        assert arena.rows == 2 and arena.stack_events == 1
        assert arena.length == 30


class TestKvArena:
    def test_append_matches_stacking(self, rng):
        arena = KvArena(2, 4, 8, capacity=1, max_capacity=16)
        ks, vs = [], []
        for _ in range(9):
            k = rng.normal(size=(2, 4, 1, 8)).astype(np.float32)
            v = rng.normal(size=(2, 4, 1, 8)).astype(np.float32)
            arena.append(k, v)
            ks.append(k)
            vs.append(v)
        k_view, v_view = arena.views()
        assert np.array_equal(k_view, np.concatenate(ks, axis=2))
        assert np.array_equal(v_view, np.concatenate(vs, axis=2))
        assert arena.capacity <= 16

    def test_grow_is_logarithmic(self):
        arena = KvArena(1, 2, 4, capacity=1, max_capacity=64)
        for _ in range(64):
            arena.append(
                np.zeros((1, 2, 1, 4), np.float32),
                np.zeros((1, 2, 1, 4), np.float32),
            )
        assert arena.grow_events <= 7  # doubling: 1->2->4->...->64

    def test_stable_group_pays_zero_per_token_copies(self):
        """The regression the arena exists for: a batch group stepping
        together re-stacks once at formation, never per token."""
        model = _model(depth=1)
        backend = PolicyBackend(get_policy("bfp8-mixed"))
        caches = [model.init_cache() for _ in range(3)]
        model.forward_step_batch([1, 2, 3], [0] * 3, caches, backend)

        arenas = {id(c[0]["arena"]) for c in caches}
        assert len(arenas) == 1, "group did not share one arena"
        arena = caches[0][0]["arena"]
        assert arena.stack_events == 1
        stacked = arena.stack_copied

        for s in range(1, 10):
            model.forward_step_batch([1, 2, 3], [s] * 3, caches, backend)
            assert caches[0][0]["arena"] is arena, "arena churned mid-stream"
            assert arena.stack_events == 1, "per-token re-stack happened"
            assert arena.stack_copied == stacked
        assert arena.grow_events <= 5
        assert arena.length == 10

    def test_bfp_tiles_match_whole_cache_quantization(self, rng):
        """Tiles kept across appends, growths and width changes equal the
        tiles of the whole zero-padded K^T and V, quantized afresh."""
        rows, h, hd = 2, 3, 12
        arena = KvArena(rows, h, hd, capacity=3, max_capacity=40)
        for t in range(1, 38):
            kv = rng.normal(size=(2, rows, h, 1, hd)).astype(np.float32)
            arena.append(kv[0], kv[1])
            if t % 3 and t % 7:
                continue  # appends in between leave blocks to catch up
            bits = 4 if t % 2 else 8
            k, v = arena.views()
            want = (
                *resident_tiles(
                    k.transpose(0, 1, 3, 2).reshape(rows * h, hd, t),
                    man_bits=bits,
                ),
                *resident_tiles(v.reshape(rows * h, t, hd), man_bits=bits),
            )
            for got, ref in zip(arena.bfp_tiles(bits), want):
                assert np.array_equal(got, ref)
        assert arena.grow_events >= 3

    @pytest.mark.parametrize("hd", [8, 12, 32])
    @pytest.mark.parametrize("man_bits", range(2, 9))
    def test_kt_tiles_from_k_layout_equal_transposed_quantization(
        self, rng, hd, man_bits
    ):
        """K^T's tiles, quantized from K's own ``(t, hd)`` layout, equal
        ``resident_tiles`` of the transposed copy byte for byte, codes and
        exponents, for finished blocks and partial tail blocks; the
        quantized-token count is unchanged."""
        rows, h = 2, 3
        arena = KvArena(rows, h, hd, capacity=4, max_capacity=32)
        quantized = tiled = 0
        for t in range(1, 22):
            kv = rng.normal(size=(2, rows, h, 1, hd)).astype(np.float32)
            kv *= np.exp2(rng.integers(-30, 30, size=(2, 1, h, 1, 1)))
            arena.append(kv[0], kv[1])
            if t not in (3, 8, 13, 21):
                continue
            # From the first block not yet final through the tail block.
            quantized += 8 * (-(-t // 8) - tiled // 8)
            tiled = t
            k, _ = arena.views()
            want = resident_tiles(
                k.transpose(0, 1, 3, 2).reshape(rows * h, hd, t),
                man_bits=man_bits,
            )
            kt_man, kt_exp, _, _ = arena.bfp_tiles(man_bits)
            assert kt_man.dtype == want[0].dtype == np.float32
            assert kt_man.tobytes() == np.ascontiguousarray(want[0]).tobytes()
            assert kt_exp.tobytes() == np.ascontiguousarray(want[1]).tobytes()
            assert arena.quantized_tokens == quantized

    def test_bfp_tiles_are_float32_at_the_kv_bytes(self):
        """The tiles store float32 codes: with ``head_dim`` and the
        capacity multiples of 8 they take exactly the float K/V's bytes,
        half what float64 tiles take."""
        arena = KvArena(2, 4, 16, capacity=16)
        for _ in range(11):
            arena.append(np.ones((2, 4, 1, 16), np.float32),
                         np.ones((2, 4, 1, 16), np.float32))
        arena.bfp_tiles(8)
        kt_man, kt_exp, v_man, v_exp = arena._tiles
        assert kt_man.dtype == v_man.dtype == np.float32
        assert kt_man.nbytes == arena._k.nbytes and v_man.nbytes == arena._v.nbytes
        assert kt_exp.dtype == v_exp.dtype == np.int64

    def test_quantize_work_per_step_is_constant(self):
        """A compiled step quantizes one 8-token K/V block per arena, not
        the whole cache; an eager step quantizes none, and the first replay
        after a regroup catches up on the finished block and the tail."""
        model = _model(seq_len=32)
        backend = PolicyBackend(get_policy("bfp8-mixed"))
        caches = [model.init_cache() for _ in range(3)]

        def step(s, idxs, *, compiled=True):
            model.forward_step_batch(
                [1 + i for i in idxs], [s] * len(idxs),
                [caches[i] for i in idxs], backend, compiled=compiled,
            )
            return [entry["arena"].quantized_tokens for entry in caches[0]]

        assert step(0, [0, 1, 2]) == [8, 8]
        for s in range(1, 12):
            assert step(s, [0, 1, 2]) == [8 * (s + 1)] * 2
        assert step(12, [0, 1, 2], compiled=False) == [96, 96]
        # Session 2 leaves: a fresh two-row arena at length 13.
        assert step(13, [0, 1]) == [16, 16]
        for s in range(14, 20):
            assert step(s, [0, 1]) == [16 + 8 * (s - 13)] * 2

    def test_unequal_lengths_rejected(self):
        model = _model(depth=1)
        backend = PolicyBackend(get_policy("bfp8-mixed"))
        c1, c2 = model.init_cache(), model.init_cache()
        model.forward_step(1, 0, c1, backend)
        with pytest.raises(ConfigurationError):
            bind_group_cache(
                [c1[0], c2[0]],
                model.blocks[0].attn.n_heads,
                model.blocks[0].attn.head_dim,
            )

    def test_legacy_plain_dict_adopted(self, rng):
        """Caches without an arena (pre-plan layout) are stacked in."""
        h, hd, t = 2, 4, 3
        k = rng.normal(size=(1, h, t, hd)).astype(np.float32)
        v = rng.normal(size=(1, h, t, hd)).astype(np.float32)
        entry = {"k": k, "v": v}
        arena = bind_group_cache([entry], h, hd, max_capacity=8)
        assert entry["arena"] is arena
        assert np.array_equal(entry["k"], k)
        assert np.array_equal(entry["v"], v)


class TestPlanStats:
    def test_replay_counter_and_backend_name(self):
        model = _model(depth=1)
        backend = PolicyBackend(get_policy("bfp8-mixed"))
        cache = model.init_cache()
        for s in range(4):
            model.forward_step(1, s, cache, backend, compiled=True)
        (stats,) = plan_stats(model)
        assert stats["backend"] == "bfp8-mixed"
        assert stats["batch"] == 1
        assert stats["replays"] == 4
        assert stats["sampled_taps"] == 0

    def test_replay_runs_the_fast_kernel(self, monkeypatch):
        """Replayed bfp matmuls run the float64 kernel, never the integer
        oracle (no probe attached): one call per matmul of the step."""
        bm = importlib.import_module("repro.arith.bfp_matmul")

        calls = {"fast": 0, "oracle": 0}

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        model = _model()
        backend = PolicyBackend(get_policy("bfp8-mixed"))
        cache = model.init_cache()
        model.forward_step(1, 0, cache, backend, compiled=True)
        monkeypatch.setattr(
            bm, "fast_emulate_blocks", spy("fast", bm.fast_emulate_blocks)
        )
        monkeypatch.setattr(
            bm, "_emulate_blocks", spy("oracle", bm._emulate_blocks)
        )
        model.forward_step(2, 1, cache, backend, compiled=True)
        (stats,) = plan_stats(model)
        assert stats["replays"] == 2
        # Per block qkv, proj, fused gate/up and down, plus the head: 9
        # linear; per block Q.K^T and P.V: 4 attention.
        assert calls["fast"] == 13 and calls["oracle"] == 0
