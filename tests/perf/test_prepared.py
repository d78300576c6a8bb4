"""Tests for the prepared-operand cache (quantize-once weight residency)."""

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry, set_registry
from repro.perf.prepared import (
    PreparedOperandCache,
    PreparedTensor,
    content_fingerprint,
    get_cache,
    set_cache,
)


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    prev = set_registry(reg)
    try:
        yield reg
    finally:
        set_registry(prev)


@pytest.fixture
def cache(registry):
    prev = set_cache(PreparedOperandCache(capacity=8))
    try:
        yield get_cache()
    finally:
        set_cache(prev)


class TestFingerprint:
    def test_content_determines_digest(self, rng):
        x = rng.normal(size=(16, 16))
        assert content_fingerprint(x) == content_fingerprint(x.copy())

    def test_dtype_and_shape_matter(self):
        x = np.zeros((4, 8))
        assert content_fingerprint(x) != content_fingerprint(x.reshape(8, 4))
        assert content_fingerprint(x) != content_fingerprint(
            x.astype(np.float32)
        )

    def test_value_change_changes_digest(self, rng):
        x = rng.normal(size=(8, 8))
        before = content_fingerprint(x)
        x[3, 3] += 1.0
        assert content_fingerprint(x) != before


class TestCacheMechanics:
    def test_hit_on_second_lookup(self, cache, registry, rng):
        w = rng.normal(size=(16, 16))
        first, hit1 = cache.prepare_bfp(w)
        second, hit2 = cache.prepare_bfp(w)
        assert (hit1, hit2) == (False, True)
        assert second is first
        counters = registry.as_dict()["counters"]
        assert counters["prepared.cache.hits"] == 1
        assert counters["prepared.cache.misses"] == 1

    def test_equal_content_shares_entry(self, cache, rng):
        w = rng.normal(size=(16, 16))
        a, _ = cache.prepare_bfp(w)
        b, hit = cache.prepare_bfp(w.copy())
        assert hit and b is a
        assert len(cache) == 1

    def test_params_split_entries(self, cache, rng):
        w = rng.normal(size=(16, 16))
        a, _ = cache.prepare_bfp(w, man_bits=8)
        b, hit = cache.prepare_bfp(w, man_bits=4)
        assert not hit and b is not a
        assert len(cache) == 2

    def test_formats_split_entries(self, cache, rng):
        w = rng.normal(size=(16, 16))
        cache.prepare_bfp(w)
        _, hit = cache.prepare_int(w)
        assert not hit
        assert len(cache) == 2

    def test_mutation_invalidates(self, cache, rng):
        """In-place edit after prepare must not serve the stale payload."""
        w = rng.normal(size=(16, 16))
        old, _ = cache.prepare_bfp(w)
        stale = old.payload.to_dense().copy()
        w[0, 0] += 10.0
        new, hit = cache.prepare_bfp(w)
        assert not hit
        assert new.fingerprint != old.fingerprint
        assert not np.array_equal(new.payload.to_dense(), stale)

    def test_mutation_invalidates_int(self, cache, rng):
        w = rng.normal(size=(8, 8))
        old, _ = cache.prepare_int(w)
        w *= 3.0
        new, hit = cache.prepare_int(w)
        assert not hit
        assert new.fingerprint != old.fingerprint

    def test_payload_arrays_are_read_only(self, cache, rng):
        bfp, _ = cache.prepare_bfp(rng.normal(size=(16, 16)))
        with pytest.raises(ValueError):
            bfp.payload.man[0, 0, 0] = 1
        # The block grid a payload hands out is a copy of its codes.
        codes = bfp.payload.man.copy()
        bfp.payload.matrix.mantissas[...] += 1
        assert np.array_equal(bfp.payload.man, codes)
        intq, _ = cache.prepare_int(rng.normal(size=(8, 8)))
        with pytest.raises(ValueError):
            intq.payload.values[0] = 1

    def test_source_array_stays_writable(self, cache, rng):
        """Freezing the payload must not freeze the model's weight."""
        w = rng.normal(size=(16, 16))
        cache.prepare_bfp(w)
        w -= 0.1  # the optimizer's in-place update must keep working

    def test_lru_eviction(self, registry, rng):
        cache = PreparedOperandCache(capacity=2)
        ws = [rng.normal(size=(8, 8)) for _ in range(3)]
        for w in ws:
            cache.prepare_bfp(w)
        assert len(cache) == 2
        counters = registry.as_dict()["counters"]
        assert counters["prepared.cache.evictions"] == 1
        # The oldest entry is the one gone.
        _, hit = cache.prepare_bfp(ws[0])
        assert not hit

    def test_capacity_zero_never_stores(self, registry, rng):
        cache = PreparedOperandCache(capacity=0)
        w = rng.normal(size=(8, 8))
        a, hit_a = cache.prepare_bfp(w)
        b, hit_b = cache.prepare_bfp(w)
        assert not hit_a and not hit_b
        assert len(cache) == 0 and cache.nbytes == 0
        # Both builds still produce usable, equal payloads.
        assert np.array_equal(a.payload.to_dense(), b.payload.to_dense())

    def test_bytes_gauge_published(self, cache, registry, rng):
        prepared, _ = cache.prepare_bfp(rng.normal(size=(16, 16)))
        assert cache.nbytes == prepared.nbytes > 0
        gauges = registry.as_dict()["gauges"]
        assert gauges["prepared.cache.bytes"]["value"] == float(cache.nbytes)
        assert gauges["prepared.cache.entries"]["value"] == 1.0

    def test_bfp_bytes_count_float32_kernel_codes(self, cache, rng):
        """A prepared bfp weight's bytes are its codes, held once in the
        kernel layout at four bytes per code, and its int64 exponents:
        6,336 bytes for a 32x48 weight (float64 codes would make it
        12,480)."""
        prepared, _ = cache.prepare_bfp(rng.normal(size=(32, 48)))
        bw = prepared.payload
        assert bw.man.dtype == np.float32 and bw.man.size == 32 * 48
        assert prepared.nbytes == 4 * bw.man.size + bw.exp.nbytes == 6_144 + 192

    def test_clear(self, cache, rng):
        cache.prepare_bfp(rng.normal(size=(8, 8)))
        cache.clear()
        assert len(cache) == 0 and cache.nbytes == 0

    def test_prepared_tensor_shape_matches_source(self, cache, rng):
        w = rng.normal(size=(9, 21))
        prepared, _ = cache.prepare_bfp(w)
        assert isinstance(prepared, PreparedTensor)
        assert prepared.shape == (9, 21)
        assert np.allclose(
            prepared.payload.to_dense(), w, atol=np.abs(w).max() / 64
        )


class TestProcessWideCache:
    def test_set_cache_swaps_and_restores(self):
        replacement = PreparedOperandCache(capacity=1)
        prev = set_cache(replacement)
        try:
            assert get_cache() is replacement
        finally:
            set_cache(prev)
        assert get_cache() is prev
