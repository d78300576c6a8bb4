"""Tests for the prepared-operand cache (quantize-once weight residency)."""

import gc

import numpy as np
import pytest

from repro.formats.registry import get_format
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.perf.prepared import PreparedOperandCache, PreparedTensor, get_cache


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
    return PreparedOperandCache()


def _prep(cache, w, name="bfp8"):
    fmt = get_format(name)
    return cache.prepare(w, fmt.weight_key, fmt.weight_payload)


class TestCacheMechanics:
    def test_hit_on_second_lookup(self, cache, registry, rng):
        w = rng.normal(size=(16, 16))
        first, hit1 = _prep(cache, w)
        second, hit2 = _prep(cache, w)
        assert (hit1, hit2) == (False, True)
        assert second is first
        counters = registry.as_dict()["counters"]
        assert counters["prepared.cache.hits"] == 1
        assert counters["prepared.cache.misses"] == 1

    def test_equal_content_copy_misses(self, cache, rng):
        """Entries are keyed by array identity, not content."""
        w = rng.normal(size=(16, 16))
        a, _ = _prep(cache, w)
        b, hit = _prep(cache, w.copy())
        assert not hit and b is not a
        assert np.array_equal(b.payload.man, a.payload.man)

    def test_entry_dropped_when_array_collected(self, registry, rng):
        """``len(get_cache())`` falls by an array's entries once it is
        collected; entries of live arrays stay."""
        cache = get_cache()
        keep = rng.normal(size=(8, 8))
        _prep(cache, keep)
        w = rng.normal(size=(16, 16))
        _prep(cache, w)
        _prep(cache, w, "int8")
        gc.collect()  # settle entries of arrays other tests left in cycles
        before = len(cache)
        del w
        assert len(cache) == before - 2
        _, hit = _prep(cache, keep)
        assert hit

    def test_params_split_entries(self, cache, rng):
        w = rng.normal(size=(16, 16))
        a, _ = _prep(cache, w)
        b, hit = _prep(cache, w, "bfp4")
        assert not hit and b is not a
        assert len(cache) == 2

    def test_formats_split_entries(self, cache, rng):
        w = rng.normal(size=(16, 16))
        _prep(cache, w)
        _, hit = _prep(cache, w, "int8")
        assert not hit
        assert len(cache) == 2

    def test_ibert_shares_int8_entries(self, cache, rng):
        """I-BERT's linear algebra is int8's: one payload serves both."""
        w = rng.normal(size=(8, 8))
        a, _ = _prep(cache, w, "int8")
        b, hit = _prep(cache, w, "ibert")
        assert hit and b is a

    def test_mutation_invalidates(self, cache, rng):
        """Edit in place, then clear(): the next lookup re-quantizes."""
        w = rng.normal(size=(16, 16))
        old, _ = _prep(cache, w)
        stale = old.payload.to_dense().copy()
        w[0, 0] += 10.0
        cache.clear()
        new, hit = _prep(cache, w)
        assert not hit
        assert not np.array_equal(new.payload.to_dense(), stale)

    def test_mutation_invalidates_int(self, cache, rng):
        w = rng.normal(size=(8, 8))
        old, _ = _prep(cache, w, "int8")
        w *= 3.0
        cache.clear()
        new, hit = _prep(cache, w, "int8")
        assert not hit
        assert new.payload.scale != old.payload.scale

    def test_payload_arrays_are_read_only(self, cache, rng):
        bfp, _ = _prep(cache, rng.normal(size=(16, 16)))
        with pytest.raises(ValueError):
            bfp.payload.man[0, 0, 0] = 1
        # The block grid a payload hands out is a copy of its codes.
        codes = bfp.payload.man.copy()
        bfp.payload.matrix.mantissas[...] += 1
        assert np.array_equal(bfp.payload.man, codes)
        intq, _ = _prep(cache, rng.normal(size=(8, 8)), "int8")
        with pytest.raises(ValueError):
            intq.payload.values[0] = 1
        half, _ = _prep(cache, rng.normal(size=(8, 8)), "fp16")
        with pytest.raises(ValueError):
            half.payload[0, 0] = 1

    def test_source_array_stays_writable(self, cache, rng):
        """Freezing the payload must not freeze the model's weight."""
        w = rng.normal(size=(16, 16))
        _prep(cache, w)
        w -= 0.1  # the optimizer's in-place update must keep working

    def test_bfp_bytes_count_float32_kernel_codes(self, cache, rng):
        """A prepared bfp weight's bytes are its codes, held once in the
        kernel layout at four bytes per code, and its int64 exponents:
        6,336 bytes for a 32x48 weight (float64 codes would make it
        12,480)."""
        prepared, _ = _prep(cache, rng.normal(size=(32, 48)))
        bw = prepared.payload
        assert bw.man.dtype == np.float32 and bw.man.size == 32 * 48
        assert bw.man.nbytes + bw.exp.nbytes == 6_144 + 192

    def test_clear(self, cache, rng):
        w = rng.normal(size=(8, 8))
        _prep(cache, w)
        generation = cache.generation
        cache.clear()
        assert len(cache) == 0 and cache.generation == generation + 1
        _, hit = _prep(cache, w)
        assert not hit

    def test_prepared_tensor_shape_matches_source(self, cache, rng):
        w = rng.normal(size=(9, 21))
        prepared, _ = _prep(cache, w)
        assert isinstance(prepared, PreparedTensor)
        assert prepared.shape == (9, 21)
        assert np.allclose(
            prepared.payload.to_dense(), w, atol=np.abs(w).max() / 64
        )

