"""Backend numerics hooks: role attribution and result invariance.

The monitor must be a pure observer — enabling it may never change a
single bit of model output — and every quantization event in a TinyLM
run must land under the (layer, precision, role) key its tensor belongs
to.
"""

import numpy as np
import pytest

from repro.models.backend import get_backend
from repro.models.decoder import TinyLM
from repro.obs.numerics import NumericsMonitor, set_monitor
from repro.perf.prepared import get_cache


def _run(backend_name: str, *, monitored: bool):
    model = TinyLM(seed=0)
    backend = get_backend(backend_name)
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, model.vocab, size=(2, model.seq_len))
    monitor = NumericsMonitor(enabled=monitored)
    prev_monitor = set_monitor(monitor)
    get_cache().clear()
    try:
        logits = model.forward(tokens, backend)
        seq = model.generate_cached(tokens[0, :4], 4, backend)
    finally:
        set_monitor(prev_monitor)
    return logits, seq, monitor


@pytest.mark.parametrize(
    "backend_name", ["bfp8-mixed", "int8-linear", "mixed-fp8"]
)
def test_monitor_is_bit_invisible(backend_name):
    ref_logits, ref_seq, _ = _run(backend_name, monitored=False)
    logits, seq, monitor = _run(backend_name, monitored=True)
    assert np.array_equal(logits, ref_logits)
    assert np.array_equal(seq, ref_seq)
    assert monitor.stats  # and it actually observed something


def test_bfp8_run_covers_all_roles_per_layer():
    _, _, monitor = _run("bfp8-mixed", monitored=True)
    keys = set(monitor.stats)
    # Every decoder block attributes all three roles; kv only where
    # attention runs batched KV matmuls.
    for blk in ("block0", "block1"):
        assert (f"{blk}.attn", "bfp8", "activation") in keys
        assert (f"{blk}.attn", "bfp8", "kv") in keys
        assert (f"{blk}.attn", "bfp8", "weight") in keys
        assert (f"{blk}.mlp", "bfp8", "weight") in keys
    assert ("head", "bfp8", "weight") in keys
    assert all(k[1] == "bfp8" for k in keys)


def test_int8_run_covers_all_roles():
    _, _, monitor = _run("int8-linear", monitored=True)
    roles = {(k[1], k[2]) for k in monitor.stats}
    assert ("int8", "weight") in roles
    assert ("int8", "activation") in roles
    assert ("int8", "kv") in roles


def test_weights_observed_once_per_residency():
    # Each block carries 5 linear weights (fused qkv + proj in attention,
    # gate/up/down in the MLP) plus the shared head — each prepared (and
    # therefore observed) exactly once despite prefill + decode reusing it,
    # under every weight-quantizing format (bfp, int, minifloat).
    for backend_name in (
        "bfp8-mixed", "int8-linear", "mixed-fp8", "fp16-linear", "ibert",
    ):
        _, _, monitor = _run(backend_name, monitored=True)
        weight_tensors = sum(
            st.tensors for (_, _, role), st in monitor.stats.items()
            if role == "weight"
        )
        assert weight_tensors == 11, backend_name  # 2 blocks * 5 + head


def test_man_bits_injection_changes_precision_label_and_sqnr():
    from repro.models.backend import get_backend

    model = TinyLM(seed=0)
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, model.vocab, size=(1, model.seq_len))

    def run(man_bits):
        monitor = NumericsMonitor()
        prev_m = set_monitor(monitor)
        get_cache().clear()
        try:
            model.forward(tokens, get_backend(f"bfp{man_bits}-mixed"))
        finally:
            set_monitor(prev_m)
        return monitor

    m8, m7 = run(8), run(7)
    assert all(k[1] == "bfp8" for k in m8.stats)
    assert all(k[1] == "bfp7" for k in m7.stats)
    # Dropping one mantissa bit costs ~6 dB on every layer.
    for (layer, _, role), st in m8.stats.items():
        drop = st.sqnr_db() - m7.stats[(layer, "bfp7", role)].sqnr_db()
        assert 3.0 < drop < 9.0, (layer, role, drop)
