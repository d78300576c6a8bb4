"""The unit-mode registry refactor must be cycle-exact for legacy paths.

``tests/cost/data/golden_cycles.json`` pins stream latencies, compiled
schedules, serve batch costs, and sharded cluster splits for every legacy
policy (fp32 / bfp8 / int8 / mixed-fp8 paths), captured at the commit
*before* the cost-model stack was rebuilt on :mod:`repro.cost`.  Every
value recomputed here must match bit for bit: the registry is a
refactoring of where cycle truth lives, not a change to what it says.
New design points (``fp16_dot``, ``align_narrow_frac``) are deliberately
absent — they did not exist pre-refactor and are covered by
``tests/cost/test_unit_modes.py``.
"""

import json
from pathlib import Path

from repro.cluster.sharding import ShardedCostModel, ShardPlan
from repro.cluster.topology import ClusterSpec
from repro.models.configs import DEIT_TINY
from repro.models.policy import get_policy
from repro.perf.latency import (
    measured_bfp_stream_cycles,
    measured_fp32_stream_cycles,
)
from repro.runtime.scheduler import compile_decoder, compile_vit
from repro.serve.batcher import Batch
from repro.serve.dispatcher import ServeConfig
from repro.serve.request import PhaseItem, Request

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_cycles.json").read_text()
)
POLICIES = ["none", "fp32", "bfp8-mixed", "bfp8-all", "int8-all", "mixed-fp8"]
BATCHES = [
    ("vit", 1, 0), ("prefill", 1, 64), ("prefill", 4, 100),
    ("decode", 1, 16), ("decode", 8, 128),
]


def _policy(name):
    return None if name == "none" else get_policy(name)


def make_batch(phase, size, context):
    items = []
    for i in range(size):
        kind = "vit" if phase == "vit" else "llm"
        req = Request(
            rid=i, kind=kind, arrival=0, prompt_tokens=8, gen_tokens=4
        )
        items.append(PhaseItem(req, phase, ready=0, context=context))
    return Batch(phase=phase, items=items, formed_at=0)


def test_stream_cycles_bit_identical():
    for n_x in (1, 2, 8, 25, 64):
        assert (
            measured_bfp_stream_cycles(n_x)
            == GOLDEN["streams"][f"bfp8_nx{n_x}"]
        )
    assert measured_fp32_stream_cycles(128) == GOLDEN["streams"]["fp32_l128"]


def test_compiled_schedules_bit_identical():
    for pname in POLICIES:
        pol = _policy(pname)
        want = GOLDEN["scheduler"][pname]
        vit = compile_vit(DEIT_TINY, batch=1, policy=pol)
        assert vit.latency_by_mode(15) == want["vit_b1"]["latency_by_mode"]
        assert vit.unit_cycles_per_item() == want["vit_b1"]["unit_cycles"]
        for phase in ("prefill", "decode"):
            for batch in (1, 8):
                dec = compile_decoder(
                    vocab=1000, dim=128, depth=4, n_heads=4, context=128,
                    phase=phase, batch=batch, policy=pol,
                )
                ref = want[f"{phase}_b{batch}_ctx128"]
                assert dec.latency_by_mode(15) == ref["latency_by_mode"]
                assert dec.unit_cycles_per_item() == ref["unit_cycles"]


def test_serve_batch_cycles_bit_identical():
    for pname in POLICIES:
        cm = ShardedCostModel(ServeConfig(precision=_policy(pname)),
                              ClusterSpec())
        for ph, sz, ctx in BATCHES:
            assert (
                cm.batch_cycles(make_batch(ph, sz, ctx))
                == GOLDEN["serve"][pname][f"{ph}_b{sz}_ctx{ctx}"]
            )


def test_cluster_shard_splits_bit_identical():
    # Placements whose (tp_cross_board, pp_cross_boundaries) are the
    # pinned cases' (False, 0), (False, 1) and (True, 1).
    for spec, cross, ppx in (
        (ClusterSpec(plan=ShardPlan(2, 1)), False, 0),
        (ClusterSpec(boards=2, boards_per_replica=2, plan=ShardPlan(1, 2)),
         False, 1),
        (ClusterSpec(boards=4, units_per_board=1, boards_per_replica=4,
                     plan=ShardPlan(2, 2)), True, 1),
    ):
        assert (spec.tp_cross_board, spec.pp_cross_boundaries) == (cross, ppx)
        cfg = ServeConfig(precision=_policy("bfp8-mixed"))
        sm = ShardedCostModel(cfg, spec)
        want = GOLDEN["cluster"][f"tp{spec.plan.tp}pp{spec.plan.pp}"]
        for ph, sz, ctx in (
            ("prefill", 4, 100), ("decode", 8, 128), ("vit", 1, 0)
        ):
            stages = sm.batch_breakdown(make_batch(ph, sz, ctx))
            c = stages["shard_compute"]
            i = stages.get("allreduce", 0) + stages.get("pp_transfer", 0)
            assert [c, i] == want[f"{ph}_b{sz}_ctx{ctx}"]
