"""Request-path decomposition: stage spans, sampling, budget, coverage."""

import argparse
import json

import pytest

import repro.serve.cli as serve_cli
from repro.cluster.sharding import ShardedCostModel
from repro.errors import InvariantError
from repro.obs.slo import (
    NULL_SLO,
    SLOConfig,
    SLOTracker,
    requests_from_trace,
)
from repro.obs.tracer import (
    REQUEST_STAGES,
    RequestPathConfig,
    Tracer,
    validate_chrome_trace,
)
from repro.serve.dispatcher import ServeConfig, simulate
from repro.serve.request import TrafficConfig, poisson_trace

TRAFFIC = TrafficConfig(rate_rps=1200.0, vit_fraction=0.25)


def run(n=60, *, detail_every=1, max_spans=512, slo=NULL_SLO, seed=0):
    trace = poisson_trace(n, TRAFFIC, seed=seed)
    tracer = Tracer(meta={"seed": seed})
    report = simulate(
        trace, ServeConfig(), tracer=tracer, slo=slo,
        path=RequestPathConfig(detail_every=detail_every,
                               max_spans_per_request=max_spans),
    )
    return report, tracer


def test_every_sampled_request_tiles_its_latency():
    report, tracer = run()
    doc = tracer.to_chrome_trace()
    validate_chrome_trace(doc)
    recs = requests_from_trace(doc)
    assert len(recs) == report.summary["completed"]
    detailed = [r for r in recs if r["detailed"]]
    assert len(detailed) == len(recs)  # detail_every=1 samples everything
    for r in detailed:
        # The stage chain tiles [arrival, completion] exactly: 100%
        # latency attribution, the tentpole acceptance criterion.
        assert r["coverage"] == pytest.approx(1.0)
        assert set(r["stages"]) <= set(REQUEST_STAGES)
        assert r["stages"].get("shard_compute", 0) > 0


def test_dispatcher_rejects_stages_that_do_not_tile(monkeypatch):
    # A pricer whose stage split under-reports shard_compute by one cycle
    # leaves every sampled request one cycle short of its latency.
    breakdown = ShardedCostModel.batch_breakdown

    def short(self, batch):
        out = breakdown(self, batch)
        out["shard_compute"] -= 1
        return out

    monkeypatch.setattr(ShardedCostModel, "batch_breakdown", short)
    with pytest.raises(InvariantError, match=r"request \d+: stages cover"):
        run(n=20)


def test_miss_rate_reproducible_from_trace_alone():
    slo = SLOTracker(SLOConfig())
    report, tracer = run(n=120, slo=slo, seed=3)
    recs = requests_from_trace(tracer.to_chrome_trace())
    trace_missed = sum(1 for r in recs if r["missed"])
    assert len(recs) == report.summary["completed"]
    assert (trace_missed / len(recs)) == report.summary["deadline_miss_rate"]
    assert "slo" in report.summary


def test_detail_sampling_keeps_parents_for_all():
    report, tracer = run(detail_every=4)
    recs = requests_from_trace(tracer.to_chrome_trace())
    # every completion still gets its parent async span...
    assert len(recs) == report.summary["completed"]
    sampled = [r for r in recs if r["detailed"]]
    unsampled = [r for r in recs if not r["detailed"]]
    assert sampled and unsampled
    # ...but only rid % 4 == 0 carries stage detail
    assert all(r["rid"] % 4 == 0 for r in sampled)
    assert all(r["rid"] % 4 != 0 for r in unsampled)


def test_span_budget_caps_pathological_requests():
    # An absurdly small budget: decomposition stops, the run still
    # completes and the trace still validates (parents always close).
    full_report, full_tracer = run(n=40, seed=1)
    capped_report, capped_tracer = run(n=40, max_spans=8, seed=1)
    assert (capped_report.summary["completed"]
            == full_report.summary["completed"])
    assert (len(capped_tracer.async_spans) + len(capped_tracer.flows)
            < len(full_tracer.async_spans) + len(full_tracer.flows))
    validate_chrome_trace(capped_tracer.to_chrome_trace())


def test_capped_budget_keeps_each_dispatch_group_whole(tmp_path):
    # A budget of 8 runs out inside a sharded replica's dispatches: admit,
    # the flow start and route take three, and each dispatch group is up
    # to five stage children plus the flow step that links the board.  A
    # group that does not fit must be dropped whole, or the trace keeps a
    # board's stages with no flow endpoint on that board.
    parser = argparse.ArgumentParser()
    serve_cli.add_serve_sim_parser(parser.add_subparsers(dest="command"))
    args = parser.parse_args((
        "serve-sim --cluster --boards 4 --boards-per-replica 2 --tp 2"
        " --pp 2 --replicas 2 --requests 40 --rate 1200 --seed 9"
        f" --trace-max-spans 8 --trace-detail-every 3 --trace-out {tmp_path}/t.json"
    ).split())
    assert serve_cli.run_serve_sim(args) == 0
    stats = validate_chrome_trace(json.loads((tmp_path / "t.json").read_text()))
    assert stats["f"] < stats["s"]  # the cap did drop spans


def test_disabled_path_changes_nothing():
    trace = poisson_trace(60, TRAFFIC, seed=0)
    plain = simulate(trace, ServeConfig())
    observed_report, tracer = run(n=60)
    core = {k: v for k, v in observed_report.summary.items() if k != "slo"}
    assert core == plain.summary
    # and with tracing off entirely, no request-path state is kept
    off = simulate(trace, ServeConfig(), path=RequestPathConfig())
    assert off.summary == plain.summary
