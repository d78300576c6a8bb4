"""Byte pins of the observability artifacts of four recorded serve-sim runs.

Each case runs one ``repro serve-sim`` command in process and compares
SHA-256 digests of every artifact it exports against pinned values: the
Chrome trace, the metrics registry as JSON and as Prometheus text, the
``--json-out`` report, the SLO snapshot and each incident bundle
(canonical JSON).  A refactor of the dispatcher, the driver, the cost
model or the observers must leave all of them byte-identical.

The third case shards a two-board replica ``tp2 x pp2`` and injects a
latency spike, so its trace carries the ``allreduce`` and
``pp_transfer`` stages with the spike folded into ``shard_compute``,
and its report carries the interconnect share.  The fourth case is the
third with a span budget of 8: requests run out of budget mid-path, so
it pins which stage groups the budget grants and which it drops.
"""

import argparse
import hashlib

import pytest

import repro.serve.cli as serve_cli
from repro.obs.recorder import canonical_sha256

SERVE = (
    "serve-sim --requests 400 --seed 5 --rate 100 --slo --record"
    " --incident-dir {d}/inc --inject-spike-at-us 1000000"
    " --inject-spike-duration-us 200000 --inject-spike-extra-us 300000"
    " --trace-out {d}/s.trace.json --metrics-out {d}/s.metrics.json"
    " --slo-out {d}/s.slo.json --json-out {d}/s.summary.json"
)
CLUSTER = (
    "serve-sim --cluster --boards 2 --autoscale --diurnal --requests 600"
    " --rate 1500 --seed 42 --slo --slo-burn-scale-up 2.0 --record"
    " --incident-dir {d}/cinc --slo-out {d}/c.slo.json"
    " --json-out {d}/c.summary.json --trace-out {d}/c.trace.json"
    " --metrics-out {d}/c.metrics.json"
)
SHARDED = (
    "serve-sim --cluster --boards 4 --boards-per-replica 2 --tp 2 --pp 2"
    " --replicas 2 --requests 300 --rate 1200 --seed 9 --slo --record"
    " --incident-dir {d}/sinc --inject-spike-at-us 100000"
    " --inject-spike-duration-us 100000 --inject-spike-extra-us 20000"
    " --trace-out {d}/h.trace.json --json-out {d}/h.summary.json"
    " --metrics-out {d}/h.metrics.json --slo-out {d}/h.slo.json"
)
CAPPED = SHARDED + " --trace-max-spans 8 --trace-detail-every 3"
COMMANDS = {"serve": SERVE, "cluster": CLUSTER, "sharded": SHARDED,
            "capped": CAPPED}

PINS = {
    "serve": {
        "trace": (
            "791734a994df0845a7428411c8c36e8f"
            "97fab53cac51b990bfa3c9edf4bf7144"),
        "metrics_json": (
            "1c7ccb29dcaee046912aee5f0acf11f0"
            "02073624c45bb29a2182b1a947155b97"),
        "metrics_prom": (
            "4eacc77f780a312156354e45fe2d3e6e"
            "e85a602edefc133d2812820bc87633fd"),
        "report": (
            "c861fb71535426781754b1ab5c67a5de"
            "7926ca048494582729001e7f21bcb17b"),
        "slo": (
            "d42473a36ff75c362c4152f70107148d"
            "fddb005a7134eeb301c426b922d90037"),
        "bundles": [
            "666625fc7960c3f72a5b81a2b82d6cbf"
            "bedf60b5832ff418af2e35e187b52ff9"],
    },
    "cluster": {
        "trace": (
            "fe64d1b382c10f854d1e26cf82a12147"
            "64a1184b84561470739f0333d1dabad3"),
        "metrics_json": (
            "5341218ccf223d9b3b82ce9d0c4335b4"
            "3c5650fa36e28db816ef8908bf3ae569"),
        "metrics_prom": (
            "19d677e10987867f1a3be80501fc70be"
            "5f2f1f417087774d97193b3fb44eec3f"),
        "report": (
            "2f91cd88b6f2618ce4899ba150b2255b"
            "7859506d4c293a406b85b4d2845cb188"),
        "slo": (
            "de143b48a0bc841e8680fc3283ae14be"
            "6f7134f9478a89b853f2b751da5f0de2"),
        "bundles": [
            "cdb426858bea7975038932950fb03d19"
            "f1a25717a78cd24034f5160d6c877425"],
    },
    "sharded": {
        "trace": (
            "ae2a3974813433d393c904aefaf37b44"
            "6d904c23b2e8eb4845e1564e2739faeb"),
        "metrics_json": (
            "eca48e2f6fecfc60cdb343a357aece29"
            "58fe9ffbd49cd064eeb8cf42bdd7f609"),
        "metrics_prom": (
            "a66b0eecab16c1d4d737c3c27019e859"
            "4943913bec2ccb854be979d978d2e728"),
        "report": (
            "a06810988cc37db449c45546eb249527"
            "81f23da64f12b488093edb9164440314"),
        "slo": (
            "c407106213e0f725701b80c8b567b082"
            "f3358d9e024f0e91fe6f98f99c863f3c"),
        "bundles": [
            "32b65a38c14e995a657ee8bae241db7e"
            "1472398fc209aedc74d456a17eb22ef2"],
    },
    "capped": {
        "trace": (
            "2e64f48bb63107701cdda13fd858a3cc"
            "975c92fbf96cef9262869e8adad89cb5"),
        "metrics_json": (
            "eca48e2f6fecfc60cdb343a357aece29"
            "58fe9ffbd49cd064eeb8cf42bdd7f609"),
        "metrics_prom": (
            "a66b0eecab16c1d4d737c3c27019e859"
            "4943913bec2ccb854be979d978d2e728"),
        "report": (
            "a06810988cc37db449c45546eb249527"
            "81f23da64f12b488093edb9164440314"),
        "slo": (
            "c407106213e0f725701b80c8b567b082"
            "f3358d9e024f0e91fe6f98f99c863f3c"),
        "bundles": [
            "d075ff6970034392c835dbd026b10cfd"
            "6a222758dd2a7c80a1c81c69d33dcc10"],
    },
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(command: str, monkeypatch) -> dict:
    """Run one serve-sim command line; return the objects it exported."""
    parser = argparse.ArgumentParser()
    serve_cli.add_serve_sim_parser(parser.add_subparsers(dest="command"))
    args = parser.parse_args(command.split())
    seen = {}
    write = serve_cli._write_outputs

    def spy(args, report, tracer, registry, recorder):
        seen.update(report=report, tracer=tracer, registry=registry,
                    recorder=recorder)
        write(args, report, tracer, registry, recorder)

    monkeypatch.setattr(serve_cli, "_write_outputs", spy)
    assert serve_cli.run_serve_sim(args) == 0
    return seen


@pytest.mark.parametrize("case", sorted(COMMANDS))
def test_observability_artifacts_pinned(case, tmp_path, monkeypatch):
    out = _run(COMMANDS[case].format(d=tmp_path), monkeypatch)
    got = {
        "trace": _sha(out["tracer"].to_json()),
        "metrics_json": _sha(out["registry"].to_json()),
        "metrics_prom": _sha(out["registry"].to_prom_text()),
        "report": _sha(out["report"].to_json()),
        "slo": canonical_sha256(out["report"].summary["slo"]),
        "bundles": [canonical_sha256(b) for b in out["recorder"].incidents],
    }
    assert got == PINS[case]
