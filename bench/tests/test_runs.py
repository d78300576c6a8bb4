"""Tiny end-to-end runs of every workload through the worker process."""

import json
import re

import pytest

from bench import cli

SPEC = cli.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SMOKE = dict(seed=0, seconds=0, scale=0.05)


def _units(group: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[group]}


def test_spec_meets_the_benchmark_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [x["name"] for g in ("workloads", "end_to_end", "per_layer")
             for x in SPEC[g]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
        assert m["better"] in ("higher", "lower")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_end_to_end_metric(workload):
    record, rc = cli.run_workload(workload, **SMOKE)
    assert rc == 0 and record["correct"] and record["failed"] == 0
    metrics = {k: m["unit"] for k, m in record["metrics"].items()}
    assert metrics == _units("end_to_end")
    assert all(m["value"] > 0 for m in record["metrics"].values())
    assert re.fullmatch(r"[0-9a-f]{64}", record["digest"])
    prov = record["provenance"]
    assert prov["seed"] == 0 and prov["scale"] == 0.05 and prov["nproc"]
    assert prov["blas_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert {"git_rev", "git_dirty", "python", "numpy"} <= set(prov)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    record, rc = cli.run_workload(workload, trace=1, **SMOKE)
    assert rc == 0 and record["correct"], record["checks"]
    metrics = {k: m["unit"] for k, m in record["metrics"].items()}
    assert metrics == _units("per_layer")
    assert any(c["name"] == "self_time_identity" and c["ok"]
               for c in record["checks"])
    assert len(record["top_self"]) == 5


def test_forced_check_failure_exits_nonzero(capsys):
    rc = cli.main(["run", "--workload", "serve", "--seconds", "0",
                   "--scale", "0.05", "--fail-check"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc != 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert not result["correct"] and result["failed"] / result["attempted"] > 0
