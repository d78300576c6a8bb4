"""Numerics reports, and the claims-ledger entries that gate the
bfp8-mixed TinyLM run: every drift they must catch, and what they pass."""

import copy
import json

import numpy as np
import pytest

from repro.eval import claims
from repro.formats.int8q import quantize_intn
from repro.obs import baseline as bl
from repro.obs.numerics import NumericsMonitor


@pytest.fixture
def report(rng):
    mon = NumericsMonitor()
    for layer in ("block0", "head"):
        with mon.scope(layer):
            x = rng.normal(size=(16, 16))
            mon.observe_int("activation", x, quantize_intn(x, 8))
    return bl.build_report(
        mon, model="tinylm", backend="int8-linear", seed=0, gen_tokens=4,
        logits_sqnr_db=30.0,
    )


@pytest.fixture
def run():
    """A private copy of the gated run's report."""
    return copy.deepcopy(bl.monitored_run("bfp8-mixed").report)


def _misses(monkeypatch, report) -> list[str]:
    """Names of the ledger's numerics entries that ``report`` misses."""
    monkeypatch.setattr(claims, "_numerics_report", lambda: report)
    missed = []
    for c in claims.LEDGER:
        if c.table == "numerics":
            lo, hi = c.bounds()
            try:
                ok = lo <= c.model() <= hi
            except KeyError:
                ok = False
            if not ok:
                missed.append(c.name)
    return missed


def _name(entry: dict, what: str) -> str:
    return f"{entry['layer']} {entry['role']} {what}"


def test_build_report_validates(report):
    assert report["schema"] == "repro.numerics-report"
    assert report["version"] == bl.REPORT_SCHEMA_VERSION
    assert report["config"] == {"model": "tinylm", "backend": "int8-linear",
                                "seed": 0, "gen_tokens": 4}
    assert [(e["layer"], e["role"], e["precision"]) for e in report["entries"]] == [
        ("block0", "activation", "int8"), ("head", "activation", "int8")]
    assert set(report["totals"]) == {"int8"}


def test_report_json_roundtrip(report, tmp_path):
    p = tmp_path / "r.json"
    p.write_text(json.dumps(report))
    loaded = json.loads(p.read_text())
    assert loaded["entries"] == report["entries"]


# -- the ledger's numerics entries ------------------------------------------
def test_identical_reports_have_no_drift(monkeypatch, run):
    assert _misses(monkeypatch, run) == []


def test_config_mismatch_is_drift(monkeypatch):
    """The entries gate the bfp8-mixed run; another backend's run misses."""
    gated = claims._numerics_report()["config"]
    assert gated == {"model": "tinylm", "backend": "bfp8-mixed", "seed": 0,
                     "gen_tokens": 4}
    other = bl.monitored_run("int8-linear").report
    assert "(layer, role, precision) set equals the golden's" in _misses(
        monkeypatch, other)


def test_precision_change_is_drift(monkeypatch, run):
    run["entries"][0]["precision"] = "bfp7"
    assert _misses(monkeypatch, run) == [
        "(layer, role, precision) set equals the golden's"]


def test_sqnr_degradation_beyond_tolerance_is_drift(monkeypatch, run):
    entry = run["entries"][0]
    entry["sqnr_db"] -= 0.9  # within the 1 dB slack
    assert _misses(monkeypatch, run) == []
    entry["sqnr_db"] -= 5.1  # one mantissa bit
    assert _misses(monkeypatch, run) == [_name(entry, "SQNR (dB)")]


def test_sqnr_improvement_is_not_drift(monkeypatch, run):
    for e in run["entries"]:
        e["sqnr_db"] += 20.0
    run["logits_sqnr_db"] += 20.0
    assert _misses(monkeypatch, run) == []


def test_saturation_ceiling_is_drift(monkeypatch, run):
    entry = run["entries"][0]
    entry["saturation_rate"] += 0.004
    assert _misses(monkeypatch, run) == []
    entry["saturation_rate"] += 0.05
    entry["underflow_rate"] += 0.05
    assert _misses(monkeypatch, run) == [_name(entry, "saturation rate"),
                                         _name(entry, "underflow rate")]


def test_missing_and_new_entries_are_drift(monkeypatch, run):
    gone = copy.deepcopy(run)
    entry = gone["entries"].pop(0)
    assert _misses(monkeypatch, gone) == [
        _name(entry, "SQNR (dB)"), _name(entry, "saturation rate"),
        _name(entry, "underflow rate"),
        "(layer, role, precision) set equals the golden's"]
    run["entries"].append({**entry, "layer": "block9"})
    assert _misses(monkeypatch, run) == [
        "(layer, role, precision) set equals the golden's"]


def test_logits_sqnr_degradation_is_drift(monkeypatch, run):
    run["logits_sqnr_db"] -= 5.0
    assert _misses(monkeypatch, run) == ["logits SQNR vs fp32 (dB)"]


def test_unmeasurable_sqnr_is_drift(monkeypatch, run):
    run["entries"][0]["sqnr_db"] = None
    run["logits_sqnr_db"] = None
    assert _misses(monkeypatch, run) == [
        _name(run["entries"][0], "SQNR (dB)"), "logits SQNR vs fp32 (dB)"]


# -- rendering -----------------------------------------------------------
def test_render_markdown_table_and_drift(report):
    md = bl.render_markdown(report)
    assert "| block0 | activation | int8 |" in md
    assert "**int8 totals**" in md
    assert "DRIFT" not in md and "No drift" not in md


def test_np_floats_serialize(rng):
    # build_report carries numpy floats through json.dumps via float().
    mon = NumericsMonitor()
    x = rng.normal(size=(8, 8))
    mon.observe_int("activation", x, quantize_intn(x, 8))
    rep = bl.build_report(
        mon, model="m", backend="b", seed=0, gen_tokens=1,
        logits_sqnr_db=float(np.float64(12.5)),
    )
    json.dumps(rep)  # must not raise
