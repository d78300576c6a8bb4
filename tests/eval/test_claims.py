"""The claims ledger passes, fails by name on a miss, and renders the
committed EXPERIMENTS.md tables exactly."""

import dataclasses
import re
from argparse import Namespace

import pytest

from repro.eval import claims
from repro.eval.claims import EXPERIMENTS, LEDGER
from repro.obs.baseline import monitored_run


@pytest.fixture(scope="module")
def values():
    return claims.check()


def test_entries_are_well_formed():
    names = [c.name for c in LEDGER]
    assert len(names) == len(set(names))
    for c in LEDGER:
        assert c.source and c.tolerance >= 0, c
        assert c.direction in ("at least", "at most", "within"), c
        assert "inf" not in c.check_text(), c


def test_ledger_passes_and_prints_every_entry(capsys):
    assert claims.run_claims(Namespace(full=False)) == 0
    out = capsys.readouterr().out
    for c in LEDGER:
        assert c.name in out
    assert " 0 missed" in out


def test_perturbed_entry_fails_by_name(monkeypatch, capsys):
    target = next(c for c in LEDGER if c.name == "scaling_1_to_2")
    bad = dataclasses.replace(target, model=lambda: target.reference * 0.8)
    monkeypatch.setattr(claims, "LEDGER", tuple(
        bad if c is target else c for c in LEDGER))
    assert claims.run_claims(Namespace(full=False)) == 1
    out = capsys.readouterr().out
    assert "MISS scaling_1_to_2 (pin)" in out
    assert out.count("MISS") == 2  # the table's status cell and the line


def test_experiments_tables_equal_the_render(values):
    text = EXPERIMENTS.read_text()
    marked = re.findall(r"<!-- claims:(\w+) -->", text)
    assert sorted(marked) == sorted({c.table for c in LEDGER})
    assert claims.render_document(text, values) == text, (
        "EXPERIMENTS.md tables drifted from the ledger; rewrite them with "
        "`PYTHONPATH=src python -m repro.eval.claims`"
    )


def test_hand_edited_digit_is_caught(values):
    text = EXPERIMENTS.read_text()
    edited = text.replace("| 1.201 | 1.201 |", "| 1.201 | 1.202 |", 1)
    assert edited != text
    assert claims.render_document(edited, values) == text


def _numerics_misses(monkeypatch, capsys, report) -> list[str]:
    monkeypatch.setattr(claims, "_numerics_report", lambda: report)
    assert claims.run_claims(Namespace(full=False)) == 1
    return [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("MISS ")]


def test_raising_entry_misses_by_name(monkeypatch, capsys):
    """A (layer, role) that vanishes from the numerics run makes its three
    entries raise; each is a MISS naming the entry, not a traceback."""
    report = monitored_run("bfp8-mixed").report
    gone = {**report, "entries": [e for e in report["entries"]
                                  if (e["layer"], e["role"]) != ("block0.attn", "kv")]}
    misses = _numerics_misses(monkeypatch, capsys, gone)
    assert misses == [
        *(f"MISS block0.attn kv {what} (pin): raised KeyError: "
          f"('block0.attn', 'kv'), needs {check}"
          for what, check in (("SQNR (dB)", ">= 41.49"), ("saturation rate", "<= 0.0052"),
                              ("underflow rate", "<= 0.0174"))),
        "MISS (layer, role, precision) set equals the golden's (pin): model 0, needs exact",
    ]


def test_numerics_entries_catch_one_dropped_mantissa_bit(monkeypatch, capsys):
    """The same TinyLM run at bfp7 (one mantissa bit truncated) misses every
    per-layer SQNR entry, the logits SQNR and the precision set, by name."""
    misses = _numerics_misses(monkeypatch, capsys,
                              monitored_run("bfp7-mixed").report)
    for layer, role, *_ in claims.NUMERICS_REFERENCE:
        assert any(m.startswith(f"MISS {layer} {role} SQNR (dB) (pin): model ")
                   for m in misses), (layer, role, misses)
    assert any(m.startswith("MISS logits SQNR vs fp32 (dB)") for m in misses)
    assert any(m.startswith("MISS (layer, role, precision) set") for m in misses)
