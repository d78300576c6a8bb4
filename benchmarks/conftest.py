"""Benchmark-suite helpers: every host-time bench writes its text report
and ``BENCH_<name>.json`` to ``results/`` so its measurements are
inspectable.  Deterministic numbers are claims-ledger entries instead
(``python -m repro claims``)."""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def save_report(results_dir):
    def _save(name: str, content: str) -> None:
        (results_dir / f"{name}.txt").write_text(content + "\n")

    return _save


@pytest.fixture
def bench_artifact(results_dir):
    """Write ``BENCH_<name>.json``: a machine-readable summary of the bench's
    headline numbers, stamped with the seed and git revision (see
    :func:`repro.obs.artifacts.write_bench_artifact`)."""
    from repro.obs.artifacts import write_bench_artifact

    def _save(name: str, summary: dict, *, seed: int | None = None) -> None:
        write_bench_artifact(results_dir, name, summary, seed=seed)

    return _save
