"""The experiment-driver package runs its drivers as scripts cleanly."""

import os
import subprocess
import sys
from pathlib import Path

import repro


def test_driver_runs_as_a_module_without_warnings():
    """``python -m repro.eval.table1`` must not find its module imported
    by the package first, which makes runpy warn."""
    src = Path(repro.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.eval.table1"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
