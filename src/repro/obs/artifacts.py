"""Machine-readable benchmark artifacts: ``BENCH_<name>.json``.

Every benchmark writes a JSON artifact next to its text report so the
performance trajectory of the reproduction is scriptable: a summary dict,
the seed that produced it, and the git revision it ran at.  The shape is
intentionally flat and stable — CI uploads these files per run and a
one-liner can diff any metric across commits.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

__all__ = ["ARTIFACT_SCHEMA_VERSION", "git_rev", "jsonable",
           "write_bench_artifact"]

#: Bump when the artifact envelope (not the per-bench summary) changes
#: shape; readers key migrations off this.
ARTIFACT_SCHEMA_VERSION = 1


def git_rev(cwd: str | Path | None = None) -> str:
    """Short git revision of the working tree, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=cwd or Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def jsonable(value):
    """Coerce numpy scalars/arrays and other leaves to JSON-native types."""
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        return value.item()  # numpy scalar
    if hasattr(value, "tolist"):
        return value.tolist()  # numpy array
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def write_bench_artifact(
    results_dir: str | Path,
    name: str,
    summary: dict,
    *,
    seed: int | None = None,
) -> Path:
    """Write ``BENCH_<name>.json`` under ``results_dir``; returns the path."""
    results_dir = Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "bench": name,
        "seed": seed,
        "git_rev": git_rev(results_dir),
        "summary": jsonable(summary),
    }
    path = results_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path
