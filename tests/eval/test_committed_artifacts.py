"""The committed report artifacts equal a fresh render, byte for byte.

``python -m repro --out DIR`` renders the fast tables and figures
(Tables I-IV, Figs. 6-7, the bitwidth and half-precision studies) as one
text file each.  ``results/`` keeps a copy of every one; this test renders
them in a fresh process and requires each to equal its committed file, so
a change that moves a reproduced number (Fig. 7's throughput, Table IV's
latency split, ...) must also update the artifact that shows it.
Regenerate with ``PYTHONPATH=src python -m repro --out results``.
"""

import subprocess
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parents[2] / "results"


def test_rendered_report_equals_committed_artifacts(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    rendered = sorted(tmp_path.glob("*.txt"))
    assert len(rendered) == 8
    drifted = [
        path.name for path in rendered
        if path.read_bytes() != (RESULTS / path.name).read_bytes()
    ]
    assert not drifted, (
        f"{drifted} differ from results/; regenerate with "
        "`PYTHONPATH=src python -m repro --out results`"
    )
