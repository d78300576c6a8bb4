"""Experiment drivers: one module per paper table/figure.

Run any of them directly, e.g. ``python -m repro.eval.fig7``, or call
:func:`run_all` for the complete reproduction report.  The package
imports no driver itself: ``python -m repro.eval.<name>`` would otherwise
find its own module already imported and warn.
"""

from __future__ import annotations

__all__ = ["run_all"]


def run_all(*, include_accuracy: bool = False) -> str:
    """Generate every table/figure report (accuracy training is opt-in)."""
    from repro.eval import (
        accuracy,
        bitwidth,
        decoder,
        fig6,
        fig7,
        halfprec,
        sensitivity,
        table1,
        table2,
        table3,
        table4,
    )

    parts = [
        table1.run(),
        table2.run(),
        fig6.run(),
        fig7.run(),
        table3.run(),
        table4.run(),
        bitwidth.run(include_model_sweep=include_accuracy),
        halfprec.run(),
    ]
    if include_accuracy:
        parts.append(accuracy.run())
        parts.append(sensitivity.run())
        parts.append(decoder.run())
    return "\n\n".join(parts)
