"""Bitwidth sweep: why block floating point, structurally.

Two experiments supporting the paper's central argument ("block-based
low-bitwidth floating-point operations are adequate to preserve the accuracy
of Transformer models", Section I):

1. **Format-level SQNR** — block-fp vs per-tensor integer quantization at
   4/6/8 bits over benign, heavy-tailed and outlier-laden tensors.  Block
   fp's shared exponent contains outliers to their own 8x8 block; a
   per-tensor integer scale is poisoned globally.
2. **Model-level sweep** — a trained Transformer served with
   ``bfpN-mixed`` vs ``intN-all`` arithmetic as N shrinks: the integer
   pipeline's accuracy collapses earlier.
"""

from __future__ import annotations

import numpy as np

from repro.eval.reporting import header, render_table
from repro.formats.metrics import (
    DISTRIBUTIONS,
    bfp_sqnr_db,
    intn_sqnr_db,
    sample_distribution,
)
from repro.models.data import majority_task
from repro.models.quantized import evaluate_regimes
from repro.models.training import train_classifier
from repro.models.vit import SequenceClassifier

__all__ = ["sqnr_table", "model_sweep", "run"]

SWEEP_BITS = (4, 5, 6, 8)


def sqnr_table(
    shape: tuple[int, int] = (256, 256), seed: int = 0
) -> list[dict]:
    """SQNR (dB) of bfp-N vs int-N across distributions and bitwidths."""
    rng = np.random.default_rng(seed)
    rows = []
    for dist in DISTRIBUTIONS:
        x = sample_distribution(dist, shape, rng)
        for bits in SWEEP_BITS:
            rows.append(
                {
                    "distribution": dist,
                    "bits": bits,
                    "bfp_sqnr_db": bfp_sqnr_db(x, bits),
                    "int_sqnr_db": intn_sqnr_db(x, bits),
                }
            )
    return rows


def model_sweep(
    *,
    n_samples: int = 1200,
    epochs: int = 10,
    dim: int = 32,
    depth: int = 2,
    seed: int = 0,
    bits: tuple[int, ...] = SWEEP_BITS,
) -> tuple[float, list[dict]]:
    """Serve one trained model under bfpN-mixed / intN-all for each N."""
    data = majority_task(n=n_samples, seq_len=12, vocab=8, seed=seed)
    train, test = data.split()
    model = SequenceClassifier(
        vocab=8, seq_len=12, dim=dim, depth=depth, n_heads=4, seed=seed + 1
    )
    result = train_classifier(model, train, test, epochs=epochs, seed=seed + 2)
    names = ["fp32"]
    for b in bits:
        names += [f"bfp{b}-mixed", f"int{b}-all"]
    regimes = {r.backend: r for r in evaluate_regimes(model, test, backends=names)}
    rows = []
    for b in bits:
        bf, it = regimes[f"bfp{b}-mixed"], regimes[f"int{b}-all"]
        rows.append(
            {
                "bits": b,
                "bfp_accuracy": bf.accuracy,
                "bfp_agreement": bf.agreement,
                "bfp_rmse": bf.logit_rmse,
                "int_accuracy": it.accuracy,
                "int_agreement": it.agreement,
                "int_rmse": it.logit_rmse,
            }
        )
    return result.test_accuracy, rows


def run(*, include_model_sweep: bool = True) -> str:
    out = [header("Bitwidth sweep -- block floating point vs per-tensor integer")]
    rows = sqnr_table()
    out.append(render_table(
        ["Distribution", "Bits", "bfp SQNR (dB)", "int SQNR (dB)", "bfp advantage (dB)"],
        [[r["distribution"], r["bits"], round(r["bfp_sqnr_db"], 2),
          round(r["int_sqnr_db"], 2),
          round(r["bfp_sqnr_db"] - r["int_sqnr_db"], 2)] for r in rows],
        title="Format-level SQNR (8x8 block-fp vs per-tensor symmetric int)",
    ))
    if include_model_sweep:
        fp32_acc, mrows = model_sweep()
        out.append("")
        out.append(render_table(
            ["Bits", "bfpN-mixed acc", "agree", "RMSE", "intN-all acc",
             "agree", "RMSE"],
            [[r["bits"], round(r["bfp_accuracy"], 3), round(r["bfp_agreement"], 3),
              round(r["bfp_rmse"], 3), round(r["int_accuracy"], 3),
              round(r["int_agreement"], 3), round(r["int_rmse"], 3)]
             for r in mrows],
            title=f"Model-level sweep (fp32 test accuracy {fp32_acc:.3f})",
        ))
    return "\n".join(out)


if __name__ == "__main__":  # pragma: no cover
    print(run())
