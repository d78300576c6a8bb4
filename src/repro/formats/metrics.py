"""Quantization-quality metrics: SQNR of block-fp vs per-tensor integer.

The structural reason the paper's block floating point preserves Transformer
accuracy where per-tensor integer quantization does not is *outlier
containment*: one large activation only coarsens the shared exponent of its
own 8x8 block, while a per-tensor integer scale is poisoned globally.
These helpers quantify that with signal-to-quantization-noise ratios over
controlled distributions.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.formats.blocking import BfpMatrix
from repro.formats.int8q import quantize_intn

__all__ = [
    "sqnr_db",
    "bfp_sqnr_db",
    "intn_sqnr_db",
    "DISTRIBUTIONS",
    "sample_distribution",
]


def sqnr_db(reference: np.ndarray, quantized: np.ndarray) -> float:
    """Signal-to-quantization-noise ratio in dB."""
    ref = np.asarray(reference, dtype=np.float64)
    err = ref - np.asarray(quantized, dtype=np.float64)
    signal = float((ref**2).mean())
    noise = float((err**2).mean())
    if noise == 0.0:
        return float("inf")
    if signal == 0.0:
        return float("-inf")
    return 10.0 * np.log10(signal / noise)


def bfp_sqnr_db(x: np.ndarray, man_bits: int = 8) -> float:
    """SQNR of block-fp quantization (8x8 blocks, shared exponent)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ConfigurationError("expected a 2-D tensor")
    return sqnr_db(x, BfpMatrix.from_dense(x, man_bits=man_bits).to_dense())


def intn_sqnr_db(x: np.ndarray, bits: int = 8) -> float:
    """SQNR of per-tensor symmetric integer quantization."""
    x = np.asarray(x, dtype=np.float64)
    return sqnr_db(x, quantize_intn(x, bits).decode().reshape(x.shape))


def sample_distribution(
    name: str, shape: tuple[int, int], rng: np.random.Generator
) -> np.ndarray:
    """Test distributions for the format comparison.

    * ``gaussian``: benign, uniform-scale activations;
    * ``heavy-tailed``: Student-t(3) — moderate natural outliers;
    * ``outlier``: Gaussian bulk with ~0.1% of entries scaled 100x, the
      activation-outlier pattern documented for trained Transformers
      (Bondarenko et al., paper reference [6]).
    """
    if name == "gaussian":
        return rng.normal(size=shape)
    if name == "heavy-tailed":
        return rng.standard_t(3, size=shape)
    if name == "outlier":
        x = rng.normal(size=shape)
        mask = rng.random(size=shape) < 1e-3
        x[mask] *= 100.0
        return x
    raise ConfigurationError(f"unknown distribution {name!r}")


DISTRIBUTIONS = ("gaussian", "heavy-tailed", "outlier")
