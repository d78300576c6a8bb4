"""Model weight serialization: save/load parameter trees as ``.npz``.

The deployment story starts from a *pre-trained* model; this gives the
library the corresponding practical surface — train once, save, reload in
a serving process, quantize on the fly.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError
from repro.models.layers import Module
from repro.perf.prepared import get_cache

__all__ = ["save_weights", "load_weights", "state_dict", "load_state_dict"]


def state_dict(model: Module) -> dict[str, np.ndarray]:
    """Flat name -> array mapping of every parameter (copies)."""
    return {k: v.copy() for k, v in model.named_parameters().items()}


def load_state_dict(model: Module, state: dict[str, np.ndarray], *,
                    strict: bool = True) -> None:
    """Copy arrays into the model's parameters, in place.

    ``strict`` requires the key sets and shapes to match exactly.  The
    prepared weights quantized from the old values are dropped
    (:mod:`repro.perf.prepared`), so the next forward, eager or compiled,
    quantizes the loaded ones.
    """
    params = model.named_parameters()
    missing = set(params) - set(state)
    unexpected = set(state) - set(params)
    if strict and (missing or unexpected):
        raise ConfigurationError(
            f"state mismatch: missing={sorted(missing)[:5]} "
            f"unexpected={sorted(unexpected)[:5]}"
        )
    for name, target in params.items():
        if name not in state:
            continue
        src = np.asarray(state[name])
        if src.shape != target.shape:
            raise ConfigurationError(
                f"shape mismatch for {name!r}: {src.shape} vs {target.shape}"
            )
        target[...] = src.astype(target.dtype)
    get_cache().clear()


def save_weights(model: Module, path: str | Path) -> None:
    """Serialize all parameters to a compressed ``.npz`` archive."""
    np.savez_compressed(Path(path), **state_dict(model))


def load_weights(model: Module, path: str | Path, *, strict: bool = True) -> None:
    """Load parameters saved by :func:`save_weights` into ``model``."""
    with np.load(Path(path)) as archive:
        load_state_dict(model, dict(archive.items()), strict=strict)
