"""Shared test configuration: hypothesis profiles and common fixtures."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "thorough",
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def finite_f32(rng: np.random.Generator, shape, scale_range=(-20, 20)):
    """Random float32 values with a wide but safe exponent spread."""
    mant = rng.normal(size=shape)
    exps = rng.integers(scale_range[0], scale_range[1], size=shape)
    return (mant * np.exp2(exps)).astype(np.float32)


#: (exponent spread, all-zero share, equal-magnitude share) of the 8x8
#: blocks :func:`block_scaled` draws: the fast-kernel test's regimes.
BLOCK_REGIMES = st.tuples(st.integers(0, 70), st.sampled_from([0.0, 0.3, 1.0]),
                          st.sampled_from([0.0, 0.3, 1.0]))


def block_scaled(rng: np.random.Generator, shape, regime) -> np.ndarray:
    """Gaussian values whose 8x8 blocks are each scaled by ``2**e``, ``e``
    drawn over ``spread + 1`` exponents; a share of the blocks is all
    zero and a share holds one magnitude, which quantizes to +/-127
    mantissas."""
    spread, zero_frac, equal_frac = regime
    grid = (-(-shape[0] // 8), -(-shape[1] // 8))
    lo = -(spread // 2)
    scale = np.exp2(rng.integers(lo, lo + spread + 1, grid).astype(float))
    kind = rng.random(grid)
    scale[kind < zero_frac] = 0.0
    tile = np.ones((8, 8))
    x = rng.normal(size=shape)
    equal = np.kron(kind >= 1.0 - equal_frac, tile)[:shape[0], :shape[1]] > 0
    x[equal] = np.sign(x[equal]) * 127 / 128
    return x * np.kron(scale, tile)[:shape[0], :shape[1]]
