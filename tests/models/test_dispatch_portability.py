"""Model arithmetic gives the same bytes whichever SIMD loops NumPy picks.

NumPy dispatches many ufuncs to the widest instruction set the CPU has,
and some of those loops round differently from their narrower twins (its
AVX512 float32 ``power``, for one).  Equal seeds must give byte-identical
output on any x86-64 machine, so the model's fp32 non-linear functions
use only operations that every loop rounds the same way.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # NumPy < 2
    from numpy.core import _multiarray_umath as _umath

#: Active dispatch targets above X86_V3 (AVX2 + FMA3): X86_V4 and the
#: AVX512 families.
_WIDE = [
    f for f in _umath.__cpu_dispatch__
    if _umath.__cpu_features__.get(f) and (f == "X86_V4" or f.startswith("AVX512"))
]

_DIGEST = """if True:
    import hashlib
    import numpy as np
    from repro.models.decoder import RMSNorm
    from repro.models.layers import _gelu_grad, gelu

    rng = np.random.default_rng(0)
    x = (rng.normal(size=(64, 768)) * 3).astype(np.float32)
    norm = RMSNorm(768).train()
    norm.params["gamma"] = rng.normal(size=768).astype(np.float32)
    norm.forward(x)
    h = hashlib.sha256()
    for out in (
        gelu(x),
        _gelu_grad(x.astype(np.float64)),
        norm.backward(rng.normal(size=x.shape).astype(np.float32)),
    ):
        h.update(np.ascontiguousarray(out).tobytes())
    digest = h.hexdigest()
"""


@pytest.mark.skipif(not _WIDE, reason="no dispatch target above X86_V3 active")
def test_nonlinear_bytes_do_not_depend_on_avx512_dispatch():
    """``gelu``, its gradient and ``RMSNorm.backward`` hash the same with
    NumPy's AVX512-level loops on (this process) and off (a subprocess
    started with ``NPY_DISABLE_CPU_FEATURES``)."""
    ns: dict = {}
    exec(_DIGEST, ns)
    # The subprocess first checks that the targets really are off.
    check_off = (
        f"from {_umath.__name__} import __cpu_features__ as on\n"
        f"assert not any(on[f] for f in {_WIDE!r})\n"
    )
    src = Path(repro.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", check_off + _DIGEST + "print(digest)"],
        capture_output=True, text=True, timeout=120,
        env={
            **os.environ,
            "PYTHONPATH": str(src),
            "NPY_DISABLE_CPU_FEATURES": " ".join(_WIDE),
        },
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split()[-1] == ns["digest"]
