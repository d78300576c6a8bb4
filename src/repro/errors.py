"""Exception hierarchy for the repro package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SpecialValueError(ReproError):
    """An fp32 NaN or Inf reached a datapath that has no special-value logic.

    The modeled hardware (paper Section II) has no NaN/Inf handling; by
    default the emulation refuses to silently produce garbage.  Pass
    ``special_values="propagate"`` to the relevant API to opt out.
    """


class HardwareContractError(ReproError):
    """A modeled hardware invariant was violated (port width, overflow, ...).

    These indicate a workload outside the modeled design's contract, e.g.
    accumulating more partial products than the 48-bit PSU can hold, or
    driving a DSP48E2 port with an out-of-range operand.
    """


class ProgramError(ReproError):
    """An invalid vector program or instruction stream was submitted."""


class ConfigurationError(ReproError):
    """An object was constructed with inconsistent or unsupported parameters."""


class InvariantError(ReproError):
    """A simulation broke a conservation invariant (a simulator bug)."""


class RegistryError(ReproError):
    """A name-keyed registry was misused.

    Raised when registering a quantization format, unit mode or policy
    preset under a name that is already taken (silent overwrite would make
    ``get_format``/``get_policy`` resolution depend on import order), and
    when looking up a name that is neither registered nor a parametric
    width (``bfpN``, ``bfpN-mixed``, ...).
    """
