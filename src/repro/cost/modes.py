"""Trans-precision unit-mode registry: the single source of cycle truth.

Every execution personality of a unit is one registry entry, mirroring
the :mod:`repro.formats.registry` template:

* :class:`UnitMode` — one execution personality of a unit: how a stream's
  compute cycles scale (:meth:`UnitMode.compute_cycles`, the only
  implementation of Eqn 9 and Eqn 10), what its operands cost on the
  AXI/HBM path and what a datapath reconfiguration costs.  A mode does
  not list formats: which unit runs a format is the format's
  ``array_mode`` (:class:`~repro.formats.registry.QuantFormat`) unless a
  :class:`ModeOptions` override says otherwise (:func:`resolve_unit_mode`).
* the builtin modes — ``bfp8_mac`` (the paper's array), ``fp32_vector``
  (the slicing fallback / non-linear personality), and ``fp16_dot``
  (a TransDot/DHFP-PE-style dual-precision dot-product mode: fp16 MACs
  on the same DSP48E2s, two mantissa slices per product, 16-bit operand
  streams, and a 32-cycle datapath reconfiguration on entry).
* :class:`ModeOptions` — the frozen, hashable per-run selection of
  format -> mode overrides plus the shift-aware alignment-prediction
  knob, threaded from the CLIs through the memoized cost lookups.

Every cost consumer resolves per-chunk cycles through
:func:`resolve_unit_mode` + :meth:`UnitMode.matmul_cost`, and every
count of vector streams through :func:`vector_chunks`.  The cycle engine
(:class:`repro.hw.systolic.SystolicArray`) is the independent count: its
bfp8 and fp32-multiply stream cycles emerge from the pipeline, and
``tests/hw/test_systolic.py`` holds them equal to
:meth:`UnitMode.compute_cycles` at every stream length.  The golden tests
in ``tests/cost/test_golden_cycles.py`` pin the cycles of the
bfp8/int8/fp32 paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from repro.errors import ConfigurationError, RegistryError
from repro.perf.memory import DEFAULT_MEMORY, MemoryModel
from repro.perf.throughput import DEFAULT_CLOCK, ClockConfig

__all__ = [
    "UnitMode",
    "StageCost",
    "ModeOptions",
    "get_mode",
    "available_modes",
    "resolve_unit_mode",
    "vector_chunks",
]

#: Reference fp32 stream length used for chunk-cycle costing.
FP32_STREAM_LENGTH = 128


def vector_chunks(n_ops: int) -> int:
    """Full fp32 streams (4 lanes x 128, the vector personality's chunk
    grain) that carry ``n_ops`` elementwise operations; at least one."""
    return max(1, ceil(n_ops / (4 * 128)))


@dataclass(frozen=True)
class StageCost:
    """Chunked cost of one matmul under a mode (scheduler stage terms)."""

    chunks: int
    chunk_cycles: int
    ops: float

    @property
    def total_cycles(self) -> int:
        """Unit-occupancy cycles: every chunk, end to end."""
        return self.chunks * self.chunk_cycles


@dataclass(frozen=True)
class UnitMode:
    """One execution personality of a compute unit.

    ``kind="array"`` modes cost through the Eqn-9 stream schedule, with
    ``slices`` mantissa slices per product (1 for bfp8, 2 for the
    dual-precision fp16 dot-product datapath), overlapped with their
    operand DMA (``operand_bytes`` scales the 8-bit stream's byte
    counts).  ``kind="vector"`` is the 4-lane fp32 personality, costed by
    Eqn 10.  :meth:`compute_cycles` holds both formulas.

    ``reconfig_cycles`` is charged by the scheduler once per transition
    *into* this mode (datapath reconfiguration, TransDot-style); modes
    that share the array's resting configuration charge nothing.
    """

    name: str
    kind: str  # "array" | "vector"
    slices: int = 1
    reconfig_cycles: int = 0
    operand_bytes: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("array", "vector"):
            raise ConfigurationError(
                f"unit mode kind must be 'array' or 'vector', got {self.kind!r}"
            )
        if self.slices < 1:
            raise ConfigurationError("slices must be >= 1")
        if self.operand_bytes < 1:
            raise ConfigurationError("operand_bytes must be >= 1")
        if self.reconfig_cycles < 0:
            raise ConfigurationError("reconfig_cycles must be >= 0")

    # -- cycle truth ---------------------------------------------------------
    def compute_cycles(
        self,
        length: int,
        *,
        clock: ClockConfig = DEFAULT_CLOCK,
        align_narrow_frac: float | None = None,
    ) -> int:
        """Compute cycles of one stream of ``length``, with no memory term.

        For array modes ``length`` is the Eqn-9 ``N_X`` (X blocks per
        stream): ``slices * rows * N_X + 15``.  For the vector mode it is
        the element count ``L`` of one lane-parallel fp32 stream: Eqn 10's
        ``L + 8``.  ``align_narrow_frac`` (array modes only) is the
        fraction of PSU accumulate steps predicted narrow by the
        shift-aware alignment predictor — each narrow step saves one cycle
        of the upper-half alignment shift (see
        :func:`repro.hw.shifter.alignment_shift_cycles`).
        """
        if length <= 0:
            raise ConfigurationError("stream length must be positive")
        if self.kind == "vector":
            return length + 8
        cycles = self.slices * clock.rows * length + 15
        if align_narrow_frac:
            if not 0.0 <= align_narrow_frac <= 1.0:
                raise ConfigurationError(
                    "align_narrow_frac must be within [0, 1]"
                )
            # One PSU alignment per accumulated X block after the first;
            # a predicted-narrow alignment skips the upper shifter stage.
            cycles -= min(int(align_narrow_frac * (length - 1)), length - 1)
        return cycles

    def stream_cycles(
        self,
        length: int,
        *,
        mem: MemoryModel = DEFAULT_MEMORY,
        clock: ClockConfig = DEFAULT_CLOCK,
        align_narrow_frac: float | None = None,
    ) -> int:
        """End-to-end cycles of one stream of ``length``: the
        :meth:`compute_cycles` overlapped with the stream's memory I/O."""
        compute = self.compute_cycles(
            length, clock=clock, align_narrow_frac=align_narrow_frac
        )
        if self.kind == "vector":
            rd, wr = mem.fp32_stream_bytes(length, clock.fp32_lanes)
            return mem.stream_total_cycles("fp32", compute, rd, wr)
        rd, wr = mem.bfp_stream_bytes(length, clock.rows, clock.cols)
        return mem.stream_total_cycles(
            "bfp8", compute, rd * self.operand_bytes, wr * self.operand_bytes
        )

    def matmul_cost(
        self,
        m: int,
        k: int,
        n: int,
        *,
        copies: int = 1,
        mem: MemoryModel = DEFAULT_MEMORY,
        clock: ClockConfig = DEFAULT_CLOCK,
        align_narrow_frac: float | None = None,
    ) -> StageCost:
        """Chunked cost of a (possibly head-replicated) ``m x k x n`` matmul.

        Array modes lower through the block-streaming plan (Eqn-9
        streams); the vector mode executes MAC by MAC on the fp32 lanes —
        the cliff the array personalities exist to avoid.
        """
        if self.kind == "vector":
            fpu_ops = 2 * m * k * n * copies
            return StageCost(
                chunks=vector_chunks(fpu_ops),
                chunk_cycles=self.stream_cycles(
                    FP32_STREAM_LENGTH, mem=mem, clock=clock
                ),
                ops=float(fpu_ops),
            )
        from repro.runtime.compiler import plan_matmul

        plan = plan_matmul(m, k, n)
        return StageCost(
            chunks=plan.streams * copies,
            chunk_cycles=self.stream_cycles(
                plan.stream_len, mem=mem, clock=clock,
                align_narrow_frac=align_narrow_frac,
            ),
            ops=float(plan.ops * copies),
        )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, UnitMode] = {
    mode.name: mode
    for mode in (
        # The paper's 8x8 bfp8 MAC array (Eqn-9 streams).
        UnitMode(name="bfp8_mac", kind="array"),
        # The 4-lane fp32 vector personality: non-linear programs and the
        # MAC-by-MAC fallback for formats with no array mapping.
        UnitMode(name="fp32_vector", kind="vector"),
        # TransDot-style dual-precision dot-product mode: fp16 MACs on
        # the same DSP48E2s, two mantissa slices per product, 16-bit
        # operand streams.
        UnitMode(
            name="fp16_dot", kind="array", slices=2, reconfig_cycles=32,
            operand_bytes=2,
        ),
    )
}


def get_mode(name: str) -> UnitMode:
    """Look up a unit mode by name."""
    mode = _REGISTRY.get(name)
    if mode is None:
        raise RegistryError(
            f"unknown unit mode {name!r}; available: {sorted(_REGISTRY)}"
        )
    return mode


def available_modes() -> list[str]:
    """Names of the unit modes (sorted)."""
    return sorted(_REGISTRY)


# ---------------------------------------------------------------------------
# Per-run mode selection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModeOptions:
    """Frozen per-run mode selection (hashable: composes with the memoized
    cost lookups in :mod:`repro.perf.latency`).

    ``overrides`` maps format names to mode names — e.g. ``(("fp16",
    "fp16_dot"),)`` routes fp16 matmuls onto the dual-precision array
    instead of the vector cliff.  ``align_narrow_frac`` enables
    shift-aware alignment-width prediction on array streams: the fraction
    of PSU accumulate steps charged at the narrow (single-stage) shift
    rate, typically measured by the :mod:`repro.arith.bfp_matmul`
    alignment probe.
    """

    overrides: tuple[tuple[str, str], ...] = ()
    align_narrow_frac: float | None = None

    def __post_init__(self) -> None:
        if self.align_narrow_frac is not None and not (
            0.0 <= self.align_narrow_frac <= 1.0
        ):
            raise ConfigurationError("align_narrow_frac must be within [0, 1]")
        seen = set()
        for pair in self.overrides:
            fmt_name, mode_name = pair
            if fmt_name in seen:
                raise ConfigurationError(
                    f"duplicate mode override for format {fmt_name!r}"
                )
            seen.add(fmt_name)
            get_mode(mode_name)  # raises RegistryError on unknown modes

    def mode_for(self, fmt_name: str) -> str | None:
        for name, mode_name in self.overrides:
            if name == fmt_name:
                return mode_name
        return None

    # -- CLI / snapshot plumbing ---------------------------------------------
    @classmethod
    def parse(
        cls,
        spec: str | None,
        *,
        align_narrow_frac: float | None = None,
    ) -> "ModeOptions | None":
        """Parse a CLI ``--array-mode`` spec into options (or ``None``).

        ``spec`` is a comma-separated list of ``format=mode`` pairs; the
        bare shorthand ``fp16`` expands to ``fp16=fp16_dot``.  An empty /
        ``none`` spec with no alignment knob returns ``None`` (the
        historical cost model, byte for byte).
        """
        overrides: list[tuple[str, str]] = []
        if spec and spec.lower() != "none":
            from repro.formats.registry import get_format

            for entry in spec.split(","):
                entry = entry.strip()
                if not entry:
                    continue
                if "=" in entry:
                    fmt_name, mode_name = (s.strip() for s in entry.split("=", 1))
                elif entry == "fp16":
                    fmt_name, mode_name = "fp16", "fp16_dot"
                else:
                    raise ConfigurationError(
                        f"cannot parse --array-mode entry {entry!r}: expected "
                        "'format=mode' (or the shorthand 'fp16'); available "
                        f"modes: {available_modes()}"
                    )
                get_format(fmt_name)  # raises RegistryError on unknown formats
                overrides.append((fmt_name, mode_name))
        if not overrides and align_narrow_frac is None:
            return None
        return cls(overrides=tuple(overrides),
                   align_narrow_frac=align_narrow_frac)

    def as_dict(self) -> dict:
        return {
            "overrides": [list(pair) for pair in self.overrides],
            "align_narrow_frac": self.align_narrow_frac,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ModeOptions":
        return cls(
            overrides=tuple(
                (str(f), str(m)) for f, m in doc.get("overrides", ())
            ),
            align_narrow_frac=doc.get("align_narrow_frac"),
        )


def resolve_unit_mode(
    fmt_name: str, modes: ModeOptions | None = None
) -> UnitMode:
    """The unit mode a format's matmuls execute under.

    Precedence: an explicit :class:`ModeOptions` override, else the
    format's registered ``array_mode``, else the fp32 vector fallback
    (formats whose ``array_mode`` is ``None``).
    """
    if modes is not None:
        override = modes.mode_for(fmt_name)
        if override is not None:
            return get_mode(override)
    from repro.formats.registry import get_format

    array_mode = get_format(fmt_name).array_mode
    return get_mode(array_mode) if array_mode is not None else get_mode(
        "fp32_vector"
    )
