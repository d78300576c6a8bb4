"""Online anomaly detection over serving signal streams.

The flight recorder (:mod:`repro.obs.recorder`) feeds a handful of named
signal streams — completion latency, queue depth, batch occupancy, SQNR
taps — into this engine as they happen.  Each stream gets an
exponentially-weighted mean/variance estimate and fires a
:class:`Trigger` when a sample's z-score against the *pre-update* state
crosses the configured threshold in the configured direction.  Two more
trigger sources compose in: a level-crossing detector over the SLO
sustained burn rate (:mod:`repro.obs.slo`), and external triggers pushed
by existing gates (the numerics drift gate, a CLI hook).

Everything here is a pure function of the observation sequence: no
wall-clock, no randomness.  Detector state is a few floats and is
snapshot/restorable (:meth:`AnomalyEngine.state` /
:meth:`AnomalyEngine.load_state`) so an incident replay can seed the
engine exactly as it stood at the start of the captured window and
reproduce the trigger bit-for-bit — the same EWMA arithmetic over the
same doubles in the same order yields the same z-score.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

from repro.errors import ConfigurationError

__all__ = [
    "DetectorConfig",
    "EwmaDetector",
    "ThresholdDetector",
    "Trigger",
    "AnomalyConfig",
    "AnomalyEngine",
]

_DIRECTIONS = ("high", "low", "both")


@dataclass(frozen=True)
class DetectorConfig:
    """One signal stream's EWMA z-score policy.

    ``min_std`` is an absolute floor on the standard deviation used for
    scoring; without it a near-constant stream (variance ~0) would fire
    on any jitter.  Pick it in the signal's own units: cycles for
    latency, items for queue depth, dB for SQNR.
    """

    signal: str
    alpha: float = 0.05
    z_threshold: float = 5.0
    warmup: int = 64
    direction: str = "high"
    min_std: float = 1e-9

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigurationError(
                f"detector {self.signal!r}: alpha must be in (0, 1], "
                f"got {self.alpha}"
            )
        if self.z_threshold <= 0.0:
            raise ConfigurationError(
                f"detector {self.signal!r}: z_threshold must be > 0, "
                f"got {self.z_threshold}"
            )
        if self.warmup < 1:
            raise ConfigurationError(
                f"detector {self.signal!r}: warmup must be >= 1, "
                f"got {self.warmup}"
            )
        if self.direction not in _DIRECTIONS:
            raise ConfigurationError(
                f"detector {self.signal!r}: direction must be one of "
                f"{_DIRECTIONS}, got {self.direction!r}"
            )


class EwmaDetector:
    """EWMA mean/variance with pre-update z-scoring.

    A sample is scored against the state *before* it is folded in, so a
    spike cannot hide inside the statistics it just inflated.  The state
    is exactly three numbers (count, mean, var) — cheap to snapshot at
    every capture-epoch boundary.
    """

    __slots__ = ("cfg", "count", "mean", "var")

    def __init__(self, cfg: DetectorConfig) -> None:
        self.cfg = cfg
        self.count = 0
        self.mean = 0.0
        self.var = 0.0

    def score(self, value: float) -> float | None:
        """z-score of ``value`` against current state; None during warmup."""
        if self.count < self.cfg.warmup:
            return None
        std = sqrt(self.var)
        if std < self.cfg.min_std:
            std = self.cfg.min_std
        return (value - self.mean) / std

    def update(self, value: float) -> None:
        if self.count == 0:
            self.mean = value
            self.var = 0.0
        else:
            diff = value - self.mean
            incr = self.cfg.alpha * diff
            self.mean += incr
            self.var = (1.0 - self.cfg.alpha) * (self.var + diff * incr)
        self.count += 1

    def observe(self, value: float) -> float | None:
        """Score then update; returns the firing z-score or ``None``.

        Fires when the pre-update z crosses ``z_threshold`` in the
        configured direction.  The body inlines :meth:`score` and
        :meth:`update` (identical arithmetic, identical order — replay
        exactness depends on it): this runs on the serving hot path for
        every completion and queue transition, and the two extra method
        calls are measurable there.
        """
        cfg = self.cfg
        count = self.count
        if count == 0:
            self.mean = value
            self.var = 0.0
            self.count = 1
            return None
        z = None
        if count >= cfg.warmup:
            std = sqrt(self.var)
            if std < cfg.min_std:
                std = cfg.min_std
            z = (value - self.mean) / std
        diff = value - self.mean
        incr = cfg.alpha * diff
        self.mean += incr
        self.var = (1.0 - cfg.alpha) * (self.var + diff * incr)
        self.count = count + 1
        if z is None:
            return None
        d = cfg.direction
        if d == "high" and z >= cfg.z_threshold:
            return z
        if d == "low" and z <= -cfg.z_threshold:
            return z
        if d == "both" and abs(z) >= cfg.z_threshold:
            return z
        return None

    def state(self) -> dict:
        return {"count": self.count, "mean": self.mean, "var": self.var}

    def load_state(self, doc: dict) -> None:
        self.count = int(doc["count"])
        self.mean = float(doc["mean"])
        self.var = float(doc["var"])


class ThresholdDetector:
    """Level-crossing detector: fires once per upward threshold crossing.

    Used for the SLO sustained-burn trigger — burn hovering above the
    threshold is *one* incident, not one per completion; the detector
    rearms only after the signal drops back below.
    """

    __slots__ = ("signal", "threshold", "above")

    def __init__(self, signal: str, threshold: float) -> None:
        self.signal = signal
        self.threshold = threshold
        self.above = False

    def observe(self, value: float) -> bool:
        crossed = value >= self.threshold and not self.above
        self.above = value >= self.threshold
        return crossed

    def state(self) -> dict:
        return {"above": self.above}

    def load_state(self, doc: dict) -> None:
        self.above = bool(doc["above"])


@dataclass(frozen=True)
class Trigger:
    """One fired anomaly: what, where in simulated time, and how far out.

    ``source`` is the trigger taxonomy root (``anomaly`` for EWMA
    detectors, ``slo_burn`` for the burn-rate threshold,
    ``numerics_drift`` / ``external`` for pushed triggers); ``signal``
    names the stream; ``zscore`` is ``None`` for non-EWMA sources.
    """

    cycle: int
    source: str
    signal: str
    value: float
    threshold: float
    zscore: float | None = None
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "cycle": self.cycle,
            "source": self.source,
            "signal": self.signal,
            "value": self.value,
            "threshold": self.threshold,
            "zscore": self.zscore,
            "details": dict(self.details),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> Trigger:
        return cls(
            cycle=int(doc["cycle"]),
            source=doc["source"],
            signal=doc["signal"],
            value=float(doc["value"]),
            threshold=float(doc["threshold"]),
            zscore=(None if doc.get("zscore") is None
                    else float(doc["zscore"])),
            details=dict(doc.get("details", {})),
        )


@dataclass(frozen=True)
class AnomalyConfig:
    """Thresholds for the built-in signal streams.

    The EWMA defaults are deliberately conservative (z >= 5-6 on a
    pre-update score): steady-state serving must not page.  ``burn_threshold``
    is in SLO burn units — 1.0 means the error budget burns exactly at
    the objective rate; 8.0 (default) pages only on a severe sustained
    burn.  Set any z to ``0`` to disable that stream.
    """

    warmup: int = 64
    alpha: float = 0.05
    latency_z: float = 5.0
    #: absolute std floor for latency scoring, cycles.
    latency_min_std: float = 1000.0
    queue_z: float = 5.0
    queue_min_std: float = 2.0
    #: Per-dispatch batch fill is bimodal under mixed traffic (a lone vit
    #: dispatch is 1/1, a full decode group 8/8, a straggler 1/8), so
    #: z-scoring it against a running mean pages on normal traffic; the
    #: stream is opt-in (0 = disabled) for occupancy-collapse hunts.
    occupancy_z: float = 0.0
    occupancy_min_std: float = 0.1
    sqnr_z: float = 4.0
    sqnr_min_std: float = 1.0
    burn_threshold: float = 8.0

    def __post_init__(self) -> None:
        for name in ("latency_z", "queue_z", "occupancy_z", "sqnr_z",
                     "burn_threshold"):
            if getattr(self, name) < 0:
                raise ConfigurationError(
                    f"anomaly {name} must be >= 0, got {getattr(self, name)}")

    def as_dict(self) -> dict:
        return {
            "warmup": self.warmup,
            "alpha": self.alpha,
            "latency_z": self.latency_z,
            "latency_min_std": self.latency_min_std,
            "queue_z": self.queue_z,
            "queue_min_std": self.queue_min_std,
            "occupancy_z": self.occupancy_z,
            "occupancy_min_std": self.occupancy_min_std,
            "sqnr_z": self.sqnr_z,
            "sqnr_min_std": self.sqnr_min_std,
            "burn_threshold": self.burn_threshold,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> AnomalyConfig:
        return cls(**{k: doc[k] for k in cls().as_dict() if k in doc})


#: (z attr, min_std attr, direction) per built-in EWMA stream.
_STREAMS = (
    ("latency_cycles", "latency_z", "latency_min_std", "high"),
    ("queue_depth", "queue_z", "queue_min_std", "high"),
    ("batch_occupancy", "occupancy_z", "occupancy_min_std", "both"),
    ("sqnr_db", "sqnr_z", "sqnr_min_std", "low"),
)
_SIGNAL_NAMES = frozenset(s for s, *_ in _STREAMS)


class AnomalyEngine:
    """The recorder's trigger brain: EWMA streams + burn threshold.

    :meth:`observe` routes a sample to its stream's detector and returns
    a :class:`Trigger` when it fires (``None`` otherwise — the common
    case, one branch and a few float ops).  Unknown signal names raise:
    a typo'd stream would otherwise silently never fire.
    """

    def __init__(self, config: AnomalyConfig = AnomalyConfig()) -> None:
        self.config = config
        #: Monotonic count of samples folded into any detector — the
        #: recorder's cheap "did state change since my last snapshot" test.
        self.n_obs = 0
        self.detectors: dict[str, EwmaDetector] = {}
        for signal, z_attr, std_attr, direction in _STREAMS:
            z = getattr(config, z_attr)
            if z <= 0:
                continue
            self.detectors[signal] = EwmaDetector(DetectorConfig(
                signal=signal,
                alpha=config.alpha,
                z_threshold=z,
                warmup=config.warmup,
                direction=direction,
                min_std=getattr(config, std_attr),
            ))
        self.burn = ThresholdDetector("slo_burn", config.burn_threshold)

    def observe(self, signal: str, cycle: int, value: float) -> Trigger | None:
        det = self.detectors.get(signal)
        if det is None:
            if signal not in _SIGNAL_NAMES:
                raise ConfigurationError(f"unknown anomaly signal {signal!r}")
            return None  # stream disabled by config
        self.n_obs += 1
        z = det.observe(value)
        if z is None:
            return None
        return self.make_trigger(det, signal, cycle, value, z)

    def make_trigger(self, det: EwmaDetector, signal: str, cycle: int,
                     value: float, z: float) -> Trigger:
        """Build the trigger for a fired EWMA stream.

        Split out so :class:`~repro.obs.recorder.FlightRecorder` hooks
        holding a direct detector reference can skip :meth:`observe`'s
        dict lookup yet produce a byte-identical trigger on the rare
        firing path."""
        return Trigger(cycle=cycle, source="anomaly", signal=signal,
                       value=value, threshold=det.cfg.z_threshold, zscore=z,
                       details={"mean": det.mean, "direction":
                                det.cfg.direction})

    def observe_burn(self, cycle: int, value: float) -> Trigger | None:
        self.n_obs += 1
        if not self.burn.observe(value):
            return None
        return Trigger(cycle=cycle, source="slo_burn", signal="slo_burn",
                       value=value, threshold=self.burn.threshold)

    def external(self, cycle: int, source: str, signal: str, value: float,
                 threshold: float = 0.0, details: dict | None = None,
                 ) -> Trigger:
        """Wrap an externally-detected condition (numerics drift gate,
        CLI-injected test trigger) as a first-class trigger."""
        return Trigger(cycle=cycle, source=source, signal=signal,
                       value=value, threshold=threshold,
                       details=dict(details or {}))

    # -- replay support -------------------------------------------------------
    def state(self) -> dict:
        """Exact detector state (fresh dicts — safe to keep across epochs)."""
        return {
            "streams": {s: d.state() for s, d in self.detectors.items()},
            "burn": self.burn.state(),
        }

    def load_state(self, doc: dict) -> None:
        for signal, st in doc.get("streams", {}).items():
            det = self.detectors.get(signal)
            if det is not None:
                det.load_state(st)
        if "burn" in doc:
            self.burn.load_state(doc["burn"])
