"""``repro incident-replay`` / ``repro incident-report`` — bundle tooling.

An incident bundle written by the :class:`~repro.obs.recorder.FlightRecorder`
is *self-contained*: the capture epoch's arrival rows (rid/user/deadline
verbatim), the serve config snapshot, the anomaly-detector state at epoch
start, the SLO burn-window preload, and any injected-fault parameters.
``incident-replay`` rebuilds all of that from the bundle alone,
re-simulates the epoch at absolute cycles, and verifies the anomaly
*reproduces*: the same trigger (cycle, signal, value, z-score — exact
float equality), the same deadline-miss count, and the same per-request
completion digest.  A mismatch is an exit-1 diagnosis, not a warning —
either the bundle is stale against the code, or determinism broke.

``incident-report`` summarizes a directory of bundles (one line per
incident: trigger, window, outcome counts, replayability).
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigurationError
from repro.obs.recorder import FlightRecorder, RecorderConfig
from repro.obs.slo import NULL_SLO, SLOClass, SLOConfig, SLOTracker
from repro.serve.dispatcher import serve_config_from_dict, simulate
from repro.serve.request import Request

__all__ = [
    "SpikeInjection",
    "requests_from_subtrace",
    "replay_bundle",
    "verify_replay",
    "add_incident_replay_parser",
    "run_incident_replay",
    "add_incident_report_parser",
    "run_incident_report",
]


@dataclass(frozen=True)
class SpikeInjection:
    """A latency fault window: batches landing inside it run slower.

    The window is keyed on the batch's newest item-ready cycle (a pure
    function of simulation state), so an original run and its replay
    apply the spike to exactly the same batches.
    :class:`~repro.cluster.sharding.ShardedCostModel` adds the extra
    cycles.
    """

    start_cycle: int
    end_cycle: int
    extra_cycles: int

    def __post_init__(self) -> None:
        if self.end_cycle <= self.start_cycle or self.extra_cycles <= 0:
            raise ConfigurationError(
                "spike injection needs end > start and extra_cycles > 0")

    def as_dict(self) -> dict:
        return {"start_cycle": self.start_cycle,
                "end_cycle": self.end_cycle,
                "extra_cycles": self.extra_cycles}

    @classmethod
    def from_dict(cls, doc: dict) -> SpikeInjection:
        return cls(start_cycle=int(doc["start_cycle"]),
                   end_cycle=int(doc["end_cycle"]),
                   extra_cycles=int(doc["extra_cycles"]))


def requests_from_subtrace(rows: list) -> list[Request]:
    """Rebuild the epoch's arrivals verbatim (rids and users preserved —
    unlike :func:`~repro.serve.request.trace_from_rows`, which renumbers)."""
    return [
        Request(
            rid=int(r[0]), kind=r[1], arrival=int(r[2]),
            deadline=(int(r[3]) if r[3] is not None else None),
            prompt_tokens=int(r[4]), gen_tokens=int(r[5]),
            user=(int(r[6]) if r[6] is not None else None),
        )
        for r in rows
    ]


def replay_bundle(bundle: dict) -> FlightRecorder:
    """Re-simulate a bundle's capture epoch; returns the replay recorder.

    Raises :class:`ConfigurationError` when the bundle declares itself
    non-replayable (epoch overflow, cluster capture, truncated SLO
    history) or lacks a serve-config capture.
    """
    replay = bundle.get("replay", {})
    if not replay.get("supported"):
        raise ConfigurationError(
            f"bundle {bundle.get('id', '?')} is not replayable: "
            f"{replay.get('reason', 'no replay section')}")
    capture = bundle.get("capture", {})
    if not capture.get("serve_config"):
        raise ConfigurationError(
            f"bundle {bundle.get('id', '?')} has no serve_config capture")
    config = serve_config_from_dict(capture["serve_config"])
    requests = requests_from_subtrace(bundle["subtrace"]["requests"])

    spike = None
    if capture.get("injection"):
        spike = SpikeInjection.from_dict(capture["injection"])

    slo = NULL_SLO
    slo_cfg = capture.get("slo")
    if slo_cfg:
        slo = SLOTracker(
            SLOConfig(
                classes=tuple(SLOClass(c["name"], c["objective"])
                              for c in slo_cfg["classes"]),
                short_window_ms=slo_cfg["short_window_ms"],
                long_window_ms=slo_cfg["long_window_ms"],
                count_rejections=slo_cfg.get("count_rejections", True),
            ),
            clock=config.clock,
        )
        for kind, cycle, bad in bundle.get("slo_preload", []):
            slo.preload(kind, int(cycle), bool(bad))

    recorder = FlightRecorder(
        RecorderConfig.from_dict(capture.get("recorder", {})),
        run=f"{bundle.get('run', 'run')}-replay",
        capture=capture,
    )
    recorder.preload_state(bundle)
    simulate(requests, config, slo=slo, recorder=recorder, spike=spike)
    return recorder


def verify_replay(bundle: dict, recorder: FlightRecorder) -> list[str]:
    """Mismatches between a bundle and its replay (empty = exact)."""
    if not recorder.incidents:
        return ["replay produced no incident: the trigger did not reproduce"]
    rep = recorder.incidents[0]
    mismatches: list[str] = []
    if len(recorder.incidents) != 1:
        mismatches.append(
            f"replay produced {len(recorder.incidents)} incidents, "
            "expected exactly 1")
    want, got = bundle["expected"], rep["expected"]
    for key in ("completed", "deadline_misses", "rejections",
                "completions_sha256"):
        if want[key] != got[key]:
            mismatches.append(
                f"expected.{key}: bundle {want[key]!r} vs replay {got[key]!r}")
    if bundle["trigger"] != rep["trigger"]:
        mismatches.append(
            f"trigger: bundle {bundle['trigger']!r} vs replay "
            f"{rep['trigger']!r}")
    want_close = bundle["window"]["closed_cycle"]
    got_close = rep["window"]["closed_cycle"]
    if want_close != got_close:
        mismatches.append(
            f"window.closed_cycle: bundle {want_close} vs replay {got_close}")
    return mismatches


# -- CLI ----------------------------------------------------------------------
def add_incident_replay_parser(subparsers) -> argparse.ArgumentParser:
    p = subparsers.add_parser(
        "incident-replay",
        help="re-simulate an incident bundle and verify it reproduces",
        description="Deterministically re-simulate the capture epoch of a "
                    "flight-recorder incident bundle from the bundle alone, "
                    "and verify the anomaly reproduces exactly (same "
                    "trigger cycle/value/z-score, same deadline-miss count, "
                    "same per-request completion digest).",
    )
    p.add_argument("bundle", type=Path, help="incident bundle JSON")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the per-field comparison (exit code only)")
    return p


def run_incident_replay(args) -> int:
    try:
        bundle = json.loads(args.bundle.read_text())
    except FileNotFoundError:
        print(f"incident-replay: no such bundle: {args.bundle}")
        return 2
    except json.JSONDecodeError as e:
        print(f"incident-replay: {args.bundle} is not valid JSON: {e}")
        return 2
    try:
        recorder = replay_bundle(bundle)
    except ConfigurationError as e:
        print(f"incident-replay: {e}")
        return 2
    trig = bundle["trigger"]
    if not args.quiet:
        n_req = len(bundle["subtrace"]["requests"])
        window = bundle["window"]
        print(f"incident {bundle['id']} (run {bundle['run']}): "
              f"{trig['source']}/{trig['signal']} at cycle {trig['cycle']}")
        print(f"replayed {n_req} arrivals over epoch "
              f"[{window['epoch_start']}, {window['closed_cycle']}]")
    mismatches = verify_replay(bundle, recorder)
    if mismatches:
        print(f"incident {bundle['id']}: replay DIVERGED "
              f"({len(mismatches)} mismatch(es)):")
        for m in mismatches:
            print(f"  - {m}")
        return 1
    if not args.quiet:
        exp = bundle["expected"]
        z = trig.get("zscore")
        print(f"  trigger          exact match "
              f"(value {trig['value']:g}"
              + (f", z {z:.3f}" if z is not None else "") + ")")
        print(f"  completed        {exp['completed']}")
        print(f"  deadline_misses  {exp['deadline_misses']}")
        print(f"  rejections       {exp['rejections']}")
        print(f"  completions      sha256 {exp['completions_sha256'][:16]}…")
    print(f"incident {bundle['id']} reproduced exactly")
    return 0


def add_incident_report_parser(subparsers) -> argparse.ArgumentParser:
    p = subparsers.add_parser(
        "incident-report",
        help="summarize flight-recorder incident bundles",
        description="One line per incident bundle found under --dir (or "
                    "given explicitly): trigger, capture window, outcome "
                    "counts, replayability.",
    )
    p.add_argument("bundles", nargs="*", type=Path,
                   help="bundle files (default: scan --dir)")
    p.add_argument("--dir", type=Path, default=Path("results/incidents"),
                   help="directory to scan recursively for *.json bundles")
    return p


def _bundle_row(path: Path, bundle: dict) -> str:
    trig = bundle.get("trigger", {})
    exp = bundle.get("expected", {})
    window = bundle.get("window", {})
    replay = bundle.get("replay", {})
    if replay.get("supported"):
        rep = "replayable"
    else:
        rep = f"capture-only ({replay.get('reason', 'unknown')})"
    z = trig.get("zscore")
    zs = f" z={z:.2f}" if z is not None else ""
    chain = len(bundle.get("cause_chain", []))
    return (
        f"{bundle.get('run', '?')}/{bundle.get('id', path.stem)}: "
        f"{trig.get('source', '?')}/{trig.get('signal', '?')} "
        f"value={trig.get('value', float('nan')):g}{zs} "
        f"at cycle {trig.get('cycle', '?')} "
        f"(+{chain} chained), window "
        f"[{window.get('epoch_start', '?')}, "
        f"{window.get('closed_cycle', '?')}], "
        f"{exp.get('completed', '?')} completed / "
        f"{exp.get('deadline_misses', '?')} missed / "
        f"{exp.get('rejections', '?')} rejected — {rep}"
    )


def run_incident_report(args) -> int:
    paths = list(args.bundles)
    if not paths:
        if not args.dir.is_dir():
            print(f"incident-report: no bundle directory at {args.dir} "
                  "(run serve-sim --record first, or pass bundle paths)")
            return 2
        paths = sorted(args.dir.rglob("*.json"))
    if not paths:
        print(f"incident-report: no bundles under {args.dir}")
        return 0
    shown = 0
    for path in paths:
        try:
            bundle = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as e:
            print(f"{path}: unreadable bundle ({e})")
            continue
        if bundle.get("schema_version") is None or "trigger" not in bundle:
            continue  # not an incident bundle (directory may hold other JSON)
        print(_bundle_row(path, bundle))
        shown += 1
    print(f"{shown} incident(s)")
    return 0
