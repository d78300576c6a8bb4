"""Spread, pairwise comparison and repeatability of benchmark records.

A record is one worker run (see :mod:`bench.worker`); NDJSON files of
records are what ``run --json`` writes and what ``compare`` reads.

``compare`` applies the small-sandbox rule for claiming a change: at
least ``MIN_PAIRS`` alternating (parent, change) pairs; a metric is
*improved* only when the change wins at least 9/10 of the pairs (ties
count for neither) and the medians differ by more than the parent's
interquartile range; it is *worse* when its median is worse than the
parent's by more than the metric's bound; when either side's spread is
wider than the bound it is *unresolved*, unless every run of the change
beats every run of the parent.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_records(path: Path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def _better(x: float, y: float, better: str) -> bool:
    """Whether ``y`` reads better than ``x``."""
    return y > x if better == "higher" else y < x


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> str:
    """improved / no worse / unresolved / worse (see the module docstring)."""
    pairs = list(zip(parent, change))
    if len(pairs) < MIN_PAIRS:
        return "unresolved"
    wins = sum(_better(p, c, better) for p, c in pairs)
    q1, med_p, q3 = quartiles(parent)
    med_c = quartiles(change)[1]
    gain = med_c - med_p if better == "higher" else med_p - med_c
    if wins >= WIN_SHARE * len(pairs) and gain > q3 - q1:
        return "improved"
    if max(spread(parent), spread(change)) > bound:
        if all(_better(p, c, better) for p in parent for c in change):
            return "no worse"
        return "unresolved"
    return "worse" if -gain > bound * abs(med_p) else "no worse"


def _by_workload(records: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = defaultdict(list)
    for r in records:
        if not r["provenance"].get("trace"):
            out[r["workload"]].append(r)
    return out


def _values(records: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in records
            if metric in r["metrics"]]


def compare(parent: list[dict], change: list[dict], spec: dict
            ) -> tuple[list[str], bool]:
    """Per workload and end-to-end metric: medians, IQRs and verdict.

    Returns ``(lines, any_worse)``.  Pairs are the i-th records of each
    side per workload; a differing output digest between two records of
    the same seed is flagged.
    """
    lines = [f"{'workload':<15} {'metric':<20} {'parent med':>12} "
             f"{'IQR':>10} {'change med':>12} {'IQR':>10} {'wins':>7}  verdict"]
    any_worse = False
    a_by, b_by = _by_workload(parent), _by_workload(change)
    for wl in sorted(set(a_by) | set(b_by)):
        a, b = a_by.get(wl, []), b_by.get(wl, [])
        for m in spec["end_to_end"]:
            va, vb = _values(a, m["name"]), _values(b, m["name"])
            if not va or not vb:
                continue
            v = verdict(va, vb, m["better"], m["bound"])
            any_worse |= v == "worse"
            qa, qb = quartiles(va), quartiles(vb)
            n = min(len(va), len(vb))
            wins = sum(_better(x, y, m["better"]) for x, y in zip(va, vb))
            lines.append(
                f"{wl:<15} {m['name']:<20} {qa[1]:>12.5g} {qa[2] - qa[0]:>10.3g} "
                f"{qb[1]:>12.5g} {qb[2] - qb[0]:>10.3g} {wins:>3}/{n:<3}  {v}"
                + ("" if n >= MIN_PAIRS else f" (needs {MIN_PAIRS} pairs)"))
        digests_a = {r["provenance"]["seed"]: r.get("digest") for r in a}
        for r in b:
            seed = r["provenance"]["seed"]
            if seed in digests_a and digests_a[seed] != r.get("digest"):
                lines.append(f"{wl:<15} output digest changed at seed {seed}")
    return lines, any_worse


def repeat(records: list[dict], spec: dict) -> tuple[list[str], bool]:
    """Whether sets of runs of one code agree within the metric bounds.

    Host metrics: every set's median within the bound of the first
    set's.  Simulated values (``sim_*`` metrics and report entries) and
    output digests: identical across sets for the same seed.
    """
    sets: dict[int, list[dict]] = defaultdict(list)
    for r in records:
        sets[r["set"]].append(r)
    order = sorted(sets)
    lines = [f"{'workload':<15} {'metric':<20} "
             + " ".join(f"{'set ' + str(s) + ' med':>13}" for s in order)
             + f" {'max dev':>8} {'bound':>6}  verdict"]
    ok = True
    by_set = {s: _by_workload(sets[s]) for s in order}
    for wl in sorted(by_set[order[0]]):
        for m in spec["end_to_end"]:
            meds = [quartiles(_values(by_set[s].get(wl, []), m["name"]))[1]
                    for s in order]
            dev = max(abs(x - meds[0]) / abs(meds[0]) for x in meds)
            exact = m["name"].startswith("sim_")
            good = dev == 0 if exact else dev <= m["bound"]
            ok &= good
            lines.append(
                f"{wl:<15} {m['name']:<20} "
                + " ".join(f"{x:>13.6g}" for x in meds)
                + f" {dev:>8.2%} {m['bound']:>6.0%}  "
                + ("ok" if good else ("NOT IDENTICAL" if exact else "EXCEEDS")))
        seen: dict[int, tuple] = {}
        for s in order:
            for r in by_set[s].get(wl, []):
                sim = {k: v["value"] for k, v in r.get("report", {}).items()
                       if k.startswith("sim_")}
                key = (r.get("digest"), json.dumps(sim, sort_keys=True))
                seed = r["provenance"]["seed"]
                if seen.setdefault(seed, key) != key:
                    ok = False
                    lines.append(f"{wl:<15} seed {seed}: digest or simulated "
                                 f"values differ between sets")
    return lines, ok
