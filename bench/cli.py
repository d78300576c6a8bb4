"""Command line: ``run``, ``repeat`` and ``compare``.

Every workload run is a fresh ``python -m bench.worker`` process with
one BLAS/OpenMP thread and ``src`` on its path; this parent process
imports neither NumPy nor the simulator.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from bench import stats

REPO_ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = REPO_ROOT / "BENCHMARK.json"
#: A worker that runs longer than this is killed (the benchmark must end
#: each run within 180 s).
WORKER_TIMEOUT_S = 170
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def git_provenance() -> dict:
    """Revision and dirty flag, or ``None`` outside a git checkout."""
    if not (REPO_ROOT / ".git").exists():
        return {"git_rev": None, "git_dirty": None}
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                             capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain"],
                                cwd=REPO_ROOT, capture_output=True,
                                text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {"git_rev": None, "git_dirty": None}
    return {"git_rev": rev.stdout.strip() or None,
            "git_dirty": bool(status.stdout.strip())}


def run_workload(name: str, *, seed: int, seconds: float, trace: int = 0,
                 scale: float = 1.0, fail_check: bool = False
                 ) -> tuple[dict | None, int]:
    """Run one workload in a fresh single-threaded worker.

    Returns ``(record, returncode)``; the record is ``None`` when the
    worker crashed or timed out before printing one.
    """
    env = dict(os.environ, **{k: "1" for k in THREAD_ENV})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, "-m", "bench.worker", "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--scale", str(scale)]
    if fail_check:
        cmd.append("--fail-check")
    try:
        proc = subprocess.run(cmd, cwd=REPO_ROOT, env=env, text=True,
                              stdout=subprocess.PIPE,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{name}: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None, 1
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"{name}: worker exited {proc.returncode} without a record",
              file=sys.stderr)
        return None, proc.returncode or 1
    record["provenance"].update(git_provenance())
    return record, proc.returncode


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def render(record: dict) -> str:
    """Human-readable block for one record."""
    p = record["provenance"]
    lines = [f"== {record['workload']}  seed {p['seed']}  "
             f"{p['seconds']:g} s  trace {p['trace']}  scale {p['scale']:g}  "
             f"(item = {record['item']})"]
    metrics = record["metrics"]
    if p["trace"]:
        top = record.get("top_self", [])
        lines.append("  top self time:")
        lines += [f"    {t['name']:<44} {t['calls']:>9} calls "
                  f"{t['self_ms']:>11.1f} ms self" for t in top]
        for k in ("unattributed_ms", "trace_overhead_x"):
            if k in metrics:
                lines.append(f"  {k:<44} {_fmt(metrics[k]['value']):>12} "
                             f"{metrics[k]['unit']}")
    else:
        lines += [f"  {k:<24} {_fmt(m['value']):>14} {m['unit']}"
                  for k, m in metrics.items()]
    for k, m in record.get("report", {}).items():
        lines.append(f"  {k:<24} {_fmt(m['value']):>14} {m['unit']}")
    failed, attempted = record["failed"], record["attempted"]
    lines.append(f"  failed_frac {failed}/{attempted} = {failed / attempted:.3g}"
                 f"   digest {record.get('digest', '-')[:16]}")
    return "\n".join(lines)


def _append(path: str | None, records: list[dict]) -> None:
    if path:
        with open(path, "a") as f:
            for r in records:
                f.write(json.dumps(r) + "\n")


def cmd_run(args, spec: dict) -> int:
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    records, code = [], 0
    for name in names:
        record, rc = run_workload(name, seed=args.seed, seconds=args.seconds,
                                  trace=args.trace, scale=args.scale,
                                  fail_check=args.fail_check)
        code = code or rc
        if record is None:
            return code or 1
        records.append(record)
        print(render(record), flush=True)
    _append(args.json, records)
    if len(records) == 1:
        result = {k: records[0][k] for k in ("correct", "attempted", "failed")}
        result["metrics"] = records[0]["metrics"]
    else:
        result = {
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {f"{r['workload']}.{k}": m for r in records
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return code


def cmd_repeat(args, spec: dict) -> int:
    records = []
    for s in range(args.sets):
        for i in range(args.runs):
            for w in spec["workloads"]:
                record, _ = run_workload(w["name"], seed=args.seed + i,
                                         seconds=args.seconds)
                if record is None:
                    return 1
                record["set"] = s
                records.append(record)
                _append(args.json, [record])
                print(f"set {s} run {i} {w['name']}: "
                      + ", ".join(f"{k}={_fmt(m['value'])}"
                                  for k, m in record["metrics"].items()),
                      flush=True)
    lines, ok = stats.repeat(records, spec)
    print("\n".join(lines))
    return 0 if ok else 1


def cmd_compare(args, spec: dict) -> int:
    lines, any_worse = stats.compare(stats.load_records(args.parent),
                                     stats.load_records(args.change), spec)
    print("\n".join(lines))
    return 1 if any_worse else 0


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one workload, or all of them")
    run.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=spec["run_seconds"])
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=(0, 1), help="per-layer spans run (--trace or --trace 1)")
    run.add_argument("--scale", type=float, default=1.0,
                     help="work per round (smoke tests use small values)")
    run.add_argument("--json", help="append each run's record to this NDJSON file")
    run.add_argument("--fail-check", action="store_true", help=argparse.SUPPRESS)

    rep = sub.add_parser("repeat", help="run full sets and check they agree")
    rep.add_argument("--sets", type=int, default=2)
    rep.add_argument("--runs", type=int, default=5, help="runs per workload per set")
    rep.add_argument("--seed", type=int, default=0, help="first seed of each set")
    rep.add_argument("--seconds", type=float, default=spec["run_seconds"])
    rep.add_argument("--json", help="append every record to this NDJSON file")

    cmp_ = sub.add_parser("compare", help="parent vs change over paired runs")
    cmp_.add_argument("parent", help="NDJSON records of the parent")
    cmp_.add_argument("change", help="NDJSON records of the change")

    args = parser.parse_args(argv)
    return {"run": cmd_run, "repeat": cmd_repeat,
            "compare": cmd_compare}[args.command](args, spec)
