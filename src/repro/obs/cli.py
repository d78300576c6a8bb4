"""``python -m repro profile`` — deterministic cycle/op profiles.

Two modes, both pure functions of configuration + seed (no wall clock):

* **schedule** (default): compile a model with the full-stack compiler and
  report its workload split, latency, and steady-state throughput; with
  ``--trace-out`` the compiled schedule is emitted as a per-unit
  Chrome-trace/Perfetto timeline whose critical path *is* the reported
  latency.
* **functional** (``--functional``): run the functional ``TinyLM`` under a
  chosen arithmetic backend with a :class:`repro.obs.profile.Profiler`
  attached, and report per-layer, per-precision cycle and op attribution
  (prefill forward + a cached greedy decode), plus ``backend.stats()``.
"""

from __future__ import annotations

import argparse
import json
import re
from pathlib import Path

from repro.errors import ConfigurationError

__all__ = [
    "add_profile_parser",
    "run_profile",
    "add_align_predict_parser",
    "run_align_predict",
    "add_numerics_report_parser",
    "run_numerics_report",
    "add_slo_report_parser",
    "run_slo_report",
]

_SCHEDULE_MODELS = ("deit-tiny", "deit-small", "deit-base",
                    "decoder-prefill", "decoder-decode")


def add_profile_parser(subparsers) -> argparse.ArgumentParser:
    p = subparsers.add_parser(
        "profile",
        help="deterministic cycle/op profile of a compiled or functional model",
        description=__doc__,
    )
    p.add_argument("--model", choices=_SCHEDULE_MODELS, default="deit-tiny",
                   help="schedule mode: which model to compile")
    p.add_argument("--batch", type=int, default=1,
                   help="batch size for the compiled schedule")
    p.add_argument("--units", type=int, default=None,
                   help="number of processing units (default: clock config)")
    p.add_argument("--context", type=int, default=128,
                   help="decoder models: context length")
    p.add_argument("--dim", type=int, default=512,
                   help="decoder models: model width")
    p.add_argument("--depth", type=int, default=8,
                   help="decoder models: number of layers")
    p.add_argument("--heads", type=int, default=8,
                   help="decoder models: attention heads")
    p.add_argument("--vocab", type=int, default=32000,
                   help="decoder models: vocabulary size")
    p.add_argument("--functional", action="store_true",
                   help="profile the functional TinyLM instead of a schedule")
    p.add_argument("--compiled", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="functional mode: after the profiled (eager) run, "
                        "time compiled decode-plan replay vs eager and "
                        "print plan stats (the profiled run itself is "
                        "always eager — a profiler needs per-op scopes)")
    p.add_argument("--backend", default="bfp8-mixed",
                   help="functional mode: arithmetic backend name")
    p.add_argument("--policy", default=None, metavar="NAME_OR_JSON",
                   help="per-layer precision policy: a preset name or a "
                        "policy JSON file; overrides --backend in functional "
                        "mode and re-modes the compiled matmul stages in "
                        "schedule mode")
    p.add_argument("--array-mode", default=None, metavar="SPEC",
                   help="unit-mode overrides, e.g. 'fp16' or "
                        "'fp16=fp16_dot,bf16=bfp8_mac': map formats onto "
                        "registered unit modes (see repro.cost.modes); "
                        "affects both compiled schedules and functional "
                        "cycle attribution")
    p.add_argument("--align-predict", type=float, default=None, metavar="FRAC",
                   help="schedule mode: fraction of array alignment steps "
                        "predicted narrow by the shift-aware width "
                        "predictor (0..1); charges reduced alignment "
                        "cycles on array matmul stages")
    p.add_argument("--seed", type=int, default=0,
                   help="functional mode: model/token seed")
    p.add_argument("--gen-tokens", type=int, default=4,
                   help="functional mode: greedy decode steps to profile")
    p.add_argument("--trace-out", type=Path, default=None, metavar="FILE",
                   help="schedule mode: write the per-unit schedule as "
                        "Chrome-trace/Perfetto JSON (timestamps are cycles)")
    p.add_argument("--json-out", type=Path, default=None, metavar="FILE",
                   help="write the profile as JSON")
    return p


def _policy(args):
    if getattr(args, "policy", None) is None:
        return None
    from repro.models.policy import load_policy

    return load_policy(args.policy)


def _modes(args):
    from repro.cost.modes import ModeOptions

    return ModeOptions.parse(
        getattr(args, "array_mode", None),
        align_narrow_frac=getattr(args, "align_predict", None),
    )


def _compile(args):
    from repro.models.configs import CONFIGS
    from repro.runtime.scheduler import compile_decoder, compile_vit

    policy = _policy(args)
    modes = _modes(args)
    if args.model in CONFIGS:
        return compile_vit(CONFIGS[args.model], batch=args.batch,
                           policy=policy, modes=modes)
    phase = args.model.split("-", 1)[1]
    return compile_decoder(
        vocab=args.vocab, dim=args.dim, depth=args.depth, n_heads=args.heads,
        context=args.context, phase=phase, batch=args.batch, policy=policy,
        modes=modes,
    )


def _run_schedule(args) -> int:
    from repro.eval.reporting import render_metrics, render_table
    from repro.obs.tracer import Tracer

    model = _compile(args)
    n = args.units or model.clock.n_units
    rows = model.workload_split(n)
    policy = _policy(args)
    print(render_table(
        ["partition", "ops", "ops%", "cycles", "latency%"],
        [(r["name"], f"{r['ops']:.3g}", f"{r['ops_pct']:.1f}",
          r["cycles"], f"{r['latency_pct']:.1f}") for r in rows],
        title=f"workload split: {model.name}, batch {args.batch}, {n} units",
    ))
    print()
    summary = {
        "model": model.name,
        "batch": args.batch,
        "n_units": n,
        "latency_cycles": model.latency_cycles(n),
        "latency_s": model.latency_seconds(n),
        "throughput_items_per_s": model.throughput_items_per_s(n),
        "fp32_latency_share": model.fp32_latency_share(n),
        "unit_cycles_per_item": model.unit_cycles_per_item(),
    }
    if policy is not None:
        summary["policy"] = policy.name
        for mode, cyc in sorted(model.latency_by_mode(n).items()):
            summary[f"latency_cycles.{mode}"] = cyc
    if _modes(args) is not None:
        for unit, cyc in sorted(model.latency_by_unit_mode(n).items()):
            summary[f"unit_mode.{unit}"] = cyc
    print(render_metrics("schedule profile", summary))

    if args.trace_out is not None:
        tracer = Tracer(meta={
            "model": model.name,
            "batch": args.batch,
            "n_units": n,
            "clock_freq_hz": model.clock.freq_hz,
        })
        makespan = model.trace_schedule(tracer, n)
        args.trace_out.write_text(tracer.to_json() + "\n")
        print(f"\ntrace written to {args.trace_out} "
              f"({len(tracer.spans)} spans, makespan {makespan} cycles; "
              "open in ui.perfetto.dev)")
    if args.json_out is not None:
        args.json_out.write_text(json.dumps(
            {"summary": summary, "workload_split": rows},
            indent=2, sort_keys=True,
        ) + "\n")
    return 0


def _run_functional(args) -> int:
    import numpy as np

    from repro.eval.reporting import render_metrics
    from repro.models.backend import PolicyBackend, get_backend
    from repro.models.decoder import TinyLM
    from repro.obs.profile import Profiler

    policy = _policy(args)
    modes = _modes(args)
    if policy is not None:
        backend = PolicyBackend(policy, modes=modes)
    elif modes is not None:
        from repro.models.policy import load_policy

        # --array-mode changes *cycle attribution*, which is policy-level
        # information; lift the flat backend into the equivalent policy so
        # the profiler sees the remapped unit modes.
        backend = PolicyBackend(load_policy(args.backend), modes=modes)
    else:
        backend = get_backend(args.backend)
    backend.profiler = Profiler()
    model = TinyLM(seed=args.seed)
    rng = np.random.default_rng(args.seed)
    tokens = rng.integers(0, model.vocab, size=(2, model.seq_len))

    with backend.scope("prefill"):
        model.forward(tokens, backend)
    with backend.scope("decode"):
        model.generate_cached(tokens[0, :4], args.gen_tokens, backend)

    print(backend.profiler.table(
        f"functional profile: TinyLM, backend {backend.name}, "
        f"seed {args.seed}"
    ))
    print()
    by_prec = backend.profiler.by_precision()
    total = backend.profiler.total_cycles()
    prec_summary = {
        f"cycles.{p}": g["cycles"] for p, g in sorted(by_prec.items())
    }
    prec_summary["cycles.total"] = total
    print(render_metrics("cycles by precision", prec_summary))
    print()
    print(render_metrics("backend stats", backend.stats()))

    profiler = backend.profiler
    plan_summary = None
    if getattr(args, "compiled", True):
        from repro.runtime.plan import plan_stats

        # Plans only activate on an unprofiled backend: per-op profiling
        # is exactly the dispatch the replay path removes.  Output here
        # is deterministic (same seed -> byte-identical); wall-clock
        # speedups live in benchmarks/bench_kernels.py.
        backend.profiler = None

        def _decode(compiled: bool) -> np.ndarray:
            caches = model.init_cache()
            logits = model.forward_step(
                int(tokens[0, 0]), 0, caches, backend, compiled=compiled
            )
            for pos in range(1, args.gen_tokens + 1):
                tok = int(np.argmax(logits)) % model.vocab
                logits = model.forward_step(
                    tok, pos, caches, backend, compiled=compiled
                )
            return logits

        eager_logits = _decode(False)
        compiled_logits = _decode(True)
        stats = plan_stats(model)
        plan_summary = {
            "bit_identical": bool(np.array_equal(eager_logits, compiled_logits)),
            "plans": len(stats),
            "replays": sum(s["replays"] for s in stats),
            "sampled_taps": sum(s["sampled_taps"] for s in stats),
        }
        print()
        print(render_metrics("compiled decode replay vs eager", plan_summary))

    if args.json_out is not None:
        args.json_out.write_text(json.dumps(
            {
                "backend": backend.name,
                "seed": args.seed,
                "profile": profiler.as_dict(),
                "backend_stats": backend.stats(),
                "compiled_replay": plan_summary,
            },
            indent=2, sort_keys=True,
        ) + "\n")
    return 0


def run_profile(args) -> int:
    if args.functional:
        return _run_functional(args)
    return _run_schedule(args)


def add_align_predict_parser(subparsers) -> argparse.ArgumentParser:
    p = subparsers.add_parser(
        "align-predict",
        help="measure shift-aware aligned-width prediction on a real model",
        description=(
            "Run the functional TinyLM under a block-fp backend with the "
            "alignment probe attached: every sequential PSU alignment also "
            "runs the exponent unit's width predictor and is checked "
            "against the emulated mantissas.  Reports the narrow fraction "
            "(the measured value for --align-predict / align_narrow_frac) "
            "and exits non-zero if the predictor ever under-predicts or "
            "the probed run is not bit-identical to the unprobed one."
        ),
    )
    p.add_argument("--backend", default="bfp8-mixed",
                   help="arithmetic backend name (must use the bfp array)")
    p.add_argument("--seed", type=int, default=0,
                   help="model/token seed")
    p.add_argument("--gen-tokens", type=int, default=4,
                   help="greedy decode steps after the prefill forward")
    p.add_argument("--json-out", type=Path, default=None, metavar="FILE",
                   help="write the probe summary as JSON")
    return p


def run_align_predict(args) -> int:
    import numpy as np

    from repro.arith.bfp_matmul import AlignmentProbe, set_alignment_probe
    from repro.eval.reporting import render_metrics
    from repro.models.backend import get_backend
    from repro.models.decoder import TinyLM

    backend = get_backend(args.backend)
    model = TinyLM(seed=args.seed)
    rng = np.random.default_rng(args.seed)
    tokens = rng.integers(0, model.vocab, size=(2, model.seq_len))

    # Unprobed reference first: the probe must be observation-only.
    ref = np.asarray(model.forward(tokens, backend))
    probe = AlignmentProbe()
    prev = set_alignment_probe(probe)
    try:
        got = np.asarray(model.forward(tokens, backend))
        model.generate_cached(tokens[0, :4], args.gen_tokens, backend)
    finally:
        set_alignment_probe(prev)

    summary = probe.as_dict()
    summary["bit_identical_with_probe"] = bool(np.array_equal(ref, got))
    print(render_metrics(
        f"alignment width prediction: TinyLM, backend {backend.name}, "
        f"seed {args.seed}",
        summary,
    ))
    if probe.steps:
        print(
            f"\ncost-model knob: --align-predict {probe.narrow_frac:.3f} "
            "(array matmul stages charge the single-stage shift on that "
            "fraction of accumulate steps)"
        )
    if args.json_out is not None:
        args.json_out.write_text(json.dumps(
            summary, indent=2, sort_keys=True,
        ) + "\n")
    ok = (
        probe.steps > 0
        and probe.under_predictions == 0
        and summary["bit_identical_with_probe"]
    )
    return 0 if ok else 1


def add_numerics_report_parser(subparsers) -> argparse.ArgumentParser:
    p = subparsers.add_parser(
        "numerics-report",
        help="value-domain quantization health report",
        description=(
            "Run the functional TinyLM under a quantizing backend with the "
            "numerics monitor attached, and report per-layer saturation/"
            "underflow rates, exponent spread, mantissa utilization and "
            "SQNR (plus end-to-end logits SQNR vs the fp32 reference). "
            "The claims ledger's numerics table gates the default run "
            "(python -m repro claims)."
        ),
    )
    p.add_argument("--backend", default="bfp8-mixed",
                   help="arithmetic backend name (must quantize)")
    p.add_argument("--man-bits", type=int, default=8,
                   help="block-fp mantissa width for bfp backends "
                        "(<8 injects extra truncation)")
    p.add_argument("--seed", type=int, default=0,
                   help="model/token seed")
    p.add_argument("--gen-tokens", type=int, default=4,
                   help="greedy decode steps after the prefill forward")
    p.add_argument("--json-out", type=Path, default=None, metavar="FILE",
                   help="write the JSON report")
    p.add_argument("--markdown-out", type=Path, default=None, metavar="FILE",
                   help="write the markdown summary")
    p.add_argument("--metrics-out", type=Path, default=None, metavar="FILE",
                   help="write the numerics.* metrics registry snapshot")
    p.add_argument("--trace-out", type=Path, default=None, metavar="FILE",
                   help="write a Perfetto trace with the numerics summary "
                        "attached as span arguments")
    return p


def _numerics_backend(name: str, man_bits: int) -> str:
    """The backend name ``--backend``/``--man-bits`` select."""
    from repro.models.backend import get_backend

    get_backend(name)  # an unknown --backend fails under its own name
    if man_bits == 8:
        return name
    bfp = re.fullmatch(r"bfp\d+-(mixed|all)", name)
    if bfp is None:
        raise ConfigurationError(
            f"--man-bits applies to bfp backends, not {name}")
    return f"bfp{man_bits}-{bfp.group(1)}"


def add_slo_report_parser(subparsers) -> argparse.ArgumentParser:
    p = subparsers.add_parser(
        "slo-report",
        help="rebuild the SLO story (misses, burn, attribution) from a trace",
        description=(
            "Parse a serve-sim Perfetto trace, reconstruct every request's "
            "lifecycle from its async spans, and report per-class deadline "
            "misses plus where sampled requests spent their cycles "
            "(queue / batch_wait / shard_compute / allreduce / pp_transfer). "
            "With --summary, cross-check the trace-derived deadline-miss "
            "rate against the run summary and exit non-zero on mismatch — "
            "the trace is only an artifact if it reproduces the "
            "dispatcher's accounting exactly."
        ),
    )
    p.add_argument("--trace", type=Path, required=True, metavar="FILE",
                   help="Perfetto trace JSON from serve-sim --trace-out")
    p.add_argument("--summary", type=Path, default=None, metavar="FILE",
                   help="run summary JSON (serve-sim --json-out); the "
                        "trace-derived deadline-miss rate must match it "
                        "exactly or the command exits 1")
    p.add_argument("--objective", type=float, default=0.99,
                   help="success objective used for the per-class error "
                        "budgets in the report")
    p.add_argument("--json-out", type=Path, default=None, metavar="FILE",
                   help="write the full report as JSON")
    return p


def run_slo_report(args) -> int:
    from repro.eval.reporting import render_metrics
    from repro.obs.slo import slo_report_from_trace
    from repro.obs.tracer import validate_chrome_trace

    doc = json.loads(args.trace.read_text())
    validate_chrome_trace(doc)
    report = slo_report_from_trace(
        doc, objectives={"vit": args.objective, "llm": args.objective}
    )

    top = {
        "requests": report["requests"],
        "sampled_requests": report["sampled_requests"],
        "deadline_misses": report["deadline_misses"],
        "deadline_miss_rate": report["deadline_miss_rate"],
        "coverage_min": report["coverage_min"],
        "coverage_mean": report["coverage_mean"],
    }
    print(render_metrics(f"slo report: {args.trace}", top))
    for name, row in sorted(report["classes"].items()):
        print()
        print(render_metrics(f"class {name}", row))
    if report["sampled_requests"]:
        print()
        print(render_metrics(
            "latency attribution (fraction of sampled cycles)",
            {stage: row["fraction"]
             for stage, row in report["attribution"].items()},
        ))

    if args.json_out is not None:
        args.json_out.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )

    if args.summary is not None:
        ref = json.loads(args.summary.read_text())
        ref = ref.get("summary", ref)  # cluster --json-out nests the summary
        want = ref.get("deadline_miss_rate")
        if want is None:
            print("\nsummary cross-check: no deadline_miss_rate in "
                  f"{args.summary}")
            return 1
        got = report["deadline_miss_rate"]
        if got != want:
            print("\nsummary cross-check FAILED: trace-derived miss rate "
                  f"{got!r} != summary {want!r}")
            return 1
        print(f"\nsummary cross-check OK: deadline_miss_rate {got!r} "
              "reproduced from spans alone")
    return 0


def run_numerics_report(args) -> int:
    from repro.obs.baseline import monitored_run, render_markdown

    run = monitored_run(_numerics_backend(args.backend, args.man_bits),
                        args.seed, args.gen_tokens)
    report = run.report
    if not report["entries"]:
        raise ConfigurationError(
            f"--backend {report['config']['backend']} quantizes nothing, "
            "so there are no numerics to report")

    md = render_markdown(report)
    print(md, end="")
    if args.json_out is not None:
        args.json_out.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
    if args.markdown_out is not None:
        args.markdown_out.write_text(md)
    if args.metrics_out is not None:
        args.metrics_out.write_text(run.registry.to_json() + "\n")
    if args.trace_out is not None:
        from repro.obs.tracer import Tracer

        tracer = Tracer(meta={"model": "tinylm",
                              "backend": report["config"]["backend"],
                              "seed": args.seed})
        run.monitor.annotate_tracer(tracer)
        args.trace_out.write_text(tracer.to_json() + "\n")
    return 0
