"""Host-time benchmark of the repro compiler, simulator, explore and serve.

Usage, from the repository root::

    python3 hostbench/run.py --workload sim --seed 1 --seconds 20 --trace 0

Workloads: ``sim``, ``sim-replay``, ``cli``, ``sweep`` (see README.md).
With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run repeats its ops with the
benchmark's spans installed and reports the per-layer metrics plus the
tracing overhead instead.  Every op is checked against the seed-loop
oracle in ``oracle.json``.
"""

import time

STARTED = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent

WORKLOADS = ("sim", "sim-replay", "cli", "sweep")

#: Fresh processes that repeat a workload's set-up; with the run's own
#: set-up they give the samples whose median is ``setup_s``.
SETUP_PROBES = 2

#: Divergences already reported against the program, as (workload, op,
#: first differing field path).  Such an op still fails: it counts in
#: ``failed`` and leaves the metrics, but it does not make the run
#: ``correct: false``; any other divergence does.
KNOWN_DEFECTS = {
    # Replay counts 2 more events than the interpreter and the seed loop
    # on BF with the 64-PE chip; every other as_dict() field agrees.
    ("sim-replay", "BF@64", "events"),
}


def load_workload(ctx):
    if ctx.workload in ("sim", "sim-replay"):
        from hostbench.sim import SimWorkload as cls
    elif ctx.workload == "cli":
        from hostbench.cli import CliWorkload as cls
    else:
        from hostbench.sweep import SweepWorkload as cls
    return cls(ctx)


def setup_probe_s(args) -> float:
    """One fresh-process set-up of the same workload (import, oracle load,
    workload set-up such as server boot), as that process measured it."""
    import subprocess

    out = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0", "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {out.stderr[-400:]}")
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def run_ops(workload, plan, tracer=None):
    """Every op of the plan; an op that raises fails alone, like a mismatch."""
    import traceback

    from hostbench.harness import Op
    from hostbench.oracle import StaleOracle

    ops = []
    for item in plan:
        try:
            ops.append(workload.op(item, tracer))
        except StaleOracle:
            raise
        except Exception as exc:
            traceback.print_exc()
            ops.append(Op(str(item), 0.0, 0, "error", repr(exc)))
    return ops


def traced_pass(workload, ctx):
    """Repeat the op plan with spans on; per-layer metrics and overhead."""
    from hostbench.harness import importtime_probe, ratio
    from hostbench.tracer import Tracer

    untraced = run_ops(workload, workload.plan(0))
    tracer = Tracer()
    with contextlib.ExitStack() as stack:
        for patch in workload.traced_patches(tracer):
            stack.enter_context(patch)
        traced = run_ops(workload, workload.plan(1), tracer)
    layers = dict.fromkeys(PER_LAYER, 0.0)
    if ctx.workload != "cli":  # cli ops carry their own import split
        layers.update(importtime_probe(ctx))
    layers.update(workload.layer_metrics(tracer, traced))
    # Per op, since the sweep's traced pass may draw fewer fresh points.
    base_s = sum(op.elapsed_s for op in untraced) / len(untraced)
    traced_s = sum(op.elapsed_s for op in traced) / len(traced)
    ops = {s["id"]: s for s in tracer.spans if s["name"] == "op"}
    covered = sum(s["end_ns"] - s["start_ns"] for s in tracer.spans
                  if s["parent"] in ops)
    layers.update({
        "trace.overhead_s": traced_s - base_s,
        "trace.overhead_ratio": ratio(traced_s - base_s, base_s),
        "trace.layer_coverage": ratio(
            covered, sum(s["end_ns"] - s["start_ns"] for s in ops.values())),
        "trace.spans": len(tracer.spans),
    })
    out = ROOT / ".hostbench-out" / f"trace-{ctx.workload}-seed{ctx.seed}.json"
    tracer.dump(out)
    return untraced + traced, layers, [f"spans written to {out}"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(1, str(ROOT / "src"))

    from hostbench import oracle
    from hostbench.harness import Ctx, e2e_metrics

    try:
        data = oracle.load()
    except oracle.StaleOracle as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ctx = Ctx.create(ROOT, args.workload, args.seed, args.seconds, data)
    workload = None
    try:
        workload = load_workload(ctx)
        setup_s = time.perf_counter() - STARTED
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            ops, values, notes = traced_pass(workload, ctx)
            metrics = {name: (values[name], unit)
                       for name, unit in PER_LAYER.items()}
        else:
            setup_samples = [setup_s] + [setup_probe_s(args)
                                         for _ in range(SETUP_PROBES)]
            ops = run_ops(workload, workload.plan(0))
            metrics, notes = e2e_metrics(ops, setup_samples,
                                         workload.peak_rss_mib())
            for name, value in workload.aliases(
                    {k: v for k, (v, _) in metrics.items()}, ops).items():
                notes.append(f"{name} = {value:.6g}")
        workload.close()
        workload = None
    except oracle.StaleOracle as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if workload is not None:
            workload.close()
        ctx.cleanup()

    failed = [op for op in ops if not op.ok]
    unexplained = [op for op in failed
                   if (args.workload, op.label, op.path) not in KNOWN_DEFECTS]
    print(f"hostbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    for op in failed:
        known = ("" if any(op is u for u in unexplained)
                 else " [known defect]")
        print(f"  FAILED {op.label}: {op.path}: {op.detail}{known}")
    print(json.dumps({
        "correct": not unexplained,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


#: Per-layer metrics of a traced run, in BENCHMARK.json order.  Layers a
#: workload does not reach in the benchmark's own process read 0.
PER_LAYER = {
    "import.total_s": "s", "import.numpy_s": "s", "import.networkx_s": "s",
    "import.repro_self_s": "s",
    "transform.compile_s": "s", "transform.compile_calls": "count",
    "sim.simulate_s": "s", "sim.calls": "count",
    "sim.engine_events": "count", "sim.oracle_events": "count",
    "sim.dispatch_self_s": "s",
    "kernels.busy_s": "s", "kernels.firings": "count",
    "replay.events_replayed_ratio": "ratio",
    "replay.periods_compiled": "count", "replay.demotions": "count",
    "batch.firings_batched_ratio": "ratio", "batch.prepare_s": "s",
    "batch.prepare_calls": "count", "batch.apply_s": "s",
    "explore.job_exec_s": "s", "explore.job_sim_s": "s",
    "explore.engine_overhead_s": "s", "explore.cache_get_s": "s",
    "explore.cache_put_s": "s", "explore.store_append_s": "s",
    "explore.cache_hit_ratio": "ratio", "explore.cold_jobs_per_s": "1/s",
    "explore.warm_run_p50_s": "s",
    "serve.submit_s": "s", "serve.first_event_s": "s",
    "serve.finish_lag_s": "s", "serve.job_exec_s": "s",
    "serve.cache_hit_ratio": "ratio", "serve.retries": "count",
    "serve.cold_jobs_per_s": "1/s", "serve.cold_run_p50_s": "s",
    "serve.warm_run_p50_s": "s",
    "trace.overhead_s": "s", "trace.overhead_ratio": "ratio",
    "trace.layer_coverage": "ratio", "trace.spans": "count",
}


if __name__ == "__main__":
    # Import the benchmark as a package so its module names cannot shadow
    # the standard library or the program's own.
    sys.path[0] = str(ROOT)
    raise SystemExit(main())
