"""Command-line interface: inspect, compile, simulate, export.

::

    python -m repro list                      # the Figure 13 suite
    python -m repro describe SS               # logical graph of a benchmark
    python -m repro compile SS                # run the compiler, print report
    python -m repro simulate SS --frames 4    # timing-accurate simulation
    python -m repro profile SS --perfetto out.json   # telemetry + critical path
    python -m repro dot SS --compiled         # Graphviz export
    python -m repro suite                     # the Figure 13 table
    python -m repro explore sweep.json --workers 4   # design-space sweep
    python -m repro serve --port 8765         # resident sweep service
    python -m repro submit sweep.json --watch # run a sweep on the service
    python -m repro watch RUN_ID              # stream a run's events
    python -m repro jobs                      # list the service's runs
    python -m repro dash --data-dir .repro-serve  # metrics web dashboard
    python -m repro chaos --seed 7            # fault-injection scenario matrix

``simulate``, ``schedule``, ``suite``, and ``explore`` take ``--json``
for machine-readable output.

Benchmarks are addressed by their Figure 13 keys (1, 1F, 2, 2F, 3, 4, SS,
SF, BS, BF, 5).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from .apps import BENCHMARK_PROCESSOR, benchmark, benchmark_suite
from .graph.dot import to_dot
from .errors import SimulationError
from .machine import ProcessorSpec
from .sim import SimulationOptions, simulate
from .transform import CompileOptions, compile_application

__all__ = ["main"]


def _processor(args: argparse.Namespace) -> ProcessorSpec:
    return ProcessorSpec(
        clock_hz=args.clock_mhz * 1e6,
        memory_words=args.memory_words,
    )


def _compile(key: str, args: argparse.Namespace):
    bench = benchmark(key)
    return bench, compile_application(
        bench.application(),
        _processor(args),
        CompileOptions(
            mapping=args.mapping,
            spare_processors=getattr(args, "spares", 0),
        ),
    )


def _noc_model(args: argparse.Namespace, compiled):
    """Build the NoC timing model requested by --noc, or None."""
    if not getattr(args, "noc", False):
        for flag, name in ((getattr(args, "placement", None), "--placement"),
                           (getattr(args, "noc_mesh", None), "--mesh")):
            if flag:
                raise SimulationError(
                    f"{name} only affects timing through the NoC model; "
                    "add --noc"
                )
        return None
    from .machine import (
        NocModel,
        anneal_placement,
        fit_chip,
        row_major_placement,
    )

    chip = fit_chip(
        compiled.mapping.processor_count
        + len(getattr(compiled.mapping, "spares", ())),
        compiled.processor,
        mesh=getattr(args, "noc_mesh", None),
    )
    strategy = getattr(args, "placement", None) or "row-major"
    if strategy == "row-major":
        placement = row_major_placement(compiled.mapping, chip)
    else:
        placement = anneal_placement(
            compiled.mapping, compiled.dataflow, chip,
            seed=0, objective=strategy,
        )
    return NocModel(
        placement=placement,
        per_hop_cycles=args.hop_cycles,
        serialization_cycles_per_element=args.ser_cycles,
    )


def _add_noc_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--noc", action="store_true",
                   help="route inter-element transfers over the 2-D mesh "
                        "NoC with per-link contention (see docs/noc.md)")
    p.add_argument("--placement",
                   choices=("row-major", "energy", "makespan"),
                   default=None,
                   help="NoC placement strategy: naive row-major fill or "
                        "an annealed objective (requires --noc)")
    p.add_argument("--mesh", type=int, default=None, dest="noc_mesh",
                   help="force the NoC mesh side length (requires --noc; "
                        "default: smallest square that fits)")
    p.add_argument("--hop-cycles", type=float, default=4.0,
                   dest="hop_cycles",
                   help="router/link traversal cycles per hop")
    p.add_argument("--ser-cycles", type=float, default=1.0,
                   dest="ser_cycles",
                   help="link serialization cycles per payload element")


def _fault_spec(args: argparse.Namespace):
    from .faults import load_fault_spec

    if getattr(args, "faults", None) is None:
        if getattr(args, "fault_seed", None) is not None:
            raise SimulationError(
                "--fault-seed requires --faults (a scenario to seed)"
            )
        return None
    spec = load_fault_spec(args.faults)
    if args.fault_seed is not None:
        spec = spec.with_seed(args.fault_seed)
    return spec


def cmd_list(args: argparse.Namespace) -> int:
    for bench in benchmark_suite():
        print(f"{bench.key:>3}  {bench.title}")
    return 0


def cmd_describe(args: argparse.Namespace) -> int:
    bench = benchmark(args.key)
    print(bench.application().describe())
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    from .analysis import compile_report

    _, compiled = _compile(args.key, args)
    print(compile_report(compiled))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    bench, compiled = _compile(args.key, args)
    fault_spec = _fault_spec(args)
    telemetry_on = bool(
        getattr(args, "perfetto", None) or getattr(args, "spans", None)
        or getattr(args, "critical_path", False)
    )
    noc = _noc_model(args, compiled)
    sim_started = time.perf_counter()
    result = simulate(
        compiled,
        SimulationOptions(frames=args.frames, faults=fault_spec,
                          telemetry=telemetry_on, noc=noc,
                          replay=args.replay, batch=args.batch),
    )
    sim_elapsed = time.perf_counter() - sim_started
    path_report = None
    if telemetry_on:
        from .obs import (
            analyze_critical_path,
            write_perfetto,
            write_spans_jsonl,
        )

        tele = result.telemetry
        if args.perfetto:
            write_perfetto(tele, args.perfetto, app=bench.key)
        if args.spans:
            write_spans_jsonl(tele, args.spans)
        if args.critical_path:
            path_report = analyze_critical_path(tele)
    shedding = fault_spec is not None and fault_spec.recovery.shed
    verdict = result.verdict(
        bench.output, rate_hz=bench.rate_hz,
        chunks_per_frame=bench.chunks_per_frame, frames=args.frames,
        allow_shedding=shedding,
    )
    faults_active = fault_spec is not None and fault_spec.active()
    bench_stats = {
        "wall_s": sim_elapsed,
        "events": result.events_processed,
        "events_per_s": (
            result.events_processed / sim_elapsed if sim_elapsed > 0 else 0.0
        ),
        "peak_heap": result.peak_heap,
    }
    if args.json:
        payload = {
            "benchmark": bench.key,
            "rate_hz": bench.rate_hz,
            "frames": args.frames,
            "processor_count": compiled.processor_count,
            "kernel_count": compiled.kernel_count(),
            "verdict": verdict.as_dict(),
            "utilization": result.utilization.as_dict(),
        }
        if faults_active:
            payload["faults"] = result.fault_stats.as_dict()
        if result.noc_stats is not None:
            payload["noc"] = result.noc_stats.as_dict(result.makespan_s)
            payload["makespan_s"] = result.makespan_s
        if result.replay is not None:
            payload["replay"] = result.replay.as_dict()
        if telemetry_on:
            payload["telemetry"] = {
                "spans": result.telemetry.span_counts(),
                "dropped_spans": result.telemetry.dropped_spans,
            }
        if path_report is not None:
            payload["critical_path"] = path_report.as_dict()
        if args.bench:
            payload["bench"] = bench_stats
        print(json.dumps(payload, indent=2))
    else:
        print(verdict.describe())
        if faults_active:
            print(result.fault_stats.describe())
        if result.noc_stats is not None:
            print(result.noc_stats.describe())
        print()
        print(result.utilization.describe())
        if result.replay is not None:
            print()
            print(result.replay.describe())
        if args.perfetto:
            print(f"wrote Perfetto trace to {args.perfetto}")
        if args.spans:
            print(f"wrote span stream to {args.spans}")
        if path_report is not None:
            print()
            print(path_report.describe())
        if args.bench:
            print()
            print(
                f"bench: {sim_elapsed * 1e3:.1f} ms wall, "
                f"{bench_stats['events']} events, "
                f"{bench_stats['events_per_s']:,.0f} events/s, "
                f"peak heap {bench_stats['peak_heap']}"
            )
    if args.strict:
        # CI gate: nonzero on any real-time violation or fault the
        # recovery policy could not absorb.
        ok = (verdict.meets and not result.violations
              and result.fault_stats.unrecovered == 0)
        return 0 if ok else 1
    return 0 if verdict.meets else 1


def cmd_dot(args: argparse.Namespace) -> int:
    bench = benchmark(args.key)
    if args.compiled or args.mapped:
        compiled = compile_application(
            bench.application(), _processor(args),
            CompileOptions(mapping=args.mapping),
        )
        print(to_dot(compiled.graph,
                     mapping=compiled.mapping if args.mapped else None))
    else:
        print(to_dot(bench.application()))
    return 0


def cmd_schedule(args: argparse.Namespace) -> int:
    from .analysis import build_static_schedule

    _, compiled = _compile(args.key, args)
    schedule = build_static_schedule(compiled)
    if args.json:
        print(json.dumps({"benchmark": args.key, **schedule.as_dict()},
                         indent=2))
    else:
        print(schedule.describe())
    return 0 if schedule.admissible else 1


def cmd_energy(args: argparse.Namespace) -> int:
    from .machine import ManyCoreChip, anneal_placement, estimate_energy

    bench, compiled = _compile(args.key, args)
    result = simulate(compiled, SimulationOptions(frames=args.frames))
    placement = None
    if args.place:
        chip = ManyCoreChip(cols=args.mesh, rows=args.mesh,
                            processor=compiled.processor)
        placement = anneal_placement(
            compiled.mapping, compiled.dataflow, chip, seed=0
        )
        print(f"annealed placement: {placement.improvement:.2f}x better "
              "than row-major")
    report = estimate_energy(
        result, compiled.mapping, compiled.dataflow,
        processor=compiled.processor, placement=placement,
    )
    print(report.describe())
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from .sim import gantt

    bench, compiled = _compile(args.key, args)
    result = simulate(
        compiled, SimulationOptions(frames=args.frames, trace=True)
    )
    if not result.trace:
        # An empty Gantt renders as blank rows and looks like success;
        # say why there is nothing to chart and fail loudly instead.
        print(
            f"error: benchmark {bench.key!r} recorded no firings with "
            f"--frames {args.frames}; nothing to chart",
            file=sys.stderr,
        )
        return 1
    print(gantt(result.trace, width=args.width))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from .obs import (
        analyze_critical_path,
        timeline,
        write_perfetto,
        write_spans_jsonl,
    )

    bench, compiled = _compile(args.key, args)
    fault_spec = _fault_spec(args)
    noc = _noc_model(args, compiled)
    result = simulate(
        compiled,
        SimulationOptions(frames=args.frames, faults=fault_spec,
                          telemetry=True, noc=noc),
    )
    tele = result.telemetry
    report = analyze_critical_path(tele)
    if args.perfetto:
        write_perfetto(tele, args.perfetto, app=bench.key)
    if args.spans:
        write_spans_jsonl(tele, args.spans)
    if args.json:
        payload = {
            "benchmark": bench.key,
            "frames": args.frames,
            "makespan_s": result.makespan_s,
            "telemetry": tele.as_dict(),
            "critical_path": report.as_dict(),
        }
        if result.noc_stats is not None:
            payload["noc"] = result.noc_stats.as_dict(result.makespan_s)
        print(json.dumps(payload, indent=2))
        return 0
    counts = tele.span_counts()
    print(
        f"benchmark {bench.key} ({bench.title}): "
        f"{result.makespan_s * 1e3:.3f} ms makespan, "
        + ", ".join(f"{v} {k}" for k, v in counts.items())
    )
    if result.noc_stats is not None:
        print(result.noc_stats.describe())
    rows = [
        (labels.get("kernel", ""), h)
        for name, labels, h in tele.metrics.histograms()
        if name == "firing_latency_s"
    ]
    rows.sort(key=lambda kv: (-kv[1].total, kv[0]))
    if rows:
        print("kernel firing latency (firings / mean / p99):")
        for kernel, h in rows[:8]:
            print(f"  {kernel:<24} {h.count:>7} / {h.mean * 1e6:9.2f} us "
                  f"/ {h.quantile(0.99) * 1e6:9.2f} us")
    print()
    print(report.describe())
    if args.timeline:
        print()
        print(timeline(tele, width=args.width))
    if args.perfetto:
        print(f"wrote Perfetto trace to {args.perfetto}")
    if args.spans:
        print(f"wrote span stream to {args.spans}")
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    as_json = getattr(args, "json", False)
    if not as_json:
        print(f"{'bench':>6} | {'1:1 util':>9} | {'GM util':>9} | gain | meets")
    gains = []
    rows = []
    for bench in benchmark_suite():
        utils = {}
        counts = {}
        meets = True
        for mapping in ("1:1", "greedy"):
            compiled = compile_application(
                bench.application(), _processor(args),
                CompileOptions(mapping=mapping),
            )
            result = simulate(compiled, SimulationOptions(frames=bench.frames))
            verdict = result.verdict(
                bench.output, rate_hz=bench.rate_hz,
                chunks_per_frame=bench.chunks_per_frame, frames=bench.frames,
            )
            utils[mapping] = result.utilization.average_utilization
            counts[mapping] = compiled.processor_count
            meets = meets and verdict.meets
        gain = utils["greedy"] / utils["1:1"]
        gains.append(gain)
        if as_json:
            rows.append({
                "benchmark": bench.key,
                "title": bench.title,
                "rate_hz": bench.rate_hz,
                "utilization_1to1": utils["1:1"],
                "utilization_greedy": utils["greedy"],
                "processors_1to1": counts["1:1"],
                "processors_greedy": counts["greedy"],
                "gain": gain,
                "meets": meets,
            })
        else:
            print(f"{bench.key:>6} | {utils['1:1']:>9.1%} | "
                  f"{utils['greedy']:>9.1%} | {gain:.2f}x | "
                  f"{'yes' if meets else 'NO'}")
    geomean = statistics.geometric_mean(gains)
    if as_json:
        print(json.dumps({"rows": rows, "geometric_mean_gain": geomean},
                         indent=2))
    else:
        print(f"geometric-mean improvement: {geomean:.2f}x")
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    from .explore import (
        ResultCache,
        ResultStore,
        SweepOptions,
        load_spec,
        render_event,
        run_sweep,
    )

    spec = load_spec(args.spec)
    jobs = spec.jobs()
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    store = ResultStore(args.store) if args.store else None
    resume = None
    if args.resume:
        from .explore import completed_records

        # Resume from a previous run's JSONL store: every fingerprint
        # with a successful record there is skipped, exactly like a
        # cache hit — the same logic the service applies (see
        # docs/serving.md on resumable sweeps).
        resume = completed_records(ResultStore(args.resume))
    quiet = args.json or args.quiet
    result = run_sweep(
        jobs,
        cache=cache,
        store=store,
        options=SweepOptions(workers=args.workers, retries=args.retries),
        on_event=None if quiet else render_event,
        resume=resume,
    )
    report = result.report()
    if args.json:
        print(json.dumps({
            "sweep": result.sweep,
            "jobs": len(jobs),
            "elapsed_s": result.elapsed_s,
            "cache_hits": result.cache_hits,
            **report.as_dict(),
        }, indent=2))
    else:
        print()
        print(report.describe())
    return 0 if result.failed == 0 else 1


def _serve_client(args: argparse.Namespace):
    from .serve import ServiceClient

    return ServiceClient(args.url)


#: Envelope types after which the watch progress line is re-printed
#: (the job-terminal events plus the run's own terminal event).
_PROGRESS_EVENTS = frozenset(
    {"JobCacheHit", "JobFinished", "JobFailed", "RunFinished"}
)


def _stream_run(client, run_id: str, as_json: bool) -> int:
    """Render a run's event stream; exit 0 iff it ends ``succeeded``.

    Uses the self-healing :meth:`ServiceClient.watch`: a connection
    reset mid-run resumes from the last envelope seen instead of
    silently truncating the stream (and misreporting the exit code).
    Human output folds the same envelopes through the dashboard's
    :class:`~repro.dash.MetricsAggregator` and prints a progress line
    (``done/total jobs, pct, jobs/s``) after each terminal job event —
    the fold, not raw envelope arithmetic, decides the numbers.
    """
    from .serve import decode_event

    aggregator = None
    if not as_json:
        from .dash import MetricsAggregator

        aggregator = MetricsAggregator()
    started = time.monotonic()
    status = None
    for envelope in client.watch(run_id):
        if as_json:
            print(json.dumps(envelope))
        else:
            aggregator.envelope(envelope)
            try:
                print(decode_event(envelope).describe())
            except ValueError:
                # Newer service, unknown event type: show, don't die.
                print(json.dumps(envelope))
            if envelope.get("event") in _PROGRESS_EVENTS:
                line = aggregator.progress_line(
                    run_id, elapsed_s=time.monotonic() - started,
                )
                if line is not None:
                    print(f"  {line}")
        if envelope.get("event") == "RunFinished":
            status = envelope.get("status")
    return 0 if status == "succeeded" else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .serve import SERVICE_OPTIONS, run_service

    chaos = None
    if args.chaos is not None:
        from .chaos import load_chaos_spec

        chaos = load_chaos_spec(args.chaos)
        if args.chaos_seed is not None:
            chaos = chaos.with_seed(args.chaos_seed)
    return run_service(
        host=args.host,
        port=args.port,
        data_dir=args.data_dir,
        config=replace(
            SERVICE_OPTIONS,
            workers=args.workers,
            retries=args.retries,
            retry_timeouts=args.retry_timeouts,
            heartbeat_s=args.heartbeat_s,
            quarantine_after=args.quarantine_after,
        ),
        chaos=chaos,
        dashboard=args.dashboard,
    )


def cmd_dash(args: argparse.Namespace) -> int:
    from .dash import MetricsAggregator, serve_dashboard

    if args.snapshot:
        aggregator = MetricsAggregator.from_data_dir(args.data_dir)
        print(aggregator.snapshot().canonical())
        return 0
    return serve_dashboard(args.data_dir, host=args.host, port=args.port)


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run the chaos scenario matrix against live service instances."""
    # Lazy: the suite drives the full serve stack and is only needed
    # here (keeping ``import repro.chaos`` cheap and cycle-free).
    from .chaos.suite import run_matrix, write_report

    names = args.scenarios.split(",") if args.scenarios else None
    try:
        report = run_matrix(
            args.data_dir, seed=args.seed, names=names,
            announce=None if args.json else print,
        )
    except ValueError as exc:  # unknown scenario name
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.report is not None:
        write_report(report, args.report)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, default=str))
    else:
        print()
        print(report.describe())
    return 0 if report.ok else 1


def cmd_submit(args: argparse.Namespace) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            print(f"error: sweep spec {args.spec!r} is not JSON: {exc}",
                  file=sys.stderr)
            return 2
    client = _serve_client(args)
    run = client.submit(spec, priority=args.priority, tenant=args.tenant)
    if args.json:
        # With --watch the stream itself is the machine-readable
        # output (it opens with the RunAccepted envelope).
        if not args.watch:
            print(json.dumps({"run": run}, indent=2))
            return 0
    else:
        print(f"accepted run {run['run']} ({run['name']!r}, "
              f"{run['total']} job(s), priority {run['priority']})")
    if args.watch:
        return _stream_run(client, run["run"], args.json)
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    return _stream_run(_serve_client(args), args.run, args.json)


def cmd_jobs(args: argparse.Namespace) -> int:
    runs = _serve_client(args).runs()
    if args.json:
        print(json.dumps({"runs": runs}, indent=2))
        return 0
    if not runs:
        print("no runs")
        return 0
    print(f"{'run':>12} | {'name':>16} | {'state':>9} | {'status':>9} "
          f"| done | cached")
    for run in runs:
        print(f"{run['run']:>12} | {run['name']:>16} "
              f"| {run['state']:>9} | {run.get('status') or '-':>9} "
              f"| {run['done']}/{run['total']} | {run['cache_hits']}")
    return 0


def cmd_cancel(args: argparse.Namespace) -> int:
    run = _serve_client(args).cancel(args.run)
    if args.json:
        print(json.dumps({"run": run}, indent=2))
    else:
        print(f"run {run['run']}: {run['state']}"
              + (f" ({run['status']})" if run.get("status") else ""))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Block-parallel compiler and simulator (ICPP 2010 repro)",
    )
    parser.add_argument("--clock-mhz", type=float, default=20.0,
                        help="processing-element clock (MHz)")
    parser.add_argument("--memory-words", type=int,
                        default=BENCHMARK_PROCESSOR.memory_words,
                        help="processing-element local store (words)")
    parser.add_argument("--mapping", choices=("greedy", "1:1"),
                        default="greedy")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the Figure 13 benchmarks")

    p = sub.add_parser("describe", help="print a benchmark's logical graph")
    p.add_argument("key")

    p = sub.add_parser("compile", help="compile a benchmark and report")
    p.add_argument("key")

    p = sub.add_parser("simulate", help="compile and simulate a benchmark")
    p.add_argument("key")
    p.add_argument("--frames", type=int, default=4)
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.add_argument("--bench", action="store_true",
                   help="print simulator timing (wall, events/s, peak heap)")
    p.add_argument("--replay", action=argparse.BooleanOptionalAction,
                   default=False,
                   help="detect the periodic steady state and replay whole "
                        "periods as a quasi-static schedule (bit-identical "
                        "results; see docs/performance.md)")
    p.add_argument("--batch", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="with --replay, execute a period's vectorizable "
                        "kernel firings as one batched call per kernel "
                        "(bit-identical results; --no-batch forces "
                        "per-firing replay)")
    p.add_argument("--faults", default=None, metavar="FILE",
                   help="inject a fault scenario (JSON FaultSpec file; "
                        "see docs/robustness.md)")
    p.add_argument("--fault-seed", type=int, default=None, dest="fault_seed",
                   help="override the fault spec's seed")
    p.add_argument("--spares", type=int, default=0,
                   help="spare processing elements reserved for migration")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero on real-time violations or "
                        "unrecovered faults (CI gate)")
    p.add_argument("--perfetto", default=None, metavar="OUT",
                   help="record telemetry and write a Perfetto/Chrome "
                        "trace_event JSON file (load at ui.perfetto.dev)")
    p.add_argument("--spans", default=None, metavar="OUT",
                   help="record telemetry and write the span stream "
                        "as JSON lines")
    p.add_argument("--critical-path", action="store_true",
                   dest="critical_path",
                   help="record telemetry and report the critical path")
    _add_noc_args(p)

    p = sub.add_parser("dot", help="export a benchmark graph as Graphviz dot")
    p.add_argument("key")
    p.add_argument("--compiled", action="store_true",
                   help="export the compiled (transformed) graph")
    p.add_argument("--mapped", action="store_true",
                   help="cluster kernels by processing element (Figure 12)")

    p = sub.add_parser("schedule",
                       help="static SDF-style schedule and admission test")
    p.add_argument("key")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")

    p = sub.add_parser("energy", help="energy estimate for a benchmark")
    p.add_argument("key")
    p.add_argument("--frames", type=int, default=4)
    p.add_argument("--place", action="store_true",
                   help="anneal a placement first (network energy uses it)")
    p.add_argument("--mesh", type=int, default=8, help="mesh side length")

    p = sub.add_parser("trace",
                       help="simulate and print a text Gantt chart")
    p.add_argument("key")
    p.add_argument("--frames", type=int, default=1)
    p.add_argument("--width", type=int, default=100)

    p = sub.add_parser(
        "profile",
        help="simulate with full telemetry: metrics, critical path, hints",
    )
    p.add_argument("key")
    p.add_argument("--frames", type=int, default=4)
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.add_argument("--perfetto", default=None, metavar="OUT",
                   help="write a Perfetto/Chrome trace_event JSON file")
    p.add_argument("--spans", default=None, metavar="OUT",
                   help="write the span stream as JSON lines")
    p.add_argument("--timeline", action="store_true",
                   help="print the text Gantt + channel occupancy view")
    p.add_argument("--width", type=int, default=100)
    p.add_argument("--faults", default=None, metavar="FILE",
                   help="inject a fault scenario (JSON FaultSpec file)")
    p.add_argument("--fault-seed", type=int, default=None, dest="fault_seed",
                   help="override the fault spec's seed")
    p.add_argument("--spares", type=int, default=0,
                   help="spare processing elements reserved for migration")
    _add_noc_args(p)

    p = sub.add_parser("suite", help="run the Figure 13 table")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")

    p = sub.add_parser(
        "explore",
        help="run a design-space sweep spec through the parallel engine",
    )
    p.add_argument("spec", help="path to a sweep spec JSON file")
    p.add_argument("--workers", type=int, default=0,
                   help="worker processes (0 = serial in-process, "
                        "-1 = one per CPU)")
    p.add_argument("--retries", type=int, default=2,
                   help="extra attempts for transient job failures")
    p.add_argument("--cache-dir", default=".explore-cache",
                   help="content-addressed result cache directory")
    p.add_argument("--no-cache", action="store_true",
                   help="execute every job even when cached")
    p.add_argument("--store", default=None,
                   help="append terminal records to this JSONL file")
    p.add_argument("--resume", default=None, metavar="STORE",
                   help="skip jobs with a successful record in this "
                        "JSONL store from an earlier run (failures "
                        "retry); composes with the cache")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-job progress events")
    p.add_argument("--json", action="store_true",
                   help="machine-readable summary output")

    from .serve import DEFAULT_PORT, SERVICE_OPTIONS

    p = sub.add_parser(
        "serve",
        help="run the resident multi-tenant sweep service "
             "(see docs/serving.md)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=DEFAULT_PORT,
                   help="listening port (0 = ephemeral)")
    p.add_argument("--data-dir", default=".repro-serve", dest="data_dir",
                   help="durable state: sharded cache, JSONL store, "
                        "run registry, event logs")
    p.add_argument("--workers", type=int, default=SERVICE_OPTIONS.workers,
                   help="concurrent jobs across all runs (each in its "
                        "own crash-isolated worker process)")
    p.add_argument("--retries", type=int, default=SERVICE_OPTIONS.retries,
                   help="extra attempts for transient job failures")
    p.add_argument("--retry-timeouts", action="store_true",
                   dest="retry_timeouts",
                   help="retry timed-out jobs (default: terminal)")
    p.add_argument("--heartbeat-s", type=float, default=None,
                   dest="heartbeat_s", metavar="SECONDS",
                   help="watchdog: kill workers whose heartbeat file goes "
                        "stale for this long (default: off)")
    p.add_argument("--quarantine-after", type=int,
                   default=SERVICE_OPTIONS.quarantine_after,
                   dest="quarantine_after", metavar="N",
                   help="park a job fingerprint after N consecutive "
                        "crashes instead of retrying forever (0 = off)")
    p.add_argument("--chaos", default=None, metavar="FILE",
                   help="arm deterministic fault injection from a "
                        "ChaosSpec JSON file (see docs/chaos.md)")
    p.add_argument("--chaos-seed", type=int, default=None,
                   dest="chaos_seed", metavar="N",
                   help="override the chaos spec's seed")
    p.add_argument("--dashboard", action="store_true",
                   help="aggregate live metrics and serve GET /v1/metrics "
                        "+ the /v1/dashboard web page (see "
                        "docs/dashboard.md)")

    p = sub.add_parser(
        "dash",
        help="serve the metrics dashboard over a sweep data dir, "
             "no scheduler needed (see docs/dashboard.md)",
    )
    p.add_argument("--data-dir", default=".repro-serve", dest="data_dir",
                   help="service data dir to aggregate (event logs + "
                        "JSONL store)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="listening port (0 = ephemeral)")
    p.add_argument("--snapshot", action="store_true",
                   help="print the canonical JSON metrics snapshot and "
                        "exit instead of serving")

    p = sub.add_parser(
        "chaos",
        help="run the fault-injection scenario matrix against live "
             "service instances (see docs/chaos.md)",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="chaos seed; the whole matrix is bit-reproducible "
                        "per (scenario, seed)")
    p.add_argument("--scenarios", default="",
                   help="comma-separated scenario names (default: all)")
    p.add_argument("--data-dir", default=".repro-chaos", dest="data_dir",
                   help="scratch root; each scenario gets a subdirectory "
                        "with its service data dir and event logs")
    p.add_argument("--report", default=None, metavar="FILE",
                   help="also write the full report as JSON to FILE")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report on stdout")

    def _client_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--url", default=f"http://127.0.0.1:{DEFAULT_PORT}",
                       help="service base URL")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")

    p = sub.add_parser("submit", help="submit a sweep spec to the service")
    p.add_argument("spec", help="path to a sweep spec JSON file")
    p.add_argument("--priority", type=int, default=0,
                   help="higher runs first on the shared queue")
    p.add_argument("--tenant", default="",
                   help="tenant label recorded on the run and its records")
    p.add_argument("--watch", action="store_true",
                   help="stream the run's events until its terminal event")
    _client_args(p)

    p = sub.add_parser("watch", help="stream a run's typed progress events")
    p.add_argument("run", help="run id (from submit or jobs)")
    _client_args(p)

    p = sub.add_parser("jobs", help="list the service's runs")
    _client_args(p)

    p = sub.add_parser("cancel", help="cancel a run on the service")
    p.add_argument("run", help="run id (from submit or jobs)")
    _client_args(p)
    return parser


_COMMANDS = {
    "list": cmd_list,
    "describe": cmd_describe,
    "compile": cmd_compile,
    "simulate": cmd_simulate,
    "dot": cmd_dot,
    "schedule": cmd_schedule,
    "trace": cmd_trace,
    "profile": cmd_profile,
    "energy": cmd_energy,
    "suite": cmd_suite,
    "explore": cmd_explore,
    "serve": cmd_serve,
    "dash": cmd_dash,
    "chaos": cmd_chaos,
    "submit": cmd_submit,
    "watch": cmd_watch,
    "jobs": cmd_jobs,
    "cancel": cmd_cancel,
}


def main(argv: list[str] | None = None) -> int:
    from .errors import BlockParallelError

    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except KeyError as exc:  # unknown benchmark key
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # output piped into head/less and closed
        return 0
    except (OSError, BlockParallelError) as exc:
        # unreadable sweep spec, malformed spec, cache I/O failure, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
