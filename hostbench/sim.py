"""``sim`` and ``sim-replay``: in-process compile plus simulate.

One op is ``compile_application(mapping="greedy")`` followed by
``simulate(frames=bench.frames)`` on one (suite key, chip) input, with
``replay=True`` on ``sim-replay``.  A pass runs all 24 inputs in a seeded
order, so every run covers the same multiset of inputs.  Each op's full
canonical ``as_dict()`` must equal the seed loop's.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import time

from . import inputs, oracle
from .harness import Ctx, Op, own_peak_rss_mib, ratio

#: Nominal host seconds of one pass; a run makes enough whole passes to
#: fill --seconds at this pace.
NOMINAL_PASS_S = {"sim": 11.0, "sim-replay": 14.0}


class SimWorkload:
    def __init__(self, ctx: Ctx) -> None:
        from repro.apps.suite import benchmark
        from repro.machine import ProcessorSpec
        from repro.sim import SimulationOptions, simulate
        from repro.transform import CompileOptions, compile_application

        self.ctx = ctx
        self.replay = ctx.workload == "sim-replay"
        self.benchmark = benchmark
        self.SimulationOptions = SimulationOptions
        self.simulate = simulate
        self.compile_application = compile_application
        self.compile_options = CompileOptions(mapping="greedy")
        self.processors = {chip: ProcessorSpec(**spec)
                           for chip, spec in inputs.SIM_CHIPS.items()}
        # Warm-up: lazy imports and first-call costs land in set-up, not
        # in whichever input the seed happens to put first.
        self.op(("2", "64"))

    def plan(self, pass_no: int) -> list[tuple[str, str]]:
        """Whole passes over the 24 inputs; the seed only orders them."""
        rng = random.Random(self.ctx.seed)
        passes = max(1, math.ceil(self.ctx.seconds
                                  / NOMINAL_PASS_S[self.ctx.workload]))
        return [item for _ in range(passes)
                for item in inputs.shuffled(inputs.SIM_INPUTS, rng)]

    def op(self, item: tuple[str, str], tracer=None) -> Op:
        key, chip = item
        label = inputs.sim_id(key, chip)
        entry = self.ctx.oracle["sim"][label]
        bench = self.benchmark(key)
        app = bench.application()
        oracle.check_app(entry, app, label)
        options = self.SimulationOptions(frames=bench.frames,
                                         replay=self.replay)
        processor = self.processors[chip]
        gc.collect()
        if tracer is None:
            started = time.perf_counter()
            compiled = self.compile_application(app, processor,
                                                self.compile_options)
            result = self.simulate(compiled, options)
            elapsed = time.perf_counter() - started
        else:
            with tracer.span("op", input=label) as span:
                with tracer.span("transform.compile"):
                    compiled = self.compile_application(
                        app, processor, self.compile_options)
                tracer.instrument_kernels(compiled.graph)
                with tracer.span("sim.simulate") as sim_span:
                    result = self.simulate(compiled, options)
            elapsed = (span["end_ns"] - span["start_ns"]) / 1e9
            sim_span["engine_events"] = result.events_processed
            if result.replay is not None:
                sim_span["replay"] = result.replay.as_dict()
        return Op(label, elapsed, entry["events"], *oracle.compare(
            oracle.canonical(result.as_dict()), entry["as_dict"]))

    def peak_rss_mib(self) -> float:
        return own_peak_rss_mib()

    def close(self) -> None:
        pass

    def traced_patches(self, tracer) -> list:
        from repro.sim.batch import BatchPlan

        return [tracer.patch(BatchPlan, "prepare", "batch.prepare")]

    def layer_metrics(self, tracer, ops: list[Op]) -> dict:
        return simulation_layers(tracer, sum(op.events for op in ops))

    def aliases(self, metrics: dict, ops: list[Op]) -> dict:
        # Printed, not gated: it weights the small apps, whose op times
        # swing most with host load (see README.md).
        ns_per_event = statistics.median(op.elapsed_s * 1e9 / op.events
                                         for op in ops if op.ok)
        return {"sim_events_per_s": metrics["events_per_s"],
                "sim_ns_per_event_p50": ns_per_event}


def simulation_layers(tracer, oracle_events: int) -> dict:
    """Compile, simulator, kernel, replay and batch layers from the spans."""
    simulate_s = tracer.total_s("sim.simulate")
    firings, busy_s = tracer.leaf_total("kernels")
    prepare_calls, prepare_s = tracer.leaf_total("batch.prepare")
    _, apply_s = tracer.leaf_total("batch.apply")
    sims = [s for s in tracer.spans if s["name"] == "sim.simulate"]
    stats = [s["replay"] for s in sims if s.get("replay")]
    replayed = sum(s["events_replayed"] for s in stats)
    interpreted = sum(s["events_interpreted"] for s in stats)
    batched = sum(s["firings_batched"] for s in stats)
    scalar = sum(s["firings_scalar"] for s in stats)
    return {
        "transform.compile_s": tracer.total_s("transform.compile"),
        "transform.compile_calls": tracer.count("transform.compile"),
        "sim.simulate_s": simulate_s,
        "sim.calls": len(sims),
        "sim.engine_events": sum(s.get("engine_events", 0) for s in sims),
        "sim.oracle_events": oracle_events,
        "sim.dispatch_self_s": simulate_s - busy_s - prepare_s,
        "kernels.busy_s": busy_s,
        "kernels.firings": firings,
        "replay.events_replayed_ratio": ratio(replayed,
                                              replayed + interpreted),
        "replay.periods_compiled": sum(s["periods_compiled"] for s in stats),
        "replay.demotions": sum(sum(s["demotions"].values()) for s in stats),
        "batch.firings_batched_ratio": ratio(batched, batched + scalar),
        "batch.prepare_s": prepare_s,
        "batch.prepare_calls": prepare_calls,
        "batch.apply_s": apply_s,
    }
