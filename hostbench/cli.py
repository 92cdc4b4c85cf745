"""``cli``: a closed loop of cold ``python -m repro simulate KEY --json``.

One caller runs one subprocess at a time over the 12 suite keys; a pass
is all 12 in a seeded order.  Each call's printed ``verdict``,
``utilization``, ``processor_count`` and ``kernel_count`` must equal the
seed loop's.  Interpreter start and ``import repro.cli`` sit on every
op's path here, and nowhere else in the benchmark.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import sys

from . import inputs, oracle
from .harness import Ctx, Op, parse_importtime, run_child

#: Nominal host seconds of one pass of 12 calls; a run makes enough
#: whole passes to fill --seconds at this pace.
NOMINAL_PASS_S = 14.0
#: Two passes give 24 samples, enough for a tail with 10 beyond it.
MIN_PASSES = 2

CHECKED_FIELDS = ("processor_count", "kernel_count", "verdict",
                  "utilization")


class CliWorkload:
    def __init__(self, ctx: Ctx) -> None:
        from repro.apps.suite import benchmark

        self.ctx = ctx
        for key in inputs.CLI_KEYS:
            oracle.check_app(ctx.oracle["cli"][key],
                             benchmark(key).application(), f"cli {key}")
        self.peak_rss = 0.0
        self.calls = 0

    def plan(self, pass_no: int) -> list[str]:
        rng = random.Random(self.ctx.seed)
        passes = max(MIN_PASSES, math.ceil(self.ctx.seconds
                                           / NOMINAL_PASS_S))
        return [key for _ in range(passes)
                for key in inputs.shuffled(inputs.CLI_KEYS, rng)]

    def op(self, key: str, tracer=None) -> Op:
        entry = self.ctx.oracle["cli"][key]
        self.calls += 1
        stderr = self.ctx.work / f"cli-{self.calls}.stderr"
        if tracer is None:
            argv = [sys.executable, "-m", "repro", "simulate", key, "--json"]
        else:
            spans_out = self.ctx.work / f"cli-{self.calls}.spans.json"
            argv = [sys.executable, "-X", "importtime",
                    str(self.ctx.root / "hostbench" / "cli_shim.py"),
                    str(spans_out), "simulate", key, "--json"]
        code, out, elapsed, rss = run_child(argv, self.ctx, stderr)
        self.peak_rss = max(self.peak_rss, rss)
        if code != 0:
            tail = stderr.read_text(errors="replace")[-300:]
            return Op(key, elapsed, entry["events"], "exit_code",
                      f"exit {code}: {tail}")
        try:
            printed = json.loads(out)
        except json.JSONDecodeError:
            return Op(key, elapsed, entry["events"], "stdout",
                      f"not JSON: {out[:120]!r}")
        if tracer is not None:
            self._record(tracer, key, elapsed, stderr, spans_out)
        got = {name: printed.get(name) for name in CHECKED_FIELDS}
        return Op(key, elapsed, entry["events"],
                  *oracle.compare(got, entry["expect"]))

    def _record(self, tracer, key, elapsed, stderr, spans_out) -> None:
        """Fold the child's import split and spans under one op span."""
        layers = parse_importtime(stderr.read_text(errors="replace"))
        op = tracer.add("op", elapsed, input=key)
        tracer.add("import", layers["import.total_s"], op, layers=layers)
        for span in json.loads(spans_out.read_text())["spans"]:
            child = tracer.add(span["name"],
                               (span["end_ns"] - span["start_ns"]) / 1e9,
                               op, engine_events=span.get("engine_events", 0))
            child["leaf"] = span["leaf"]

    def peak_rss_mib(self) -> float:
        return self.peak_rss

    def close(self) -> None:
        pass

    def traced_patches(self, tracer) -> list:
        return []

    def layer_metrics(self, tracer, ops: list[Op]) -> dict:
        from .sim import simulation_layers

        imports = [s["layers"] for s in tracer.spans if s["name"] == "import"]
        metrics = simulation_layers(tracer, sum(op.events for op in ops))
        metrics.update({key: statistics.median(i[key] for i in imports)
                        for key in imports[0]})
        return metrics

    def aliases(self, metrics: dict, ops: list[Op]) -> dict:
        return {"cli_p50_s": metrics["op_p50_s"],
                "cli_tail_s": metrics["op_tail_s"]}
