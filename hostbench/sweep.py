"""``sweep``: the two sweep front ends over fresh ``image_pipeline`` points.

A ``repro serve`` subprocess (its default 2 workers) and one client on
one connection at a time.  One op is a cycle of four phases, each a sweep
of ``SWEEP_POINTS_PER_RUN`` points drawn without replacement from the
seeded candidate grid, so every cold job misses the cache:

1. ``serve.cold``: submit a spec of fresh points, ``watch`` until
   ``RunFinished``;
2. ``serve.warm``: resubmit the finished spec, which is all cache hits;
3. ``explore.cold``: in-process ``run_sweep(workers=2)`` over other fresh
   points, with the benchmark's own cache directory and store;
4. ``explore.warm``: the same jobs again, all cache hits.

Every record of every phase, cache hits included, must carry the seed
loop's ``processor_count``, ``meets`` and ``makespan_s``.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

from . import inputs, oracle
from .harness import Ctx, Op, free_port, kill_group, proc_peak_rss_mib, ratio

#: Nominal host seconds of one four-phase cycle; a run makes enough
#: cycles to fill --seconds at this pace.
NOMINAL_CYCLE_S = 0.5
#: At least this many cycles, so the tail has 10 samples beyond it.
MIN_CYCLES = 24
#: Explore runs the pool the service uses by default.
EXPLORE_WORKERS = 2
CHECKED_STATS = ("processor_count", "meets", "makespan_s")
BOOT_TIMEOUT_S = 60.0


class Server:
    """One ``repro serve`` child on a free port over a fresh data dir."""

    def __init__(self, ctx: Ctx, name: str) -> None:
        from repro.serve.client import ServiceClient, ServiceUnreachable

        self.data = ctx.scratch(name)
        self.store_path = self.data / "results.jsonl"
        self.store_offset = 0
        port = free_port()
        self.log_path = ctx.work / f"{name}.log"
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", str(port),
                 "--data-dir", str(self.data)],
                cwd=ctx.root, env=ctx.env, stdout=log,
                stderr=subprocess.STDOUT, start_new_session=True,
            )
        self.client = ServiceClient(f"http://127.0.0.1:{port}", retries=0)
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        try:
            while True:
                if self.proc.poll() is not None:
                    raise RuntimeError(f"repro serve exited during boot: "
                                       f"{self.log_tail()}")
                try:
                    self.client.health()
                    break
                except ServiceUnreachable:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.01)
        except BaseException:
            kill_group(self.proc)
            raise

    def log_tail(self) -> str:
        return self.log_path.read_text(errors="replace")[-400:]

    def new_records(self) -> list[dict]:
        """Store lines appended since the last call."""
        with open(self.store_path, "rb") as fh:
            fh.seek(self.store_offset)
            raw = fh.read()
        end = raw.rfind(b"\n") + 1
        self.store_offset += end
        return [json.loads(line) for line in raw[:end].splitlines() if line]

    def peak_rss_mib(self) -> float:
        return proc_peak_rss_mib(self.proc.pid)

    def stop(self) -> None:
        """Shut down through ``POST /v1/shutdown`` and check the exit status."""
        try:
            self.client.shutdown(drain=True)
            code = self.proc.wait(timeout=30)
            if code != 0:
                raise RuntimeError(f"repro serve exited with {code}: "
                                   f"{self.log_tail()}")
        finally:
            if self.proc.poll() is None:
                kill_group(self.proc)


def spec_for(name: str, points: list[dict]) -> dict:
    return {"name": name, "app": "image_pipeline",
            "points": [dict(p) for p in points], "timeout_s": 120}


def record_point_id(record: dict) -> str:
    job = record["job"]
    params = job["params"]
    return inputs.point_id({
        "width": params["width"], "height": params["height"],
        "rate_hz": params["rate_hz"],
        "mapping": job["options"].get("mapping", "greedy"),
        "frames": job["frames"],
    })


def record_stats(records: list[dict]) -> dict:
    """Checked stats by grid point; a failure record checks as its kind."""
    return oracle.canonical({
        record_point_id(r): ({k: r["stats"].get(k) for k in CHECKED_STATS}
                             if r.get("kind") == "result" else r.get("kind"))
        for r in records
    })


def expected_stats(points: list[dict], expected: dict) -> dict:
    return {inputs.point_id(p): expected[inputs.point_id(p)]["expect"]
            for p in points}


class SweepWorkload:
    def __init__(self, ctx: Ctx) -> None:
        from repro.explore import (
            ResultCache,
            ResultStore,
            SweepOptions,
            SweepSpec,
            expand,
            run_sweep,
        )

        self.ctx = ctx
        self.SweepSpec, self.expand, self.run_sweep = SweepSpec, expand, run_sweep
        self.options = SweepOptions(workers=EXPLORE_WORKERS)
        self.cache = ResultCache(ctx.scratch("explore-cache"))
        self.store = ResultStore(ctx.work / "explore-results.jsonl")
        self.ResultCache, self.ResultStore = ResultCache, ResultStore
        self.points = inputs.shuffled(inputs.sweep_points(),
                                      random.Random(ctx.seed))
        self.drawn = 0
        self.server = Server(ctx, "serve")

    def plan(self, pass_no: int) -> list[tuple]:
        per_cycle = 2 * inputs.SWEEP_POINTS_PER_RUN
        cycles = max(MIN_CYCLES, math.ceil(self.ctx.seconds
                                           / NOMINAL_CYCLE_S))
        cycles = min(cycles, (len(self.points) - self.drawn) // per_cycle)
        plan = []
        for i in range(cycles):
            fresh = self.points[self.drawn:self.drawn + per_cycle]
            self.drawn += per_cycle
            half = inputs.SWEEP_POINTS_PER_RUN
            plan.append((f"p{pass_no}c{i}", fresh[:half], fresh[half:]))
        return plan

    # -- one phase each -------------------------------------------------

    def _serve_phase(self, name: str, spec: dict, tracer) -> dict:
        client = self.server.client
        started = time.perf_counter()
        run_id = client.submit(spec)["run"]
        submitted = time.perf_counter()
        first = None
        events = []
        for envelope in client.watch(run_id):
            if first is None:
                first = time.perf_counter()
            events.append(envelope)
        elapsed = time.perf_counter() - started
        finished = events[-1]
        info = {
            "elapsed_s": elapsed, "run": run_id,
            "submit_s": submitted - started,
            "first_event_s": first - started,
            "finish_lag_s": elapsed - finished["elapsed_s"],
            "status": finished["status"], "total": finished["total"],
            "cache_hits": finished["cache_hits"],
            "job_exec_s": sum(e.get("elapsed_s", 0.0) for e in events
                              if e["event"] == "JobFinished"),
            "retries": sum(1 for e in events if e["event"] == "JobRetried"),
        }
        if tracer is not None:
            tracer.add(name, elapsed, tracer.current(), **info)
        return info

    def _explore_phase(self, name: str, jobs: list, tracer) -> tuple:
        if tracer is None:
            started = time.perf_counter()
            result = self.run_sweep(jobs, cache=self.cache, store=self.store,
                                    options=self.options)
            return time.perf_counter() - started, result
        with tracer.span(name) as span:
            result = self.run_sweep(jobs, cache=self.cache, store=self.store,
                                    options=self.options)
        executed = [r["stats"] for r in result.records
                    if r["kind"] == "result" and not r.get("cache_hit")]
        span.update(jobs=len(jobs), cache_hits=result.cache_hits,
                    job_exec_s=sum(s["elapsed_s"] for s in executed),
                    job_sim_s=sum(s["sim_elapsed_s"] for s in executed))
        return (span["end_ns"] - span["start_ns"]) / 1e9, result

    # -- the op -----------------------------------------------------------

    def op(self, item: tuple, tracer=None) -> Op:
        label, serve_points, explore_points = item
        expected = {inputs.point_id(p): self._entry(p)
                    for p in serve_points + explore_points}
        spec = spec_for(f"hb-serve-{label}", serve_points)
        jobs = self.expand(self.SweepSpec.from_dict(
            spec_for(f"hb-explore-{label}", explore_points)))

        traced = tracer.span("op", input=label) if tracer else nullcontext()
        with traced as op_span:
            cold = self._serve_phase("serve.cold", spec, tracer)
            warm = self._serve_phase("serve.warm", spec, tracer)
            explore_cold_s, explore_cold = self._explore_phase(
                "explore.cold", jobs, tracer)
            explore_warm_s, explore_warm = self._explore_phase(
                "explore.warm", jobs, tracer)
        phases = {"serve.cold": cold["elapsed_s"],
                  "serve.warm": warm["elapsed_s"],
                  "explore.cold": explore_cold_s,
                  "explore.warm": explore_warm_s}
        elapsed = (sum(phases.values()) if tracer is None
                   else (op_span["end_ns"] - op_span["start_ns"]) / 1e9)
        events = sum(entry["events"] for entry in expected.values())

        # A served cache hit stores the cached record (run id included)
        # plus ``cache_hit``, so the flag, not the run id, tells them apart.
        records = self.server.new_records()
        n = len(serve_points)
        checks = []  # (phase, observed, expected)
        for phase, info, hits in (("serve.cold", cold, 0),
                                  ("serve.warm", warm, n)):
            recs = [r for r in records
                    if bool(r.get("cache_hit")) == bool(hits)]
            checks.append((phase,
                           {"status": info["status"], "total": info["total"],
                            "cache_hits": info["cache_hits"],
                            "records": record_stats(recs)},
                           {"status": "succeeded", "total": n,
                            "cache_hits": hits,
                            "records": expected_stats(serve_points, expected)}))
        for phase, result, hits in (("explore.cold", explore_cold, 0),
                                    ("explore.warm", explore_warm, n)):
            checks.append((phase,
                           {"succeeded": result.succeeded,
                            "cache_hits": result.cache_hits,
                            "records": record_stats(result.records)},
                           {"succeeded": n, "cache_hits": hits,
                            "records": expected_stats(explore_points,
                                                      expected)}))
        path, detail = None, ""
        for phase, got, want in checks:
            path, detail = oracle.compare(got, want)
            if path is not None:
                path = f"{phase}.{path}"
                break
        phases["jobs"] = n
        return Op(label, elapsed, events, path, detail, phases)

    def _entry(self, point: dict) -> dict:
        pid = inputs.point_id(point)
        entry = self.ctx.oracle["sweep"][pid]
        oracle.check_app(entry, oracle.sweep_job(point).build_app(),
                         f"sweep {pid}")
        return entry

    # -- reporting --------------------------------------------------------

    def peak_rss_mib(self) -> float:
        return self.server.peak_rss_mib()

    def close(self) -> None:
        self.server.stop()

    def traced_patches(self, tracer) -> list:
        return [
            tracer.patch(self.ResultCache, "get", "explore.cache_get"),
            tracer.patch(self.ResultCache, "put", "explore.cache_put"),
            tracer.patch(self.ResultStore, "append", "explore.store_append"),
        ]

    def layer_metrics(self, tracer, ops: list[Op]) -> dict:
        def spans(name):
            return [s for s in tracer.spans if s["name"] == name]

        def seconds(span):
            return (span["end_ns"] - span["start_ns"]) / 1e9

        serve = spans("serve.cold") + spans("serve.warm")
        explore_cold, explore_warm = spans("explore.cold"), spans("explore.warm")
        explore = explore_cold + explore_warm
        job_exec_s = sum(s["job_exec_s"] for s in explore_cold)
        cold_s = sum(seconds(s) for s in explore_cold)
        return {
            "explore.job_exec_s": job_exec_s,
            "explore.job_sim_s": sum(s["job_sim_s"] for s in explore_cold),
            "explore.engine_overhead_s": cold_s - job_exec_s / EXPLORE_WORKERS,
            "explore.cache_get_s": tracer.leaf_total("explore.cache_get")[1],
            "explore.cache_put_s": tracer.leaf_total("explore.cache_put")[1],
            "explore.store_append_s":
                tracer.leaf_total("explore.store_append")[1],
            "explore.cache_hit_ratio": ratio(
                sum(s["cache_hits"] for s in explore),
                sum(s["jobs"] for s in explore)),
            "explore.cold_jobs_per_s": ratio(
                sum(s["jobs"] for s in explore_cold), cold_s),
            "explore.warm_run_p50_s": statistics.median(
                seconds(s) for s in explore_warm),
            "serve.submit_s": statistics.median(s["submit_s"] for s in serve),
            "serve.first_event_s": statistics.median(
                s["first_event_s"] for s in serve),
            "serve.finish_lag_s": statistics.median(
                s["finish_lag_s"] for s in spans("serve.cold")),
            "serve.job_exec_s": sum(s["job_exec_s"] for s in serve),
            "serve.cache_hit_ratio": ratio(sum(s["cache_hits"] for s in serve),
                                           sum(s["total"] for s in serve)),
            "serve.retries": sum(s["retries"] for s in serve),
            "serve.cold_jobs_per_s": ratio(
                sum(s["total"] for s in spans("serve.cold")),
                sum(seconds(s) for s in spans("serve.cold"))),
            "serve.cold_run_p50_s": statistics.median(
                seconds(s) for s in spans("serve.cold")),
            "serve.warm_run_p50_s": statistics.median(
                seconds(s) for s in spans("serve.warm")),
        }

    def aliases(self, metrics: dict, ops: list[Op]) -> dict:
        good = [op.phases for op in ops if op.ok]
        jobs = sum(p["jobs"] for p in good)
        return {
            "serve_cold_jobs_per_s": jobs / sum(p["serve.cold"] for p in good),
            "serve_cold_run_p50_s": statistics.median(
                p["serve.cold"] for p in good),
            "serve_warm_run_p50_s": statistics.median(
                p["serve.warm"] for p in good),
            "explore_cold_jobs_per_s": jobs / sum(p["explore.cold"]
                                                  for p in good),
            "explore_warm_run_p50_s": statistics.median(
                p["explore.warm"] for p in good),
        }
