"""Self-tests of the benchmark (not part of the repository's tier-1 suite).

Run from the repository root (about a minute)::

    python3 -m pytest hostbench/test_hostbench.py
"""

from __future__ import annotations

import copy
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hostbench import inputs, oracle, run  # noqa: E402
from hostbench.harness import Ctx, Op, e2e_metrics  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def oracle_data():
    return oracle.load()


def make_ctx(workload, oracle_data, seed=1):
    return Ctx.create(ROOT, workload, seed, 20, oracle_data)


def workload_for(ctx):
    return run.load_workload(ctx)


def test_bf64_replay_fails_at_events_and_the_other_23_pass(oracle_data):
    ctx = make_ctx("sim-replay", oracle_data)
    try:
        workload = workload_for(ctx)
        ops = [workload.op(item) for item in inputs.SIM_INPUTS]
    finally:
        ctx.cleanup()
    failed = {op.label: op.path for op in ops if not op.ok}
    assert failed == {"BF@64": "events"}
    assert len(ops) - len(failed) == 23
    assert ("sim-replay", "BF@64", "events") in run.KNOWN_DEFECTS


def corrupt(oracle_data, section, key, field):
    bad = copy.deepcopy(oracle_data)
    entry = bad[section][key]
    target = entry["as_dict"] if section == "sim" else entry["expect"]
    if field == "meets":
        target[field] = not target[field]
    else:
        target[field] = target[field] + 1
    return bad


def test_corrupted_sim_entry_fails_exactly_its_op(oracle_data):
    bad = corrupt(oracle_data, "sim", "2@64", "makespan_s")
    ctx = make_ctx("sim", bad)
    try:
        workload = workload_for(ctx)
        ops = [workload.op(item) for item in
               (("2", "64"), ("2", "256"), ("1", "64"))]
    finally:
        ctx.cleanup()
    assert [(op.label, op.path) for op in ops if not op.ok] == [
        ("2@64", "makespan_s")]


def test_corrupted_cli_entry_fails_exactly_its_op(oracle_data):
    bad = corrupt(oracle_data, "cli", "2", "kernel_count")
    ctx = make_ctx("cli", bad)
    try:
        workload = workload_for(ctx)
        ops = [workload.op(key) for key in ("2", "2F")]
    finally:
        ctx.cleanup()
    assert [(op.label, op.path) for op in ops if not op.ok] == [
        ("2", "kernel_count")]


def test_corrupted_sweep_entry_fails_exactly_its_op(oracle_data):
    ctx = make_ctx("sweep", oracle_data)
    workload = None
    try:
        workload = workload_for(ctx)
        first, second = workload.plan(0)[:2]
        victim = inputs.point_id(first[1][0])
        ctx.oracle = corrupt(oracle_data, "sweep", victim, "meets")
        ops = [workload.op(first), workload.op(second)]
    finally:
        if workload is not None:
            workload.close()
        ctx.cleanup()
    assert ops[0].path == f"serve.cold.records.{victim}.meets"
    assert ops[1].ok


def test_stale_oracle_is_refused(oracle_data):
    bad = copy.deepcopy(oracle_data)
    bad["sim"]["5@64"]["app_digest"] = "0" * 64
    ctx = make_ctx("sim", bad)
    try:
        workload = workload_for(ctx)
        with pytest.raises(oracle.StaleOracle):
            workload.op(("5", "64"))
    finally:
        ctx.cleanup()


def test_emitted_metric_names_equal_benchmark_json(oracle_data):
    ops = [Op(f"op{i}", 0.1 + i / 100, 1000) for i in range(12)]
    metrics, _ = e2e_metrics(ops, [1.0, 1.1, 1.2], 50.0)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == [
        (name, unit) for name, (_, unit) in metrics.items()]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(
        run.PER_LAYER.items())
    assert set(run.WORKLOADS) == {w["name"] for w in BENCHMARK["workloads"]}

    # A traced op's layer metrics are all declared per-layer names.
    from hostbench.tracer import Tracer

    ctx = make_ctx("sim-replay", oracle_data)
    try:
        workload = workload_for(ctx)
        tracer = Tracer()
        (patch,) = workload.traced_patches(tracer)
        with patch:
            traced = [workload.op(("5", "64"), tracer)]
    finally:
        ctx.cleanup()
    layers = workload.layer_metrics(tracer, traced)
    assert set(layers) <= set(run.PER_LAYER)
    assert layers["sim.oracle_events"] == oracle_data["sim"]["5@64"]["events"]
    assert layers["kernels.firings"] > 0
    assert layers["batch.prepare_calls"] > 0


@pytest.mark.parametrize("workload", ["sim", "cli"])
def test_two_seeds_give_the_same_inputs_in_another_order(workload,
                                                         oracle_data):
    plans = []
    for seed in (1, 2):
        ctx = make_ctx(workload, oracle_data, seed)
        try:
            plans.append(workload_for(ctx).plan(0))
        finally:
            ctx.cleanup()
    assert sorted(plans[0]) == sorted(plans[1])
    assert plans[0] != plans[1]


def test_sweep_draws_fresh_points_from_the_fixed_grid(oracle_data):
    ctx = make_ctx("sweep", oracle_data)
    workload = None
    try:
        workload = workload_for(ctx)
        plan = workload.plan(0) + workload.plan(1)
    finally:
        if workload is not None:
            workload.close()
        ctx.cleanup()
    ids = [inputs.point_id(p) for _, serve, explore in plan
           for p in serve + explore]
    assert len(ids) == len(set(ids))
    assert set(ids) <= set(oracle_data["sweep"])
