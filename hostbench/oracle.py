"""The seed-loop oracle: expected outputs for every candidate input.

Regenerate (about two minutes on one core) with::

    python3 hostbench/oracle.py

Every expectation comes from the frozen seed loop,
``repro.sim.reference_simulate``, never from the engines under test:

* ``sim``: the full canonical ``SimulationResult.as_dict()`` of each of
  the 24 (suite key, chip) inputs; ``sim`` and ``sim-replay`` ops must
  reproduce it exactly.
* ``cli``: the ``verdict``, ``utilization``, ``processor_count`` and
  ``kernel_count`` fields that ``repro simulate KEY --json`` prints.
* ``sweep``: ``processor_count``, ``meets`` and ``makespan_s`` of every
  grid point's record, cache hits included.

Each entry also carries the oracle's own event count (the benchmark's
unit of work; an engine's own count is never used) and a digest of the
source application graph.  ``load`` refuses an oracle whose candidate
list no longer matches ``inputs.py``; ``check_app`` refuses one whose
application graphs changed.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

ORACLE_PATH = pathlib.Path(__file__).resolve().parent / "oracle.json"
ORACLE_SCHEMA = 1


class StaleOracle(RuntimeError):
    """The oracle does not describe the inputs the benchmark would run."""


def canonical(value):
    """JSON-normal form (tuples to lists, string keys) for exact comparison."""
    return json.loads(json.dumps(value))


def first_difference(got, want, path: str = ""):
    """Path of the first field where ``got`` differs from ``want``, or None."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(set(got) | set(want)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in got or key not in want:
                return sub
            found = first_difference(got[key], want[key], sub)
            if found is not None:
                return found
        return None
    if isinstance(want, list) and isinstance(got, list):
        for i, (g, w) in enumerate(zip(got, want)):
            found = first_difference(g, w, f"{path}[{i}]")
            if found is not None:
                return found
        return None if len(got) == len(want) else f"{path}.length"
    if type(got) is not type(want) or got != want:
        return path or "<root>"
    return None


def compare(got, want) -> tuple[str | None, str]:
    """(first differing field path, message), or (None, "") when equal."""
    path = first_difference(got, want)
    if path is None:
        return None, ""
    return path, f"got {value_at(got, path)!r}, oracle {value_at(want, path)!r}"


def value_at(data, path: str):
    """The value at a ``first_difference`` path (for failure messages)."""
    node = data
    for part in path.replace("[", ".[").split("."):
        if not part or node is None:
            continue
        if part.startswith("["):
            index = int(part[1:-1])
            node = node[index] if index < len(node) else None
        elif part == "length":
            node = len(node)
        else:
            node = node.get(part) if isinstance(node, dict) else None
    return node


def app_digest(app) -> str:
    """Content digest of a source application graph.

    The repository's graph fingerprint where the graph serializes; the
    Bayer apps carry a procedural input pattern that does not, so they
    fall back to a digest of their structural description.
    """
    from repro.errors import GraphError
    from repro.graph import fingerprint

    try:
        return fingerprint(app)
    except GraphError:
        return "describe:" + hashlib.sha256(app.describe().encode()).hexdigest()


def load(path: pathlib.Path = ORACLE_PATH) -> dict:
    """Load the oracle and refuse it if it is stale for ``inputs.py``."""
    from . import inputs

    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise StaleOracle(f"no oracle at {path}; run "
                          "python3 hostbench/oracle.py") from None
    if data.get("schema") != ORACLE_SCHEMA:
        raise StaleOracle(f"oracle schema {data.get('schema')!r}, "
                          f"expected {ORACLE_SCHEMA}")
    if data.get("inputs_digest") != inputs.inputs_digest():
        raise StaleOracle("oracle was generated for other inputs; "
                          "regenerate with python3 hostbench/oracle.py")
    return data


def check_app(entry: dict, app, where: str) -> None:
    """Refuse an oracle entry recorded for a different application graph."""
    digest = app_digest(app)
    if entry["app_digest"] != digest:
        raise StaleOracle(
            f"oracle entry {where} was recorded for application "
            f"{entry['app_digest'][:20]}, the program now builds "
            f"{digest[:20]}; regenerate with python3 hostbench/oracle.py"
        )


def sweep_job(point: dict, name: str = "oracle"):
    """The explore ``Job`` a sweep grid point expands to."""
    from repro.explore import SweepSpec, expand

    (job,) = expand(SweepSpec.from_dict(
        {"name": name, "app": "image_pipeline", "points": [point]}
    ))
    return job


def generate() -> dict:
    from repro.apps.suite import benchmark
    from repro.cli import build_parser
    from repro.machine import ProcessorSpec
    from repro.sim import SimulationOptions, reference_simulate
    from repro.transform import CompileOptions, compile_application

    from . import inputs

    sim = {}
    for key, chip in inputs.SIM_INPUTS:
        bench = benchmark(key)
        app = bench.application()
        compiled = compile_application(
            bench.application(), ProcessorSpec(**inputs.SIM_CHIPS[chip]),
            CompileOptions(mapping="greedy"),
        )
        result = reference_simulate(
            compiled, SimulationOptions(frames=bench.frames)
        )
        sim[inputs.sim_id(key, chip)] = {
            "app_digest": app_digest(app),
            "frames": bench.frames,
            "events": result.events_processed,
            "as_dict": canonical(result.as_dict()),
        }
        print(f"sim {key}@{chip}: {result.events_processed} events",
              flush=True)

    cli = {}
    for key in inputs.CLI_KEYS:
        args = build_parser().parse_args(["simulate", key, "--json"])
        bench = benchmark(key)
        compiled = compile_application(
            bench.application(),
            ProcessorSpec(clock_hz=args.clock_mhz * 1e6,
                          memory_words=args.memory_words),
            CompileOptions(mapping=args.mapping),
        )
        result = reference_simulate(
            compiled, SimulationOptions(frames=args.frames)
        )
        verdict = result.verdict(
            bench.output, rate_hz=bench.rate_hz,
            chunks_per_frame=bench.chunks_per_frame, frames=args.frames,
        )
        cli[key] = {
            "app_digest": app_digest(bench.application()),
            "events": result.events_processed,
            "expect": canonical({
                "processor_count": compiled.processor_count,
                "kernel_count": compiled.kernel_count(),
                "verdict": verdict.as_dict(),
                "utilization": result.utilization.as_dict(),
            }),
        }
        print(f"cli {key}: {result.events_processed} events", flush=True)

    sweep = {}
    for point in inputs.sweep_points():
        job = sweep_job(point)
        compiled = compile_application(
            job.build_app(), job.build_processor(), job.build_options()
        )
        result = reference_simulate(
            compiled, SimulationOptions(frames=job.frames)
        )
        output, chunks_per_frame, rate_hz = job.measurement()
        verdict = result.verdict(
            output, rate_hz=rate_hz, chunks_per_frame=chunks_per_frame,
            frames=job.frames,
        )
        sweep[inputs.point_id(point)] = {
            "app_digest": app_digest(job.build_app()),
            "events": result.events_processed,
            "expect": canonical({
                "processor_count": compiled.processor_count,
                "meets": verdict.meets,
                "makespan_s": result.makespan_s,
            }),
        }
    print(f"sweep: {len(sweep)} points", flush=True)
    return {
        "schema": ORACLE_SCHEMA,
        "inputs_digest": inputs.inputs_digest(),
        "generator": "repro.sim.reference_simulate (frozen seed loop)",
        "sim": sim,
        "cli": cli,
        "sweep": sweep,
    }


def main() -> int:
    data = generate()
    ORACLE_PATH.write_text(json.dumps(data, sort_keys=True,
                                      separators=(",", ":")) + "\n")
    print(f"wrote {ORACLE_PATH}")
    return 0


if __name__ == "__main__":
    root = pathlib.Path(__file__).resolve().parent.parent
    sys.path[0] = str(root)
    sys.path.insert(1, str(root / "src"))
    from hostbench.oracle import main as _main

    raise SystemExit(_main())
