"""Replay identity over every host-benchmark input.

The golden fixtures pin five applications and the differential harness
fuzzes small pipelines; neither caught the replay over-count on ``BF``
with the 64-PE chip (a completion walked ahead of an earlier heap event,
two extra events).  This suite runs all 24 inputs the host benchmark
times — the 12 Figure 13 suite keys on both chips of
``hostbench.inputs.SIM_CHIPS`` — through the interpreter and through
replay with batching on and off, and requires the canonical
``as_dict()`` to be identical.
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from hostbench import inputs  # noqa: E402

from repro.apps.suite import benchmark  # noqa: E402
from repro.machine import ProcessorSpec  # noqa: E402
from repro.sim import SimulationOptions, simulate  # noqa: E402
from repro.transform import CompileOptions, compile_application  # noqa: E402


@lru_cache(maxsize=None)
def _compiled(key: str, chip: str):
    bench = benchmark(key)
    compiled = compile_application(
        bench.application(),
        ProcessorSpec(**inputs.SIM_CHIPS[chip]),
        CompileOptions(mapping="greedy"),
    )
    return bench, compiled


def _canonical(result) -> str:
    return json.dumps(result.as_dict(), sort_keys=True)


@pytest.mark.parametrize(
    "key,chip", inputs.SIM_INPUTS,
    ids=[inputs.sim_id(k, c) for k, c in inputs.SIM_INPUTS],
)
def test_replay_matches_interpreter(key, chip):
    bench, compiled = _compiled(key, chip)
    plain = simulate(compiled, SimulationOptions(frames=bench.frames))
    want = _canonical(plain)
    batched = simulate(
        compiled, SimulationOptions(frames=bench.frames, replay=True)
    )
    assert _canonical(batched) == want, batched.replay.as_dict()
    scalar = simulate(
        compiled,
        SimulationOptions(frames=bench.frames, replay=True, batch=False),
    )
    assert _canonical(scalar) == want, scalar.replay.as_dict()
    # Batching changes how walked firings run, never which: the same
    # decisions, the same firings.
    b, s = batched.replay, scalar.replay
    assert s.firings_batched == 0
    assert b.firings_batched + b.firings_scalar == s.firings_scalar
    assert b.events_replayed == s.events_replayed
    assert b.restarts == s.restarts == 0


def test_bf64_event_count_is_the_interpreters():
    """The regression behind this suite: replay reported 248317 events on
    ``BF``@64 against the interpreter's 248315."""
    bench, compiled = _compiled("BF", "64")
    for batch in (True, False):
        result = simulate(
            compiled,
            SimulationOptions(frames=bench.frames, replay=True, batch=batch),
        )
        assert result.events_processed == 248315
