"""Unit tests for the quasi-static replay engine's edges.

The heavy identity proofs live elsewhere — golden fixtures in
``test_sim_conformance.py``, 200 fuzzed pipelines in
``test_sim_differential.py``, invariants in ``test_properties.py``.
This file pins the engine's *contract surface*: eligibility gating,
stats accounting and rendering (including the recorded engine
decisions), and the API seams other layers (CLI, explore, benchmarks)
consume.
"""

from __future__ import annotations

import json
from functools import lru_cache

import pytest

from repro.apps.suite import BENCHMARK_PROCESSOR, benchmark
from repro.faults import FaultSpec
from repro.machine import ManyCoreChip
from repro.machine.noc import NocModel, row_major_placement
from repro.sim import ReplayStats, SimulationOptions, simulate
from repro.sim.replay import _ineligible_reason
from repro.transform import CompileOptions, compile_application


@lru_cache(maxsize=None)
def _compiled(key: str):
    bench = benchmark(key)
    return bench, compile_application(
        bench.application(),
        BENCHMARK_PROCESSOR,
        CompileOptions(mapping="greedy"),
    )


class TestEligibility:
    def test_default_options_are_eligible(self):
        assert _ineligible_reason(SimulationOptions()) is None

    def test_trace_is_ineligible(self):
        assert _ineligible_reason(SimulationOptions(trace=True)) == "trace"

    def test_active_faults_are_ineligible(self):
        spec = FaultSpec(seed=1, slow_pes=((0, 2.0),))
        assert spec.active()
        opts = SimulationOptions(faults=spec)
        assert _ineligible_reason(opts) == "faults"

    def test_inert_fault_spec_stays_eligible(self):
        """A spec that cannot inject anything does not hook the loop."""
        spec = FaultSpec(seed=1, slow_pes=((0, 1.0),))
        assert not spec.active()
        assert _ineligible_reason(SimulationOptions(faults=spec)) is None

    def test_telemetry_is_ineligible(self):
        opts = SimulationOptions(telemetry=True)
        assert _ineligible_reason(opts) == "telemetry"

    def test_bounded_channels_are_ineligible(self):
        opts = SimulationOptions(channel_capacity=4)
        assert _ineligible_reason(opts) == "bounded-channels"

    def test_trace_wins_over_other_reasons(self):
        """First-match ordering: the reported reason is deterministic."""
        opts = SimulationOptions(trace=True, channel_capacity=4)
        assert _ineligible_reason(opts) == "trace"


class TestIneligibleRuns:
    """Ineligible replay requests still run — as the plain loop."""

    def test_trace_run_reports_stats_and_matches(self):
        bench, compiled = _compiled("2")
        options = SimulationOptions(frames=bench.frames, trace=True,
                                    replay=True)
        result = simulate(compiled, options)
        plain = simulate(
            compiled, SimulationOptions(frames=bench.frames, trace=True)
        )
        stats = result.replay
        assert stats is not None
        assert not stats.eligible and not stats.engaged
        assert stats.reason == "trace"
        assert stats.events_replayed == 0
        assert stats.events_interpreted == result.events_processed
        assert result.as_dict() == plain.as_dict()

    def test_noc_run_reports_noc_reason(self):
        bench, compiled = _compiled("2")
        chip = ManyCoreChip(cols=8, rows=8, processor=BENCHMARK_PROCESSOR)
        noc = NocModel(placement=row_major_placement(compiled.mapping, chip))
        result = simulate(
            compiled,
            SimulationOptions(frames=bench.frames, noc=noc, replay=True),
        )
        assert result.replay.reason == "noc"


class TestStatsSurface:
    def test_replay_stats_never_in_as_dict(self):
        """The conformance surface is shared: stats ride on the result
        object only, never in the canonical dict."""
        bench, compiled = _compiled("5")
        result = simulate(
            compiled, SimulationOptions(frames=bench.frames, replay=True)
        )
        assert result.replay is not None and result.replay.engaged
        assert "replay" not in result.as_dict()

    def test_replay_off_has_no_stats(self):
        bench, compiled = _compiled("2")
        result = simulate(compiled, SimulationOptions(frames=bench.frames))
        assert result.replay is None

    def test_as_dict_round_trips_through_json(self):
        bench, compiled = _compiled("5")
        result = simulate(
            compiled, SimulationOptions(frames=bench.frames, replay=True)
        )
        d = json.loads(json.dumps(result.replay.as_dict()))
        assert d["eligible"] and d["engaged"]
        assert d["events_replayed"] + d["events_interpreted"] == (
            result.events_processed
        )
        assert d["period_firings"] > 0 and d["period_events"] > 0
        assert isinstance(d["period_fingerprint"], str)
        assert d["restarts"] == 0

    def test_engaged_run_describe(self):
        bench, compiled = _compiled("5")
        result = simulate(
            compiled, SimulationOptions(frames=bench.frames, replay=True)
        )
        text = result.replay.describe()
        assert "periods" in text and "demotions" in text
        assert "ineligible" not in text

    def test_ineligible_describe(self):
        stats = ReplayStats(eligible=False, reason="faults",
                            events_interpreted=10)
        assert "ineligible (faults)" in stats.describe()

    def test_eligible_unengaged_describe(self):
        stats = ReplayStats(eligible=True, events_interpreted=10)
        assert "no period locked" in stats.describe()

    def test_describe_shows_engine_decisions(self):
        stats = ReplayStats(
            eligible=True, events_interpreted=10,
            not_armed={"no input line end": 2},
            scalar_kernels={"Median": "1 firing per period (< 2)"},
            stopped="no period locked within the detection budget",
            stopped_at_event=12345,
        )
        text = stats.describe()
        assert "not armed: no input line end x2" in text
        assert "Median (1 firing per period (< 2))" in text
        assert "recording stopped at event 12345" in text
        d = stats.as_dict()
        assert d["stopped_at_event"] == 12345
        assert d["not_armed"] == {"no input line end": 2}

    def test_decisions_stay_out_of_as_dict(self):
        bench, compiled = _compiled("1")
        result = simulate(
            compiled, SimulationOptions(frames=bench.frames, replay=True)
        )
        stats = result.replay
        assert stats.stopped is not None and stats.not_armed
        flat = json.dumps(result.as_dict())
        assert "not_armed" not in flat and "stopped" not in flat


class TestDetectorBounds:
    def test_long_period_app_gives_up_cleanly(self):
        """App 3's beat period (a whole frame of parallel pipelines)
        exceeds the detector window: the recorder must shut off, the run
        must stay correct, and the stats must show the bounded fallback
        rather than a wedged detector."""
        bench, compiled = _compiled("3")
        replayed = simulate(
            compiled, SimulationOptions(frames=bench.frames, replay=True)
        )
        plain = simulate(compiled, SimulationOptions(frames=bench.frames))
        assert replayed.as_dict() == plain.as_dict()
        stats = replayed.replay
        assert stats.eligible
        assert stats.restarts == 0
        # The alias ladder may replay a handful of early periods before
        # the payoff cutoff trips; the bulk must be interpreted.
        assert stats.events_interpreted > stats.events_replayed
        # ... and the seam must have dropped, so that bulk ran on the
        # plain loop without recording.
        assert stats.stopped is not None
        assert stats.stopped_at_event < replayed.events_processed

    @pytest.mark.parametrize("key", ["1", "2", "4", "5"])
    def test_periodic_apps_engage(self, key):
        bench, compiled = _compiled(key)
        result = simulate(
            compiled, SimulationOptions(frames=bench.frames, replay=True)
        )
        stats = result.replay
        assert stats.restarts == 0
        if key == "1":
            # App 1 locks a period, but its demosaic and luma kernels do
            # not batch, so the period cannot pay: the seam records why,
            # drops, and the rest of the run is the plain loop.
            assert not stats.engaged and stats.events_replayed == 0
            assert stats.not_armed.get("batched share < 60%", 0) >= 1
            assert stats.scalar_kernels["Demosaic"] == "kernel declined"
            assert stats.stopped == "the period does not batch enough to pay"
            assert 0 < stats.stopped_at_event < result.events_processed
            return
        assert stats.engaged and stats.periods_replayed > 0
        assert stats.period_fingerprint is not None


class TestForcedFallbacks:
    def test_walk_failure_restarts_on_the_plain_loop(self, monkeypatch):
        """A failure inside a walked period (a kernel body raising, here a
        delivery) is the hard-divergence path: the run restarts with the
        seam off and still returns exactly the plain loop's result."""
        from repro.sim import replay

        bench, compiled = _compiled("5")
        plain = simulate(compiled, SimulationOptions(frames=bench.frames))
        real = replay.Replayer._deliver
        calls = {"n": 0}

        def flaky(self, *args):
            calls["n"] += 1
            if calls["n"] == 50:
                raise RuntimeError("injected walk failure")
            return real(self, *args)

        monkeypatch.setattr(replay.Replayer, "_deliver", flaky)
        result = simulate(
            compiled, SimulationOptions(frames=bench.frames, replay=True)
        )
        stats = result.replay
        assert calls["n"] >= 50
        assert stats.restarts == 1
        assert "injected walk failure" in stats.reason
        assert stats.events_replayed == 0
        assert stats.events_interpreted == result.events_processed
        assert result.as_dict() == plain.as_dict()
