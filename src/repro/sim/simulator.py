"""Timing-accurate functional simulator (Section IV-D).

A discrete-event simulation of a compiled application on its
kernel-to-processor mapping.  Exactly like the paper's simulator it
accounts for kernel execution time, data access time, buffer transfer
time, and scheduling — and deliberately ignores placement and
communication delay, which for a throughput-constrained application only
adds first-output latency.

Model
-----
* Application inputs inject one element every ``1 / (W*H*rate)`` seconds
  in scan-line order, with end-of-line/end-of-frame tokens in-stream; the
  input cannot be stalled, so its immediate channels have finite capacity
  and an overrun is a real-time violation.
* Each firing occupies its kernel's processing element for
  ``read + run + write`` time: per-element port access costs around the
  declared method cycles.
* Kernels mapped to one element are serviced in arrival order with
  round-robin fairness — time multiplexing (Section V).
* Boundary kernels (inputs, constant sources, outputs) model off-chip I/O
  and execute without occupying a processing element.

Hot path
--------
The event loop is engineered to be observably identical to the seed
implementation preserved in :mod:`repro.sim.reference` while doing far
less interpreter work per event:

* source traffic is injected **lazily** — each input keeps one cursor
  event on the heap instead of pre-pushing ``frames x H x W`` delivery
  tuples, and all of a source's same-timestamp items drain in one
  dispatch (they are contiguous in the seed's ordering, so batching
  cannot reorder anything);
* per-kernel state (processor, output channel fan-out, overrun checks,
  backpressure wake lists) is resolved **once** into slotted records
  before the loop, eliminating the per-event dict lookups;
* per-processor statistics accumulate in plain slotted attributes and
  only become :class:`~repro.sim.stats.ProcessorStats` after the loop;
* trace recording is a branch on a precomputed local when disabled.

``tests/test_sim_conformance.py`` holds this equivalence to golden
fixtures recorded from the reference loop; see ``docs/performance.md``.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Mapping

import numpy as np

from ..errors import SimulationError
from ..faults import FaultInjector, FaultSpec, FaultStats
from ..graph.app import ApplicationGraph
from ..obs.collect import Telemetry, TelemetryCollector, TelemetryConfig
from ..kernels.sources import ApplicationInput, ApplicationOutput, ConstantSource
from ..machine.noc import NocModel, NocStats, link_name, route_path
from ..machine.processor import ProcessorSpec
from ..tokens import ControlToken
from ..transform.compile import CompiledApp
from ..transform.multiplex import Mapping as KernelMapping
from .functional import source_items
from .runtime import (
    FORWARD_CYCLES,
    Channel,
    Item,
    RuntimeKernel,
    build_runtime,
)
from .stats import ProcessorStats, RealTimeVerdict, UtilizationSummary
from .trace import TraceEvent, trace_digest

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from .replay import Replayer, ReplayStats

__all__ = ["BudgetOverrun", "SimulationOptions", "SimulationResult",
           "Simulator", "simulate"]


@dataclass(frozen=True, slots=True)
class SimulationOptions:
    """Simulation knobs."""

    #: Input frames to inject.
    frames: int = 4
    #: Capacity (items) of channels fed directly by an application input;
    #: exceeding it means the unstallable input overran its consumer.
    input_channel_capacity: int = 64
    #: Capacity of every other channel, or None for unbounded (the
    #: default, matching the paper's throughput-only model).  Setting a
    #: small value models the implicit single-iteration port buffers and
    #: makes producers stall when consumers lag — the Figure 9(b) effect.
    channel_capacity: int | None = None
    #: Per-channel capacity overrides keyed ``(src, src_port, dst,
    #: dst_port)``; takes precedence over ``channel_capacity``.  A buffer
    #: kernel's storage effectively extends its output channel, so the
    #: Figure 9(c) experiment gives buffer-fed channels their declared
    #: storage as capacity.
    channel_capacity_overrides: Mapping[tuple[str, str, str, str], int] | None = None
    #: Record a TraceEvent per firing (see repro.sim.trace).
    trace: bool = False
    #: Tolerance on the steady-state frame interval for the verdict.
    throughput_tolerance: float = 0.05
    #: Safety valve on total events.
    max_events: int = 20_000_000
    #: Fault scenario to inject (see :mod:`repro.faults`), or None for the
    #: perfect substrate.  A plain dict is accepted and validated through
    #: :meth:`repro.faults.FaultSpec.from_dict`.  A spec that cannot
    #: inject anything (`spec.active()` false) leaves the simulator on its
    #: zero-fault path, observably identical to passing None.
    faults: FaultSpec | None = None
    #: Telemetry collection (see :mod:`repro.obs`): None/False for off
    #: (the default — the hot path carries a single precomputed None
    #: local, observably identical to the seed), True for defaults, or a
    #: :class:`~repro.obs.TelemetryConfig` / mapping for tuned limits.
    telemetry: TelemetryConfig | None = None
    #: Network-on-chip timing model (see :mod:`repro.machine.noc`), or
    #: None for the paper's free-communication substrate.  Rides the same
    #: ``is not None`` hook seam as ``faults``/``telemetry``: off means
    #: the hot path is observably identical to the seed loop.
    noc: NocModel | None = None
    #: Quasi-static schedule replay (see :mod:`repro.sim.replay`): detect
    #: the steady-state firing period online and walk whole periods per
    #: step instead of dispatching one event at a time.  Off (the
    #: default) the event loop below carries no replay seam; on, the seam
    #: rides the same loop whenever the configuration is eligible (no
    #: trace/faults/telemetry/NoC/bounded channels) and drops itself when
    #: no period pays.  Either way the observable result is bit-identical
    #: — only :attr:`SimulationResult.replay` differs.
    replay: bool = False
    #: Batched quasi-static kernel execution inside replayed periods
    #: (``repro.sim.batch``).  Inert without :attr:`replay`.  On by
    #: default because it is observation-free: batched and per-firing
    #: execution produce byte-identical results; only wall time differs.
    batch: bool = True

    def __post_init__(self) -> None:
        # Validate up front: a bad knob should name itself here, not
        # surface as a baffling stall or index error deep in the event
        # loop thousands of events later.
        if self.frames < 0:
            raise SimulationError(
                "SimulationOptions.frames must be non-negative, "
                f"got {self.frames!r}"
            )
        if self.input_channel_capacity <= 0:
            raise SimulationError(
                "SimulationOptions.input_channel_capacity must be "
                f"positive, got {self.input_channel_capacity!r}"
            )
        if self.channel_capacity is not None and self.channel_capacity <= 0:
            raise SimulationError(
                "SimulationOptions.channel_capacity must be positive or "
                f"None, got {self.channel_capacity!r}"
            )
        for key, cap in (self.channel_capacity_overrides or {}).items():
            if cap <= 0:
                raise SimulationError(
                    f"SimulationOptions.channel_capacity_overrides[{key!r}] "
                    f"must be positive, got {cap!r}"
                )
        if self.throughput_tolerance < 0:
            raise SimulationError(
                "SimulationOptions.throughput_tolerance must be "
                f"non-negative, got {self.throughput_tolerance!r}"
            )
        if self.max_events <= 0:
            raise SimulationError(
                "SimulationOptions.max_events must be positive, "
                f"got {self.max_events!r}"
            )
        if self.faults is not None and not isinstance(self.faults, FaultSpec):
            if isinstance(self.faults, Mapping):
                object.__setattr__(
                    self, "faults", FaultSpec.from_dict(self.faults)
                )
            else:
                raise SimulationError(
                    "SimulationOptions.faults must be a FaultSpec, a "
                    f"mapping, or None, got {type(self.faults).__name__}"
                )
        if self.telemetry is not None and not isinstance(
            self.telemetry, TelemetryConfig
        ):
            object.__setattr__(
                self, "telemetry", TelemetryConfig.coerce(self.telemetry)
            )
        if self.noc is not None and not isinstance(self.noc, NocModel):
            raise SimulationError(
                "SimulationOptions.noc must be a NocModel or None, "
                f"got {type(self.noc).__name__}"
            )
        if not isinstance(self.replay, bool):
            raise SimulationError(
                "SimulationOptions.replay must be a bool, "
                f"got {type(self.replay).__name__}"
            )
        if not isinstance(self.batch, bool):
            raise SimulationError(
                "SimulationOptions.batch must be a bool, "
                f"got {type(self.batch).__name__}"
            )


@dataclass(slots=True)
class _Violation:
    time: float
    where: str
    detail: str


@dataclass(slots=True)
class BudgetOverrun:
    """A runtime exception record: a firing exceeded its declared cycles.

    Section VII's future-work extension — "runtime exceptions to indicate
    when a kernel has exceeded its allocated resources".  Overruns do not
    abort the simulation (the data still flows); they surface in the
    result so a supervisor could react, and the throughput verdict shows
    their real-time consequences.
    """

    time: float
    kernel: str
    method: str
    declared_cycles: float
    actual_cycles: float

    @property
    def factor(self) -> float:
        return (self.actual_cycles / self.declared_cycles
                if self.declared_cycles > 0 else float("inf"))


def _digest_arrays(arrays) -> str:
    """A stable content hash over a sequence of ndarrays (shape + bytes)."""
    h = hashlib.sha256()
    for arr in arrays:
        a = np.ascontiguousarray(arr, dtype=np.float64)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


@dataclass(slots=True)
class SimulationResult:
    """Everything a benchmark harness needs from one simulation."""

    app: ApplicationGraph
    options: SimulationOptions
    makespan_s: float
    utilization: UtilizationSummary
    #: Output kernel name -> arrival time of each received chunk.
    output_times: Mapping[str, list[float]]
    #: Output kernel name -> received chunks (same order).
    outputs: Mapping[str, list[np.ndarray]]
    violations: list[_Violation]
    channels: list[Channel]
    firings: Mapping[str, int]
    #: Per-firing schedule records (empty unless options.trace).
    trace: list[TraceEvent] = field(default_factory=list)
    #: Runtime budget exceptions from variable-work kernels (Sec VII).
    budget_overruns: list[BudgetOverrun] = field(default_factory=list)
    #: Logical events processed: one per delivered item, poll, and firing
    #: completion.  Identical between the fast and reference loops, which
    #: the conformance suite asserts; the benchmark suite divides it by
    #: wall time for the events/sec trajectory.
    events_processed: int = 0
    #: High-water mark of the event heap (perf counter, not an observable
    #: of the simulated schedule; excluded from :meth:`as_dict`).
    peak_heap: int = 0
    #: Degradation accounting (all zeros unless a fault spec was active).
    fault_stats: FaultStats = field(default_factory=FaultStats)
    #: Full-fidelity telemetry (None unless options.telemetry enabled).
    telemetry: Telemetry | None = None
    #: Interconnect accounting (None unless options.noc was set).
    noc_stats: NocStats | None = None
    #: Replay-engine accounting (None unless options.replay was set).
    #: Like ``peak_heap`` this is an execution-strategy counter, not an
    #: observable of the simulated schedule, so it is excluded from
    #: :meth:`as_dict` — replay-on and replay-off runs must produce the
    #: same conformance surface.
    replay: "ReplayStats | None" = None

    def frame_completions(self, output: str, chunks_per_frame: int) -> list[float]:
        """Completion time of each full frame at ``output``."""
        times = self.output_times.get(output, [])
        return [
            times[i]
            for i in range(chunks_per_frame - 1, len(times), chunks_per_frame)
        ]

    def as_dict(self) -> dict:
        """Canonical, JSON-safe view of everything the simulation observed.

        This is the conformance surface: two simulator implementations
        are considered identical when their ``as_dict()`` match exactly.
        Bulk payloads (received chunks, the trace) appear as counts plus
        content digests so golden fixtures stay reviewable; wall-clock
        perf counters (``peak_heap``) are deliberately excluded.  The
        ``faults`` section appears only when a fault spec was active, so
        fault-free runs keep the exact key set the golden conformance
        fixtures were recorded with.
        """
        d = {
            "makespan_s": self.makespan_s,
            "events": self.events_processed,
            "utilization": self.utilization.as_dict(),
            "output_times": {
                name: list(times) for name, times in self.output_times.items()
            },
            "outputs": {
                name: {"count": len(chunks), "sha256": _digest_arrays(chunks)}
                for name, chunks in self.outputs.items()
            },
            "violations": [
                {"time": v.time, "where": v.where, "detail": v.detail}
                for v in self.violations
            ],
            "channels": [
                {
                    "src": ch.src, "src_port": ch.src_port,
                    "dst": ch.dst, "dst_port": ch.dst_port,
                    "capacity": ch.capacity,
                    "max_occupancy": ch.max_occupancy,
                    "total_data": ch.total_data,
                    "total_tokens": ch.total_tokens,
                }
                for ch in self.channels
            ],
            "firings": dict(self.firings),
            "budget_overruns": [
                {
                    "time": b.time, "kernel": b.kernel, "method": b.method,
                    "declared_cycles": b.declared_cycles,
                    "actual_cycles": b.actual_cycles,
                }
                for b in self.budget_overruns
            ],
            "trace": {
                "events": len(self.trace),
                "sha256": trace_digest(self.trace),
            },
        }
        spec = self.options.faults
        if spec is not None and spec.active():
            d["faults"] = self.fault_stats.as_dict()
        # Like faults: the key exists only when the feature was on, so
        # telemetry-off runs keep the recorded fixtures' exact key set.
        if self.telemetry is not None:
            d["telemetry"] = self.telemetry.as_dict()
        # Same contract again: link-utilization and worst-link stats
        # appear only when a NoC model was active.
        if self.noc_stats is not None:
            d["noc"] = self.noc_stats.as_dict(self.makespan_s)
        return d

    def verdict(
        self,
        output: str,
        *,
        rate_hz: float,
        chunks_per_frame: int,
        frames: int | None = None,
        allow_shedding: bool = False,
    ) -> RealTimeVerdict:
        """Real-time verdict at one application output.

        Meets real-time when every expected frame completed, steady-state
        completion intervals stay within tolerance of the frame period,
        and the input never overran.  The first frame's fill latency is
        excluded — the paper's model likewise treats initial latency as
        irrelevant to throughput.

        With ``allow_shedding=True`` a run that shed data under faults is
        judged on resynchronization instead of completeness: the frames
        that did complete must land on the frame-period grid (each
        completion interval within tolerance of an integer number of
        periods), and the missing ones are reported as ``frames_shed``
        rather than as a failure.  Without it, shed frames fail the
        verdict exactly like any other missing frame — shedding is an
        explicitly accepted degradation, never a silent one.
        """
        frames = frames if frames is not None else self.options.frames
        period = 1.0 / rate_hz
        completions = self.frame_completions(output, chunks_per_frame)
        overruns = len(self.violations)
        fs = self.fault_stats
        shed_activity = (fs.data_shed + fs.transfers_dropped) > 0
        missing = max(0, frames - len(completions))
        frames_shed = missing if shed_activity else 0
        if len(completions) < frames:
            if allow_shedding and shed_activity and len(completions) >= 1:
                intervals = [
                    b - a for a, b in zip(completions, completions[1:])
                ]
                worst = max(intervals) if intervals else 0.0
                tol = period * self.options.throughput_tolerance
                # Resync criterion: a gap of k shed frames shows up as an
                # interval of ~k+1 periods; any drift off the period grid
                # means the stream never resynchronized after shedding.
                ok = all(
                    abs(iv - max(1, round(iv / period)) * period) <= tol
                    for iv in intervals
                )
                reason = ("" if ok
                          else "shed stream did not resync to frame period")
                if overruns:
                    ok = False
                    reason = "input overran its consumer"
                return RealTimeVerdict(
                    meets=ok,
                    frames_expected=frames,
                    frames_completed=len(completions),
                    worst_interval_s=worst,
                    frame_period_s=period,
                    input_overruns=overruns,
                    reason=reason,
                    frames_shed=frames_shed,
                )
            return RealTimeVerdict(
                meets=False,
                frames_expected=frames,
                frames_completed=len(completions),
                worst_interval_s=float("inf"),
                frame_period_s=period,
                input_overruns=overruns,
                reason="not all frames completed",
                frames_shed=frames_shed,
            )
        intervals = [
            b - a for a, b in zip(completions, completions[1:frames])
        ]
        worst = max(intervals) if intervals else 0.0
        ok = worst <= period * (1.0 + self.options.throughput_tolerance)
        reason = "" if ok else "frame interval exceeds period"
        if overruns:
            ok = False
            reason = "input overran its consumer"
        return RealTimeVerdict(
            meets=ok,
            frames_expected=frames,
            frames_completed=len(completions),
            worst_interval_s=worst,
            frame_period_s=period,
            input_overruns=overruns,
            reason=reason,
        )


# Event kinds, ordered so same-time events process deterministically:
# source deliveries before completions before NoC arrivals before polls.
# (_ARRIVE events exist only when a NoC model is active; the relative
# order of the other three is exactly the seed's.)
_DELIVER, _FINISH, _ARRIVE, _POLL = 0, 1, 2, 3

# Structural op codes the loop hands the replay seam, one op per event
# (see :meth:`repro.sim.replay.Replayer.record`).  The second element of
# every op is the time relation to the previous event: 0 same, 1 later.
_OP_SRC, _OP_FIN, _OP_RUN, _OP_EMPTY, _OP_PARK, _OP_EXEC, _OP_IO = range(7)


class _ProcState:
    """Mutable per-processor record resolved once before the event loop."""

    __slots__ = ("index", "free_at", "pending", "read_s", "run_s", "write_s",
                 "firings", "kernels", "dead_at", "dead", "slow", "moved_to")

    def __init__(self, index: int) -> None:
        self.index = index
        self.free_at = 0.0
        self.pending: deque = deque()
        self.read_s = 0.0
        self.run_s = 0.0
        self.write_s = 0.0
        self.firings = 0
        self.kernels: set[str] = set()
        # Fault-model state; inert (and never consulted) on the
        # zero-fault path.
        self.dead_at: float | None = None
        self.dead = False
        self.slow = 1.0
        self.moved_to: "_ProcState | None" = None

    def to_stats(self) -> ProcessorStats:
        return ProcessorStats(
            index=self.index, read_s=self.read_s, run_s=self.run_s,
            write_s=self.write_s, firings=self.firings, kernels=self.kernels,
        )


class _KernelState:
    """Per-kernel hot-loop record: everything the event loop needs without
    touching the runtime tables again."""

    __slots__ = ("rk", "name", "proc", "running", "out", "wake",
                 "out_channels", "max_emissions", "is_output", "output_times",
                 "ready", "execute", "attempts", "fault_since")

    def __init__(self, rk: RuntimeKernel, proc: _ProcState | None) -> None:
        self.rk = rk
        self.name = rk.name
        self.ready = rk.ready_firing
        self.execute = rk.execute
        self.proc = proc
        self.running = False
        #: Consecutive faulted attempts of the current firing (retry state).
        self.attempts = 0
        #: Time the current fault burst started, for recovery latency.
        self.fault_since = 0.0
        #: port -> tuple of (channel, consumer state, overrun-checked?).
        self.out: dict[str, tuple] = {}
        #: port -> producer state, for backpressure wake-ups (bounded runs).
        self.wake: dict[str, "_KernelState"] = {}
        self.out_channels: tuple[Channel, ...] = ()
        self.max_emissions = rk.kernel.max_emissions_per_firing
        self.is_output = isinstance(rk.kernel, ApplicationOutput)
        self.output_times: list[float] = []


def _resync_shed(
    st: _KernelState,
    fstats: FaultStats,
    tele: TelemetryCollector | None = None,
    time: float = 0.0,
) -> bool:
    """Frame-level resynchronization at a multi-input join (shed mode).

    After data has been lost (a shed firing upstream, a dropped
    transfer), a join can starve: one input presents its end-of-frame
    token while a sibling still presents unmatched data that will never
    get its partner.  Left alone the join deadlocks and the stream never
    recovers.  The shedding policy instead drains the unmatched data up
    to each input's own token — abandoning the rest of the degraded
    frame — so the tokens align, the frame boundary forwards, and the
    next frame starts clean.  Returns True when anything was dropped.

    Only triggers on a genuine mismatch (token head on one input of a
    multi-input method, data head on another), which on a fault-free run
    is impossible: the unit-rate invariant keeps sibling inputs in
    lock-step.
    """
    rk = st.rk
    dropped = False
    seen: list = []
    for port in rk._ports:
        method = rk._data_method.get(port)
        if method is None or len(method.data_inputs) <= 1 or method in seen:
            continue
        seen.append(method)
        chans = [rk.inputs.get(p) for p in method.data_inputs]
        if any(ch is None for ch in chans):
            continue
        heads = [ch.items[0] if ch.items else None for ch in chans]
        has_token = any(isinstance(h, ControlToken) for h in heads)
        has_data = any(
            h is not None and not isinstance(h, ControlToken) for h in heads
        )
        if not (has_token and has_data):
            continue
        for ch in chans:
            items = ch.items
            shed = 0
            while items and not isinstance(items[0], ControlToken):
                ch.seqs.popleft()
                items.popleft()
                shed += 1
            if shed:
                fstats.data_shed += shed
                dropped = True
                if tele is not None:
                    tele.shed_channel(time, ch, shed)
    return dropped


def _timed_source_items(
    kernel: ApplicationInput, frames: int
) -> Iterator[tuple[float, Item]]:
    """(time, item) schedule of one application input.

    Reproduces the seed's accumulation exactly: tokens share the
    timestamp of the element that follows them, and element times are the
    running float sum of the period (not ``i * period``).
    """
    period = kernel.element_period
    t = 0.0
    for item in source_items(kernel, frames):
        yield t, item
        if isinstance(item, np.ndarray):
            t += period


class Simulator:
    """Discrete-event simulator for a compiled application."""

    def __init__(
        self,
        graph: ApplicationGraph,
        mapping: KernelMapping,
        processor: ProcessorSpec,
        options: SimulationOptions | None = None,
    ) -> None:
        self.graph = graph
        self.mapping = mapping
        self.processor = processor
        # A fresh instance per simulator: a shared module-level default
        # would be one unfreeze away from cross-run option bleed.
        self.options = options if options is not None else SimulationOptions()

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        # Replay-off never imports the replay module: the loop below runs
        # with its replay seam set to None.
        if self.options.replay:
            from .replay import run_with_replay

            return run_with_replay(self)
        return self._run_des()

    def _run_des(self, replay: "ReplayStats | None" = None) -> SimulationResult:
        """The discrete-event loop proper (one heap pop per event).

        ``replay`` (eligible replay runs only) turns on the replay seam:
        a :class:`~repro.sim.replay.Replayer` that records one structural
        op per event and, once a period locks, walks whole periods
        against this loop's own heap and state.
        """
        runtimes, channels = build_runtime(self.graph)
        opts = self.options

        # --- channel capacities (overrides beat the blanket setting) ----
        input_channels = {
            id(ch)
            for ch in channels
            if isinstance(runtimes[ch.src].kernel, ApplicationInput)
        }
        overrides = opts.channel_capacity_overrides or {}
        for ch in channels:
            key = (ch.src, ch.src_port, ch.dst, ch.dst_port)
            if key in overrides:
                ch.capacity = overrides[key]
            elif (opts.channel_capacity is not None
                  and id(ch) not in input_channels):
                # Input-fed channels stay unbounded: the input cannot be
                # stalled, overrun detection covers them instead.
                ch.capacity = opts.channel_capacity

        # --- per-kernel / per-processor state, resolved once ------------
        proc_states: dict[int, _ProcState] = {}
        states: dict[str, _KernelState] = {}
        for name, rk in runtimes.items():
            proc = self.mapping.processor_of(name)
            pstate = None
            if proc is not None:
                pstate = proc_states.get(proc)
                if pstate is None:
                    pstate = proc_states[proc] = _ProcState(proc)
                pstate.kernels.add(name)
            states[name] = _KernelState(rk, pstate)
        for name, rk in runtimes.items():
            st = states[name]
            out: dict[str, tuple] = {}
            flat: list[Channel] = []
            for port, chans in rk.outputs.items():
                out[port] = tuple(
                    (ch, states[ch.dst], id(ch) in input_channels)
                    for ch in chans
                )
                flat.extend(chans)
            st.out = out
            st.out_channels = tuple(flat)
            st.wake = {
                port: states[ch.src]
                for port, ch in rk.inputs.items()
                if ch.capacity is not None
            }

        # --- fault machinery (fully inert when no spec is active) --------
        fault_spec = opts.faults
        if fault_spec is not None and not fault_spec.active():
            fault_spec = None
        injector: FaultInjector | None = None
        recovery = None
        fstats = FaultStats()
        spare_pool: list[int] = []
        dead_map: dict[int, float] = {}
        slow_map: dict[int, float] = {}
        ch_faulted: set[int] | None = None
        if fault_spec is not None:
            injector = FaultInjector(fault_spec)
            fstats = injector.stats
            recovery = fault_spec.recovery
            dead_map = {f.processor: f.time_s for f in fault_spec.pe_failures}
            slow_map = dict(fault_spec.slow_pes)
            for proc, ps in proc_states.items():
                ps.dead_at = dead_map.get(proc)
                ps.slow = slow_map.get(proc, 1.0)
            spare_pool = [
                p for p in getattr(self.mapping, "spares", ())
                if p not in proc_states
            ]
            chf = fault_spec.channel
            if chf.drop_probability > 0.0 or chf.duplicate_probability > 0.0:
                edges = set(chf.edges)
                ch_faulted = {
                    id(ch) for ch in channels
                    if not edges
                    or (ch.src, ch.src_port, ch.dst, ch.dst_port) in edges
                }

        violations: list[_Violation] = []
        trace: list[TraceEvent] = []
        trace_on = opts.trace
        budget_overruns: list[BudgetOverrun] = []

        # Telemetry rides the same seam as the fault injector: one
        # precomputed local, `is not None` checks only — off means the
        # hot path is byte-for-byte the seed-conformant loop.
        tele: TelemetryCollector | None = (
            TelemetryCollector(opts.telemetry)
            if opts.telemetry is not None else None
        )

        events: list = []
        seq = itertools.count()
        next_seq = seq.__next__
        heappush = heapq.heappush
        heappop = heapq.heappop
        peak_heap = 0

        # Deliveries at a timestamp always process before polls at that
        # timestamp (event-kind ordering), so one queued poll per kernel
        # per timestamp observes everything — duplicates are pure waste.
        queued_polls: dict[_KernelState, float] = {}

        input_cap = opts.input_channel_capacity

        def deliver(time: float, st_src: _KernelState, port: str, item) -> None:
            nonlocal peak_heap
            is_token = isinstance(item, ControlToken)
            dup = False
            for ch, dst, checked in st_src.out.get(port, ()):
                if (ch_faulted is not None and not is_token
                        and id(ch) in ch_faulted):
                    # Interconnect faults strike per data transfer; control
                    # tokens ride the reliable control plane.
                    if injector.transfer_dropped():
                        continue
                    dup = injector.transfer_duplicated()
                # Channel.push, inlined: stamp, count, track occupancy.
                items = ch.items
                items.append(item)
                counter = ch.seq
                counter.value = stamp = counter.value + 1
                ch.seqs.append(stamp)
                if is_token:
                    ch.total_tokens += 1
                else:
                    ch.total_data += 1
                occupancy = len(items)
                if occupancy > ch.max_occupancy:
                    ch.max_occupancy = occupancy
                if checked and occupancy > input_cap:
                    violations.append(
                        _Violation(
                            time=time,
                            where=f"{ch.src}->{ch.dst}.{ch.dst_port}",
                            detail="input overran its consumer",
                        )
                    )
                if dup:
                    # Replayed transfer: the consumer sees the item twice,
                    # with full stamp/occupancy/overrun accounting.
                    dup = False
                    items.append(item)
                    counter.value = stamp = counter.value + 1
                    ch.seqs.append(stamp)
                    ch.total_data += 1
                    occupancy = len(items)
                    if occupancy > ch.max_occupancy:
                        ch.max_occupancy = occupancy
                    if checked and occupancy > input_cap:
                        violations.append(
                            _Violation(
                                time=time,
                                where=f"{ch.src}->{ch.dst}.{ch.dst_port}",
                                detail="input overran its consumer",
                            )
                        )
                if queued_polls.get(dst) != time:
                    queued_polls[dst] = time
                    heappush(events, (time, _POLL, next_seq(), dst))
                    if len(events) > peak_heap:
                        peak_heap = len(events)

        if tele is not None:
            # Telemetry-on variant: identical observable behavior plus a
            # span hook after every push.  A separate closure (rather
            # than per-push `tele is not None` branches) keeps the
            # telemetry-off deliver — the hottest code in the loop —
            # byte-for-byte the seed-conformant version above; any edit
            # there must be mirrored here.
            def deliver(time: float, st_src: _KernelState, port: str,
                        item) -> None:
                nonlocal peak_heap
                is_token = isinstance(item, ControlToken)
                dup = False
                for ch, dst, checked in st_src.out.get(port, ()):
                    if (ch_faulted is not None and not is_token
                            and id(ch) in ch_faulted):
                        if injector.transfer_dropped():
                            tele.transfer_dropped(time, ch)
                            continue
                        dup = injector.transfer_duplicated()
                    items = ch.items
                    items.append(item)
                    counter = ch.seq
                    counter.value = stamp = counter.value + 1
                    ch.seqs.append(stamp)
                    if is_token:
                        ch.total_tokens += 1
                    else:
                        ch.total_data += 1
                    occupancy = len(items)
                    if occupancy > ch.max_occupancy:
                        ch.max_occupancy = occupancy
                    if checked and occupancy > input_cap:
                        violations.append(
                            _Violation(
                                time=time,
                                where=f"{ch.src}->{ch.dst}.{ch.dst_port}",
                                detail="input overran its consumer",
                            )
                        )
                    tele.transfer(time, ch, item, is_token)
                    if dup:
                        dup = False
                        items.append(item)
                        counter.value = stamp = counter.value + 1
                        ch.seqs.append(stamp)
                        ch.total_data += 1
                        occupancy = len(items)
                        if occupancy > ch.max_occupancy:
                            ch.max_occupancy = occupancy
                        if checked and occupancy > input_cap:
                            violations.append(
                                _Violation(
                                    time=time,
                                    where=f"{ch.src}->{ch.dst}.{ch.dst_port}",
                                    detail="input overran its consumer",
                                )
                            )
                        tele.transfer(time, ch, item, is_token)
                    if queued_polls.get(dst) != time:
                        queued_polls[dst] = time
                        heappush(events, (time, _POLL, next_seq(), dst))
                        if len(events) > peak_heap:
                            peak_heap = len(events)

        # --- NoC timing model (inert and absent when opts.noc is None) ---
        # The third deliver variant: inter-element data transfers are
        # routed XY over the mesh with per-link contention and land as
        # _ARRIVE events; local/off-chip transfers and control tokens
        # keep the seed's instant-push semantics (tokens additionally
        # never overtake data in flight on their channel).  A separate
        # closure again keeps the NoC-off deliver byte-identical.
        noc = opts.noc
        nstats = NocStats()
        noc_push = None
        if noc is not None:
            placed_tiles = noc.placement.tiles
            need = set(proc_states) | set(getattr(self.mapping, "spares", ()))
            unplaced = sorted(p for p in need if p not in placed_tiles)
            if unplaced:
                raise SimulationError(
                    "NoC placement has no tiles for processors "
                    f"{unplaced}; it covers {sorted(placed_tiles)}"
                )
            nstats.cols = noc.chip.cols
            clock_for_noc = self.processor.clock_hz
            hop_s = noc.per_hop_cycles / clock_for_noc
            ser_cpe = noc.serialization_cycles_per_element
            link_busy: dict[int, float] = {}
            link_busy_s = nstats.link_busy_s
            route_cache: dict[tuple[int, int], tuple[int, ...]] = {}
            route_strs: dict[tuple[int, int], str] = {}
            link_labels: dict[int, str] = {}
            #: id(channel) -> latest scheduled arrival (FIFO fence).
            ch_last: dict[int, float] = {}

            def noc_push(time: float, ch, dst, checked: bool, item,
                         is_token: bool, meta) -> None:
                """Land one item on its channel (shared by the local path
                and the _ARRIVE handler); mirrors the seed's inlined
                Channel.push exactly."""
                nonlocal peak_heap
                items = ch.items
                items.append(item)
                counter = ch.seq
                counter.value = stamp = counter.value + 1
                ch.seqs.append(stamp)
                if is_token:
                    ch.total_tokens += 1
                else:
                    ch.total_data += 1
                occupancy = len(items)
                if occupancy > ch.max_occupancy:
                    ch.max_occupancy = occupancy
                if checked and occupancy > input_cap:
                    violations.append(
                        _Violation(
                            time=time,
                            where=f"{ch.src}->{ch.dst}.{ch.dst_port}",
                            detail="input overran its consumer",
                        )
                    )
                if tele is not None:
                    if meta is None:
                        tele.transfer(time, ch, item, is_token)
                    else:
                        hops, wait, rstr, links = meta
                        tele.transfer(time, ch, item, is_token, hops=hops,
                                      link_wait_s=wait, route=rstr,
                                      links=links)
                if queued_polls.get(dst) != time:
                    queued_polls[dst] = time
                    heappush(events, (time, _POLL, next_seq(), dst))
                    if len(events) > peak_heap:
                        peak_heap = len(events)

            def deliver(time: float, st_src: _KernelState, port: str,
                        item) -> None:
                nonlocal peak_heap
                is_token = isinstance(item, ControlToken)
                ser_s = 0.0 if is_token else item.size * ser_cpe / clock_for_noc
                dup = False
                for ch, dst, checked in st_src.out.get(port, ()):
                    if (ch_faulted is not None and not is_token
                            and id(ch) in ch_faulted):
                        # Interconnect faults strike at injection, before
                        # the transfer occupies any link.
                        if injector.transfer_dropped():
                            if tele is not None:
                                tele.transfer_dropped(time, ch)
                            continue
                        dup = injector.transfer_duplicated()
                    sp = st_src.proc
                    dp = dst.proc
                    if sp is None or dp is None or sp is dp:
                        route = ()
                    else:
                        key = (sp.index, dp.index)
                        route = route_cache.get(key)
                        if route is None:
                            route = route_cache[key] = noc.route(*key)
                    copies = 2 if dup else 1
                    dup = False
                    for _ in range(copies):
                        if not route:
                            if not is_token:
                                nstats.transfers_local += 1
                            noc_push(time, ch, dst, checked, item,
                                     is_token, None)
                            continue
                        chid = id(ch)
                        last = ch_last.get(chid, 0.0)
                        links_meta = ()
                        if is_token:
                            # Control plane: free, but FIFO per channel.
                            arrival = time if time > last else last
                            wait = 0.0
                            nstats.control_transfers += 1
                        else:
                            t = time
                            wait = 0.0
                            track = tele is not None
                            if track:
                                links_meta = []
                            for link in route:
                                busy = link_busy.get(link, 0.0)
                                start = busy if busy > t else t
                                wait += start - t
                                end = start + ser_s
                                link_busy[link] = end
                                link_busy_s[link] = (
                                    link_busy_s.get(link, 0.0) + ser_s
                                )
                                if track:
                                    label = link_labels.get(link)
                                    if label is None:
                                        label = link_labels[link] = \
                                            link_name(link, nstats.cols)
                                    links_meta.append((label, start, end))
                                t = start + hop_s
                            arrival = t + ser_s
                            if arrival < last:
                                arrival = last
                            nstats.transfers_routed += 1
                            nstats.total_hops += len(route)
                            nstats.link_wait_s += wait
                        ch_last[chid] = arrival
                        meta = None
                        if tele is not None and not is_token:
                            rstr = route_strs.get(key)
                            if rstr is None:
                                rstr = route_strs[key] = \
                                    route_path(route, nstats.cols)
                            meta = (len(route), wait, rstr,
                                    tuple(links_meta))
                        heappush(events, (arrival, _ARRIVE, next_seq(),
                                          (ch, dst, checked, item,
                                           is_token, meta)))
                        if len(events) > peak_heap:
                            peak_heap = len(events)

        # --- startup: init methods, then lazy source cursors -------------
        for name, rk in runtimes.items():
            for result in rk.run_init():
                st = states[name]
                for port, item in result.emissions:
                    deliver(0.0, st, port, item)

        # One cursor per source, ordered constant-sources-then-inputs so
        # t=0 coefficient/bin loads beat the first data element (the same
        # ordering the functional executor and the seed loop guarantee).
        # The cursor's heap tie-breaker is its source index, which equals
        # the seed's pre-push sequence ordering at every shared timestamp.
        horizon = 0.0
        source_states: list[_KernelState] = []
        source_iters: list[Iterator[tuple[float, Item]]] = []
        for name, rk in runtimes.items():
            if isinstance(rk.kernel, ConstantSource):
                source_states.append(states[name])
                source_iters.append(
                    iter(((0.0, rk.kernel.values.copy()),))
                )
        for name, rk in runtimes.items():
            kernel = rk.kernel
            if isinstance(kernel, ApplicationInput):
                source_states.append(states[name])
                source_iters.append(_timed_source_items(kernel, opts.frames))
                horizon = max(horizon, opts.frames / kernel.rate_hz)
        source_heads: list[tuple[float, Item] | None] = []
        for idx, it in enumerate(source_iters):
            head = next(it, None)
            source_heads.append(head)
            if head is not None:
                heappush(events, (head[0], _DELIVER, idx, idx))
        if len(events) > peak_heap:
            peak_heap = len(events)

        # --- replay seam (None unless an eligible replay run) ------------
        # Like faults/telemetry: one precomputed local, `is not None`
        # checks only.  The loop drops it (back to None) for good when
        # the detector gives up or no plan pays.
        replayer: Replayer | None = None
        # The seam's hooks: per firing while noting, per event while
        # recording (see Replayer).
        record = note = None
        if replay is not None:
            from .replay import Replayer, emit_sig, firing_key

            replayer = Replayer(
                replay, self.processor, opts, horizon, states.values(),
                events, next_seq,
                queued_polls, source_states, source_iters, source_heads,
                violations, budget_overruns,
            )
            record = replayer.recorder
            note = replayer.noter

        # --- main loop ---------------------------------------------------
        makespan = 0.0
        processed = 0
        max_events = opts.max_events
        bounded = (
            opts.channel_capacity is not None
            or bool(opts.channel_capacity_overrides)
        )
        clock = self.processor.clock_hz
        rcpe = self.processor.read_cycles_per_element
        wcpe = self.processor.write_cycles_per_element

        def on_dead(ps: _ProcState, time: float) -> None:
            """Observe (lazily, at a poll) that ``ps`` is past its death time.

            Fail-stop at firing boundaries: an in-flight firing completes,
            then the element never starts another.  The first observation
            marks it dead and — policy and spares permitting — migrates
            its whole kernel group to a spare element, which only accepts
            work after ``migration_cycles`` of state transfer.  Spares
            inherit the scenario's slow/death schedule, so a doomed spare
            chains into the next migration.
            """
            nonlocal peak_heap
            if ps.dead:
                return
            ps.dead = True
            fstats.pe_deaths += 1
            if tele is not None:
                tele.pe_death(time, ps.index)
            if recovery.migrate and spare_pool:
                new_idx = spare_pool.pop(0)
                new = proc_states.get(new_idx)
                if new is None:
                    new = proc_states[new_idx] = _ProcState(new_idx)
                    new.dead_at = dead_map.get(new_idx)
                    new.slow = slow_map.get(new_idx, 1.0)
                ready_at = time + recovery.migration_cycles / clock
                if new.free_at < ready_at:
                    new.free_at = ready_at
                fstats.migrations += 1
                fstats.recovery_latency_s += ready_at - ps.dead_at
                if tele is not None:
                    tele.migration(time, ps.index, new.index, ready_at,
                                   sorted(ps.kernels))
                new.kernels |= ps.kernels
                for kst in ps.pending:
                    if kst not in new.pending:
                        new.pending.append(kst)
                ps.pending.clear()
                # Sorted for determinism: set order varies across
                # processes (hash randomization), replays must not.
                for name in sorted(ps.kernels):
                    kst = states[name]
                    kst.proc = new
                    if queued_polls.get(kst) != ready_at:
                        queued_polls[kst] = ready_at
                        heappush(events, (ready_at, _POLL, next_seq(), kst))
                if len(events) > peak_heap:
                    peak_heap = len(events)
                ps.moved_to = new
            else:
                # No spare (or no migration policy): the group stalls
                # forever — a permanent, unrecovered service loss.
                fstats.unrecovered += 1
                ps.moved_to = None

        while events:
            time, kind, _, payload = heappop(events)
            if replayer is not None:
                rel = 1 if time > makespan else 0
                if rel:
                    walked = None
                    if record is None and note is None:  # armed
                        walked = replayer.walk(time, kind, payload,
                                               makespan, processed)
                        if walked is not None:
                            processed, makespan = walked
                    record = replayer.recorder
                    note = replayer.noter
                    if replayer.off:
                        replay.stopped_at_event = processed
                        replayer = None
                    if walked is not None:
                        continue
            makespan = time  # heap pops are time-ordered: last pop wins

            if kind == _POLL:
                processed += 1
                if processed > max_events:
                    raise SimulationError(
                        f"simulation exceeded {max_events} events; "
                        "the application is likely livelocked"
                    )
                st = payload
                # The entry (when present) always equals this poll's time:
                # polls are deduped per timestamp and future deliveries
                # cannot precede this pop in heap order.
                queued_polls.pop(st, None)
                if st.running:
                    if record is not None:
                        record((_OP_RUN, rel, id(st)))
                    continue
                ps = st.proc
                if ps is None:
                    # Off-chip boundary kernel: executes instantly.
                    st_ready = st.ready
                    st_execute = st.execute
                    io = ([] if record is not None or note is not None
                          else None)
                    while True:
                        firing = st_ready()
                        if firing is None:
                            break
                        result = st_execute(firing)
                        if tele is not None:
                            tele.io_firing(time, st, firing, result)
                        if bounded:
                            for port in firing.consume_ports:
                                src = st.wake.get(port)
                                if src is not None and \
                                        queued_polls.get(src) != time:
                                    queued_polls[src] = time
                                    heappush(events,
                                             (time, _POLL, next_seq(), src))
                        if st.is_output and firing.kind == "method":
                            times_out = st.output_times
                            for _port in firing.consume_ports:
                                times_out.append(time)
                        for port, item in result.emissions:
                            deliver(time, st, port, item)
                        if io is not None:
                            io.append((firing, result.emissions))
                    if io is not None:
                        replayer.record_io(rel, st, io)
                else:
                    if (injector is not None and ps.dead_at is not None
                            and time >= ps.dead_at):
                        # Dead element: migrate its kernels (or stall them
                        # forever); either way this poll is over.
                        on_dead(ps, time)
                        continue
                    if ps.free_at > time:
                        pending = ps.pending
                        if st not in pending:
                            pending.append(st)
                        if record is not None:
                            record((_OP_PARK, rel, id(st)))
                        continue
                    firing = st.ready()
                    if firing is None:
                        if (injector is not None and recovery.shed
                                and (fstats.data_shed
                                     or fstats.transfers_dropped)
                                and _resync_shed(st, fstats, tele, time)):
                            firing = st.ready()
                        if firing is None:
                            if record is not None:
                                record((_OP_EMPTY, rel, id(st)))
                            continue
                    if bounded:
                        me = st.max_emissions
                        blocked = False
                        for ch in st.out_channels:
                            cap = ch.capacity
                            if cap is not None and len(ch.items) + me > cap:
                                blocked = True
                                break
                        if blocked:
                            # Backpressure stall: re-polled when a
                            # consumer frees space.
                            if tele is not None:
                                tele.stall(time, st.name, ps.index)
                            continue
                    if injector is not None:
                        # The firing index counts *executed* firings, so a
                        # retried attempt consults the same schedule slot.
                        if injector.firing_faulted(st.name, st.rk.firings):
                            if st.attempts < recovery.max_retries:
                                # Retry with backoff: the element burns the
                                # attempt's declared cycles detecting the
                                # fault, then idles through the backoff.
                                if st.attempts == 0:
                                    st.fault_since = time
                                st.attempts += 1
                                fstats.retries += 1
                                method = firing.method
                                declared = (method.cost.cycles
                                            if method is not None
                                            else FORWARD_CYCLES)
                                detect_s = declared / clock * ps.slow
                                backoff_s = (recovery.backoff_cycles
                                             * st.attempts / clock)
                                ps.run_s += detect_s
                                ps.free_at = time + detect_s + backoff_s
                                st.running = True
                                if trace_on or tele is not None:
                                    label = (method.name
                                             if method is not None
                                             else "<forward>")
                                    if trace_on:
                                        trace.append(TraceEvent(
                                            start_s=time, processor=ps.index,
                                            kernel=st.name,
                                            method=f"fault:{label}",
                                            read_s=0.0, run_s=detect_s,
                                            write_s=0.0,
                                        ))
                                    if tele is not None:
                                        tele.fault_retry(
                                            time, ps.index, st.name, label,
                                            detect_s, backoff_s,
                                        )
                                heappush(events,
                                         (ps.free_at, _FINISH, next_seq(),
                                          (st, None)))
                                if len(events) > peak_heap:
                                    peak_heap = len(events)
                                continue
                            # Retries exhausted: the firing still runs (its
                            # inputs must drain for the stream to advance)
                            # but its data is sacrificed below.
                            faulted_final = True
                            fstats.unrecovered += 1
                            st.attempts = 0
                        else:
                            if st.attempts:
                                fstats.recovered += 1
                                fstats.recovery_latency_s += \
                                    time - st.fault_since
                                st.attempts = 0
                            faulted_final = False
                    result = st.execute(firing)
                    if injector is not None and faulted_final:
                        if recovery.shed:
                            # Shed: drop the data, keep the control tokens
                            # so the frame structure resynchronizes.
                            kept = [
                                (p, it) for p, it in result.emissions
                                if isinstance(it, ControlToken)
                            ]
                            shed = len(result.emissions) - len(kept)
                            fstats.data_shed += shed
                            result.emissions = kept
                            if tele is not None:
                                tele.fault_outcome(
                                    time, st.name, ps.index, "shed", shed
                                )
                        else:
                            # No shedding: corrupted (zeroed) data flows
                            # on — the silent-divergence baseline.
                            fstats.corrupted += 1
                            result.emissions = [
                                (p, np.zeros_like(it)
                                 if isinstance(it, np.ndarray) else it)
                                for p, it in result.emissions
                            ]
                            if tele is not None:
                                tele.fault_outcome(
                                    time, st.name, ps.index, "corrupt", 1
                                )
                    if bounded:
                        for port in firing.consume_ports:
                            src = st.wake.get(port)
                            if src is not None and \
                                    queued_polls.get(src) != time:
                                queued_polls[src] = time
                                heappush(events,
                                         (time, _POLL, next_seq(), src))
                    if result.dynamic and result.cycles > result.declared_cycles:
                        budget_overruns.append(BudgetOverrun(
                            time=time, kernel=st.name, method=result.label,
                            declared_cycles=result.declared_cycles,
                            actual_cycles=result.cycles,
                        ))
                    read_s = result.elements_read * rcpe / clock
                    run_s = result.cycles / clock
                    write_s = result.elements_written * wcpe / clock
                    if injector is not None and ps.slow != 1.0:
                        slow = ps.slow
                        read_s *= slow
                        run_s *= slow
                        write_s *= slow
                    duration = read_s + run_s + write_s
                    ps.read_s += read_s
                    ps.run_s += run_s
                    ps.write_s += write_s
                    ps.firings += 1
                    ps.free_at = time + duration
                    st.running = True
                    if trace_on:
                        trace.append(TraceEvent(
                            start_s=time, processor=ps.index, kernel=st.name,
                            method=result.label, read_s=read_s, run_s=run_s,
                            write_s=write_s,
                        ))
                    if tele is not None:
                        tele.firing(time, ps.index, st, firing, result,
                                    read_s, run_s, write_s)
                    heappush(events,
                             (time + duration, _FINISH, next_seq(),
                              (st, result)))
                    if len(events) > peak_heap:
                        peak_heap = len(events)
                    if record is not None:
                        record((_OP_EXEC, rel, id(st), firing_key(firing),
                                result.cycles, result.elements_read,
                                result.elements_written, result.dynamic,
                                emit_sig(result.emissions)))
                    elif note is not None:
                        note((id(st), firing_key(firing)))

            elif kind == _FINISH:
                processed += 1
                if processed > max_events:
                    raise SimulationError(
                        f"simulation exceeded {max_events} events; "
                        "the application is likely livelocked"
                    )
                st, result = payload
                st.running = False
                if result is not None:
                    for port, item in result.emissions:
                        deliver(time, st, port, item)
                # A None result is a retry sentinel: the faulted attempt's
                # detect+backoff window just ended, so the kernel re-polls
                # (below) and attempts the same firing again.
                ps = st.proc
                if ps is not None:
                    pending = ps.pending
                    pending.append(st)
                    # Poll everything sharing the (now free) element, in
                    # arrival order; only one will win the processor.
                    for other in pending:
                        if queued_polls.get(other) != time:
                            queued_polls[other] = time
                            heappush(events, (time, _POLL, next_seq(), other))
                    pending.clear()
                    if len(events) > peak_heap:
                        peak_heap = len(events)
                if record is not None:
                    record((_OP_FIN, rel, id(st)))

            elif kind == _ARRIVE:
                # NoC arrival: a routed transfer reaches its consumer.
                # Exists only when a NoC model is active, so the three
                # seed event kinds above dispatch exactly as before.
                processed += 1
                if processed > max_events:
                    raise SimulationError(
                        f"simulation exceeded {max_events} events; "
                        "the application is likely livelocked"
                    )
                ch, dst, checked, item, is_token, meta = payload
                noc_push(time, ch, dst, checked, item, is_token, meta)

            else:  # _DELIVER: one source cursor; drain its timestamp batch
                idx = payload
                st = source_states[idx]
                it = source_iters[idx]
                head = source_heads[idx]
                if record is None:
                    while head is not None and head[0] == time:
                        processed += 1
                        deliver(time, st, "out", head[1])
                        head = next(it, None)
                else:
                    kinds = []
                    while head is not None and head[0] == time:
                        processed += 1
                        item = head[1]
                        kinds.append(isinstance(item, ControlToken))
                        deliver(time, st, "out", item)
                        head = next(it, None)
                    record((_OP_SRC, rel, idx, len(kinds), tuple(kinds)))
                source_heads[idx] = head
                if head is not None:
                    heappush(events, (head[0], _DELIVER, idx, idx))
                    if len(events) > peak_heap:
                        peak_heap = len(events)
                if processed > max_events:
                    raise SimulationError(
                        f"simulation exceeded {max_events} events; "
                        "the application is likely livelocked"
                    )

        duration = max(makespan, horizon)
        utilization = UtilizationSummary(
            duration_s=duration,
            processors={
                proc: ps.to_stats() for proc, ps in proc_states.items()
            },
        )
        output_times = {
            name: states[name].output_times
            for name, rk in runtimes.items()
            if isinstance(rk.kernel, ApplicationOutput)
        }
        outputs = {
            name: list(rk.kernel.received)
            for name, rk in runtimes.items()
            if isinstance(rk.kernel, ApplicationOutput)
        }
        if replay is not None:
            replay.events_interpreted = processed - replay.events_replayed
        return SimulationResult(
            app=self.graph,
            options=opts,
            makespan_s=makespan,
            utilization=utilization,
            output_times=output_times,
            outputs=outputs,
            violations=violations,
            channels=channels,
            firings={name: rk.firings for name, rk in runtimes.items()},
            trace=trace,
            budget_overruns=budget_overruns,
            events_processed=processed,
            peak_heap=peak_heap,
            fault_stats=fstats,
            telemetry=tele.finalize(makespan) if tele is not None else None,
            noc_stats=nstats if noc is not None else None,
            replay=replay,
        )


def simulate(
    compiled: CompiledApp, options: SimulationOptions | None = None
) -> SimulationResult:
    """Simulate a compiled application on its mapping."""
    sim = Simulator(compiled.graph, compiled.mapping, compiled.processor, options)
    return sim.run()
