"""Timing-accurate functional simulator and untimed golden executor.

Two event loops live here: the optimized hot path (:mod:`.simulator`)
and the frozen seed implementation (:mod:`.reference`).  Quasi-static
schedule replay (:mod:`.replay`, opt-in via
``SimulationOptions(replay=True)``) is a seam on the hot path that walks
locked steady-state periods, with batched kernel bodies (:mod:`.batch`).
The conformance and differential suites prove every configuration
observably identical; the benchmark suite measures speedups against the
reference.
"""

from .functional import FunctionalResult, run_functional
from .reference import ReferenceSimulator, reference_simulate
from .replay import ReplayStats
from .runtime import Channel, RuntimeKernel, build_runtime
from .simulator import (
    BudgetOverrun,
    SimulationOptions,
    SimulationResult,
    Simulator,
    simulate,
)
from .stats import ProcessorStats, RealTimeVerdict, UtilizationSummary
from .trace import (
    TraceEvent,
    busy_time_by_processor,
    event_as_dict,
    gantt,
    trace_digest,
)

__all__ = [
    "FunctionalResult",
    "run_functional",
    "Channel",
    "RuntimeKernel",
    "build_runtime",
    "BudgetOverrun",
    "SimulationOptions",
    "SimulationResult",
    "Simulator",
    "simulate",
    "ReferenceSimulator",
    "reference_simulate",
    "ReplayStats",
    "ProcessorStats",
    "RealTimeVerdict",
    "UtilizationSummary",
    "TraceEvent",
    "busy_time_by_processor",
    "event_as_dict",
    "gantt",
    "trace_digest",
]
