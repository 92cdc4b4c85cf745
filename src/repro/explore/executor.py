"""Parallel sweep execution: compile→simulate→measure as fault-isolated jobs.

This module is the one job engine behind both sweep front ends,
:func:`run_sweep` (``repro explore``) and
:class:`repro.serve.SweepService` (``repro serve``).  They share three
pieces and differ only in how they queue and narrate jobs:

* :func:`run_job_isolated`, the only attempt primitive: one job in its
  own *single-worker* :class:`concurrent.futures.ProcessPoolExecutor`,
  so a crashing or hanging design point cannot take the sweep (or the
  parent interpreter) down, a broken pool identifies its crasher
  exactly, and terminating a hung worker touches nothing else.  (Worker
  processes are per-attempt; with the ``fork`` start method that costs
  milliseconds against jobs that compile and simulate for hundreds.)
* :func:`decide_attempt`, the one retry policy;
* :func:`job_record`, the one terminal-record layout.

The policy guarantees **exactly one terminal record per job**:

* a normal completion records a ``result``;
* a Python exception in the worker is classified — deterministic compile
  errors (:class:`~repro.errors.BlockParallelError`) fail immediately,
  anything else retries with bounded backoff up to ``retries`` times
  before recording a ``failure`` of kind ``error``;
* a worker that dies (segfault, ``os._exit``) breaks its pool and is
  charged a ``crash`` attempt (retryable: transient infrastructure kills
  exist), terminal after ``retries``;
* a job past its deadline is recorded as kind ``timeout`` (terminal by
  default — a deterministic hang only wastes the budget again; opt into
  ``retry_timeouts`` for flaky-infrastructure setups) and its worker
  process is terminated.

:func:`run_sweep` holds at most ``workers`` attempts in flight, each on
a thread blocked in :func:`run_job_isolated`; events, chaos draws and
the policy stay on the calling thread.  Results are stored through the
content-addressed cache (hits skip execution entirely) and appended to
the JSONL store.  ``workers=0`` selects in-process serial execution —
no isolation and no timeouts, but trivially debuggable — under the same
policy.

Supervision (opt-in, from :mod:`repro.chaos`):

* ``heartbeat_s`` arms a **watchdog**: workers touch a heartbeat file
  on a short interval, and a worker silent past the deadline is killed
  and charged a retryable ``crash`` — a wedged process then costs one
  heartbeat window, not its full wall-clock timeout.
* ``quarantine_after`` arms **poison-job quarantine**: a fingerprint
  that crashes that many consecutive times is parked with a terminal
  ``quarantined`` record instead of burning the whole retry budget.
* Retry backoff is **bounded** at ``backoff_max_s`` with deterministic
  fingerprint-keyed jitter (see :func:`repro.chaos.backoff_delay`), so
  shared-cause failures do not synchronize into retry herds.

A :class:`~repro.chaos.ChaosInjector` passed as ``chaos`` injects
worker crashes/hangs/slowdowns per ``(fingerprint, attempt)`` in the
pooled path (the serial path has no worker process to break and runs
clean), and every record written under it is marked ``"chaos": true``.
All of this sits behind ``None``/``0`` defaults: a chaos-free sweep
takes none of these branches.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import tempfile
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures import TimeoutError as _FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..chaos.inject import ChaosInjector
from ..chaos.watchdog import (
    QuarantineLedger,
    backoff_delay,
    heartbeat_stale,
    start_heartbeat,
)
from ..errors import BlockParallelError
from ..sim.simulator import SimulationOptions, simulate
from ..transform.compile import compile_application
from .cache import ResultCache
from .events import (
    JobCacheHit,
    JobFailed,
    JobFinished,
    JobRetried,
    JobScheduled,
    JobStarted,
    SweepEvent,
    SweepFinished,
    SweepStarted,
)
from .spec import Job
from .store import ResultStore, SweepReport, aggregate

__all__ = [
    "SweepOptions",
    "SweepResult",
    "run_sweep",
    "execute_job",
    "run_job_isolated",
    "Verdict",
    "decide_attempt",
    "job_record",
]

#: Results/failures written by this executor.
RESULT_SCHEMA = 1


@dataclass(frozen=True, slots=True)
class SweepOptions:
    """Execution knobs of the job engine, shared by both front ends.

    The defaults are the one-shot ``repro explore`` ones; the resident
    service starts from :data:`repro.serve.scheduler.SERVICE_OPTIONS`.
    """

    #: Concurrent attempts, each in its own worker process.  ``run_sweep``
    #: runs 0 serially in-process and -1 as one per CPU but one;
    #: the service runs at least one.
    workers: int = 0
    #: Extra attempts after the first failure of a retryable kind.
    retries: int = 2
    #: Base of the exponential retry backoff, seconds.
    backoff_s: float = 0.1
    #: Cap on the exponential backoff, seconds (jittered below it).
    backoff_max_s: float = 5.0
    #: Whether a timed-out job is retried (default: terminal).
    retry_timeouts: bool = False
    #: Granularity of the deadline, watchdog and cancel checks inside an
    #: attempt (and of the sweep loop), seconds.
    poll_s: float = 0.05
    #: Watchdog heartbeat deadline, seconds; None disarms the watchdog.
    heartbeat_s: float | None = None
    #: Consecutive crashes before a fingerprint is quarantined; 0 = off
    #: (the historical behaviour: crashes spend the retry budget).
    quarantine_after: int = 0

    def resolved_workers(self) -> int:
        if self.workers < 0:
            return max(1, (os.cpu_count() or 2) - 1)
        return self.workers


@dataclass(slots=True)
class SweepResult:
    """Terminal records for every job, in job order."""

    sweep: str
    records: list[dict[str, Any]]
    elapsed_s: float

    @property
    def succeeded(self) -> int:
        return sum(1 for r in self.records if r["kind"] == "result")

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r["kind"] == "failure")

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.records if r.get("cache_hit"))

    def report(self) -> SweepReport:
        return aggregate(self.records)

    def describe(self) -> str:
        return self.report().describe()


# ---------------------------------------------------------------------------
# Job execution (runs inside workers; also the serial path)


def _apply_injection(job: Job) -> None:
    """Test/ops failure hooks; a no-op for real jobs."""
    inject = job.inject_dict
    mode = inject.get("mode")
    if not mode:
        return
    if mode == "hang":
        time.sleep(float(inject.get("sleep_s", 3600.0)))
    elif mode == "crash":
        os._exit(int(inject.get("exit_code", 13)))
    elif mode == "error":
        raise RuntimeError(inject.get("message", "injected failure"))
    elif mode == "flaky":
        # Fail the first ``fail_times`` attempts, succeed afterwards.
        # Attempts are counted through marker files because each attempt
        # may land in a different worker process.
        marker_dir = inject["marker_dir"]
        fail_times = int(inject.get("fail_times", 1))
        os.makedirs(marker_dir, exist_ok=True)
        prefix = job.fingerprint[:16]
        seen = sum(1 for f in os.listdir(marker_dir)
                   if f.startswith(prefix))
        if seen < fail_times:
            with open(os.path.join(marker_dir, f"{prefix}.{seen}"),
                      "w", encoding="utf-8"):
                pass
            raise RuntimeError(
                f"injected flaky failure {seen + 1}/{fail_times}"
            )
    else:
        raise RuntimeError(f"unknown injection mode {mode!r}")


def _noc_model(job: Job, compiled) -> Any:
    """Build the job's :class:`~repro.machine.noc.NocModel`, or None."""
    if not job.noc:
        return None
    from ..machine import (
        NocModel,
        anneal_placement,
        fit_chip,
        row_major_placement,
    )

    knobs = dict(job.noc)
    chip = fit_chip(
        compiled.mapping.processor_count
        + len(getattr(compiled.mapping, "spares", ())),
        compiled.processor,
        mesh=knobs.get("mesh"),
    )
    strategy = job.placement or "row-major"
    if strategy == "row-major":
        placement = row_major_placement(compiled.mapping, chip)
    else:
        placement = anneal_placement(
            compiled.mapping, compiled.dataflow, chip,
            seed=0, objective=strategy,
        )
    return NocModel(
        placement=placement,
        per_hop_cycles=knobs["per_hop_cycles"],
        serialization_cycles_per_element=(
            knobs["serialization_cycles_per_element"]
        ),
    )


def execute_job(job: Job) -> dict[str, Any]:
    """Compile, simulate, and measure one design point.

    Returns the plain-data ``stats`` payload of a result record.  Raises
    on failure; classification happens in the worker wrapper.
    """
    _apply_injection(job)
    started = time.perf_counter()
    app = job.build_app()
    compiled = compile_application(
        app, job.build_processor(), job.build_options()
    )
    fault_spec = job.fault_spec()
    noc = _noc_model(job, compiled)
    sim_started = time.perf_counter()
    result = simulate(
        compiled,
        SimulationOptions(frames=job.frames, faults=fault_spec,
                          telemetry=job.telemetry, noc=noc,
                          replay=job.replay),
    )
    sim_elapsed = time.perf_counter() - sim_started
    output, chunks_per_frame, rate_hz = job.measurement()
    shedding = fault_spec is not None and fault_spec.recovery.shed
    verdict = result.verdict(
        output, rate_hz=rate_hz, chunks_per_frame=chunks_per_frame,
        frames=job.frames, allow_shedding=shedding,
    )
    stats: dict[str, Any] = {
        "processor_count": compiled.processor_count,
        "kernel_count": compiled.kernel_count(),
        "avg_utilization": result.utilization.average_utilization,
        "components": result.utilization.component_fractions(),
        "meets": verdict.meets,
        "worst_interval_s": (
            None if verdict.worst_interval_s == float("inf")
            else verdict.worst_interval_s
        ),
        "input_overruns": verdict.input_overruns,
        "rate_hz": rate_hz,
        "frames": job.frames,
        "makespan_s": result.makespan_s,
        "elapsed_s": time.perf_counter() - started,
        # Simulator throughput, the BENCH_sim.json trajectory metric:
        # sweeps dominated by simulation surface regressions here first.
        "events": result.events_processed,
        "sim_elapsed_s": sim_elapsed,
        "events_per_s": (
            result.events_processed / sim_elapsed if sim_elapsed > 0 else 0.0
        ),
    }
    if fault_spec is not None and fault_spec.active():
        # Degradation accounting rides along, so fault scenarios sweep —
        # and report — like any other design axis.
        stats["faults"] = result.fault_stats.as_dict()
        stats["frames_shed"] = verdict.frames_shed
        stats["unrecovered_faults"] = result.fault_stats.unrecovered
    if result.noc_stats is not None:
        # Link-level congestion rides along like fault stats do, so the
        # placement/NoC axes report their effect next to the makespan.
        stats["noc"] = {
            "placement": job.placement or "row-major",
            **result.noc_stats.as_dict(result.makespan_s),
        }
    if result.replay is not None:
        # Execution-strategy accounting rides along so a replay axis
        # reports its engagement next to the events/s it bought.
        stats["replay"] = result.replay.as_dict()
    if result.telemetry is not None:
        from ..obs import analyze_critical_path

        path = analyze_critical_path(result.telemetry)
        stats["telemetry"] = {
            "spans": result.telemetry.span_counts(),
            "dropped_spans": result.telemetry.dropped_spans,
            "critical_path": path.as_dict(),
        }
    return stats


def _worker(job_dict: dict[str, Any],
            chaos_action: dict[str, Any] | None = None,
            heartbeat: str | None = None,
            heartbeat_interval_s: float = 0.0) -> dict[str, Any]:
    """Pool entry point: never raises, so every Python-level failure comes
    back as data (exceptions crossing the pool boundary are reserved for
    dead workers).

    ``chaos_action`` is a pre-drawn injector decision (the parent draws
    it so the worker stays deterministic); ``heartbeat`` is the watchdog
    file this worker must keep fresh while it is healthy.
    """
    action = chaos_action or {}
    if action.get("mode") == "hang":
        # A wedged worker heartbeats nothing: deliberately do NOT start
        # the heartbeat thread, so the parent's watchdog observes the
        # exact silence a real hang (stuck in C, SIGSTOP, swap death)
        # produces.
        while True:  # pragma: no cover - killed by parent
            time.sleep(3600.0)
    stop = None
    if heartbeat is not None and heartbeat_interval_s > 0.0:
        stop = start_heartbeat(heartbeat, heartbeat_interval_s)
    try:
        if action.get("mode") == "crash":
            os._exit(23)  # hard death: breaks the pool, blamed as crash
        if action.get("mode") == "slow":
            time.sleep(float(action.get("delay_s", 0.0)))
        job = Job.from_dict(job_dict)
        try:
            return {"ok": True, "stats": execute_job(job)}
        except BlockParallelError as exc:
            return {"ok": False, "kind": "compile-error",
                    "message": f"{type(exc).__name__}: {exc}",
                    "retryable": False}
        except BaseException as exc:  # noqa: BLE001 - isolation boundary
            return {"ok": False, "kind": "error",
                    "message": f"{type(exc).__name__}: {exc}",
                    "retryable": True}
    finally:
        if stop is not None:
            stop.set()


# ---------------------------------------------------------------------------
# The attempt primitive


def _mp_context():
    # fork keeps worker startup at microseconds (no numpy re-import);
    # fall back to spawn where fork does not exist.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _worker_init() -> None:
    """Reset signal state inherited over ``fork``.

    A forked worker inherits the parent's signal wakeup fd (asyncio's
    self-pipe when the parent is ``repro serve``) and its no-op Python
    handlers.  Left alone, terminating the worker would write SIGTERM
    into the *shared* pipe and the parent's event loop would dispatch
    its own shutdown handler; and the inherited no-op handler would let
    a hung worker shrug off ``terminate()``.  Detach the fd and restore
    default dispositions so signals stay within this process.
    """
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, signal.SIG_DFL)
        except (ValueError, OSError):  # pragma: no cover
            pass


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Shut a pool down even when workers are hung or dead.

    ``shutdown`` alone never interrupts a busy worker, so the worker
    processes are terminated explicitly; ``_processes`` is stdlib-private
    but stable across supported versions, and the fallback is merely a
    slower (blocking) shutdown.
    """
    processes = list(getattr(pool, "_processes", {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in processes:
        try:
            proc.terminate()
        except (OSError, ValueError):  # pragma: no cover - already dead
            pass


def run_job_isolated(
    job: Job,
    *,
    timeout_s: float | None = None,
    cancel: threading.Event | None = None,
    poll_s: float = 0.05,
    heartbeat_s: float | None = None,
    chaos_action: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """One job attempt in its own single-worker pool, cancellable.

    The one blocking attempt primitive: :func:`run_sweep`'s pooled path
    and :mod:`repro.serve` both run it on worker threads, with a
    cooperative ``cancel`` event.  Returns a payload shaped like the
    pool ``_worker``'s — ``{"ok": True, "stats": ...}`` or ``{"ok":
    False, "kind": ..., "message": ..., "retryable": ...}`` — with two
    additional failure kinds the in-process worker cannot produce:

    * ``"timeout"`` once ``timeout_s`` (default: the job's own
      ``timeout_s``) of wall clock elapses;
    * ``"cancelled"`` as soon as ``cancel`` is observed set (checked
      every ``poll_s``); the worker process is terminated either way.

    ``heartbeat_s`` arms the watchdog: the worker touches a heartbeat
    file every quarter-deadline, and a file stale past ``heartbeat_s``
    gets the worker killed and charged a retryable ``crash`` (the
    payload carries ``"watchdog": True``) — long before the wall-clock
    budget would have noticed.  ``chaos_action`` is a pre-drawn
    :meth:`~repro.chaos.ChaosInjector.worker_action` decision forwarded
    to the worker.

    The pool is always torn down before returning, so a crashed or hung
    worker never outlives its job.
    """
    budget = job.timeout_s if timeout_s is None else timeout_s
    if cancel is not None and cancel.is_set():
        return {"ok": False, "kind": "cancelled",
                "message": "cancelled before start", "retryable": False}
    hb_path: str | None = None
    hb_interval = 0.0
    if heartbeat_s is not None and heartbeat_s > 0.0:
        fd, hb_path = tempfile.mkstemp(prefix="repro-heartbeat-")
        os.close(fd)
        hb_interval = heartbeat_s / 4.0
    pool = ProcessPoolExecutor(max_workers=1, mp_context=_mp_context(),
                           initializer=_worker_init)
    deadline = time.monotonic() + budget
    try:
        future = pool.submit(_worker, job.to_dict(), chaos_action,
                             hb_path, hb_interval)
        while True:
            try:
                return future.result(timeout=poll_s)
            except _FutureTimeout:
                pass
            except BrokenProcessPool:
                return {"ok": False, "kind": "crash",
                        "message": "worker process died", "retryable": True}
            if cancel is not None and cancel.is_set():
                return {"ok": False, "kind": "cancelled",
                        "message": "cancelled mid-flight",
                        "retryable": False}
            if (hb_path is not None
                    and heartbeat_stale(hb_path, heartbeat_s)):
                return {"ok": False, "kind": "crash",
                        "message": (f"watchdog: no heartbeat for "
                                    f"{heartbeat_s:g}s; worker killed"),
                        "retryable": True, "watchdog": True}
            if time.monotonic() >= deadline:
                return {"ok": False, "kind": "timeout",
                        "message": f"exceeded {budget:g}s wall clock",
                        "retryable": False}
    finally:
        _terminate_pool(pool)
        if hb_path is not None:
            try:
                os.unlink(hb_path)
            except OSError:  # pragma: no cover - already gone
                pass


# ---------------------------------------------------------------------------
# The retry policy and the record layout


@dataclass(frozen=True, slots=True)
class Verdict:
    """The retry policy's decision on one attempt.

    ``action`` is ``"result"`` (``stats`` holds the attempt's stats),
    ``"retry"`` (after ``delay_s``) or ``"fail"`` (terminal, of failure
    ``kind`` — ``"quarantined"`` for a parked crash loop).
    """

    action: str
    kind: str = ""
    message: str = ""
    stats: dict[str, Any] | None = None
    delay_s: float = 0.0

    def event(self, job: Job, attempt: int) -> SweepEvent:
        """The event narrating this verdict on ``job``'s ``attempt``."""
        if self.action == "result":
            stats = self.stats
            return JobFinished(
                job.label,
                elapsed_s=stats.get("elapsed_s", 0.0),
                meets=bool(stats.get("meets")),
                processor_count=int(stats.get("processor_count", 0)),
            )
        if self.action == "retry":
            return JobRetried(job.label, attempt=attempt,
                              reason=f"{self.kind}: {self.message}",
                              delay_s=self.delay_s)
        return JobFailed(job.label, kind=self.kind, message=self.message,
                         attempts=attempt)


def decide_attempt(payload: Mapping[str, Any], attempt: int,
                   options: SweepOptions, quarantine: QuarantineLedger,
                   fingerprint: str) -> Verdict:
    """The one retry policy: what attempt number ``attempt`` leads to.

    A success clears the fingerprint's crash strikes.  A ``crash`` is
    charged to ``quarantine`` first and parks the fingerprint once its
    budget runs out.  Otherwise a retryable failure retries while
    ``attempt <= options.retries``, after the bounded, key-jittered
    :func:`~repro.chaos.backoff_delay`.  A ``timeout`` is retryable
    exactly when ``options.retry_timeouts``; any other kind as its
    payload says, where a payload that does not say is retried.
    """
    if payload.get("ok"):
        quarantine.clear(fingerprint)
        return Verdict("result", stats=payload["stats"])
    kind = payload.get("kind", "error")
    message = payload.get("message", "unknown failure")
    if kind == "crash":
        reason = quarantine.record_crash(fingerprint, message)
        if reason is not None:
            return Verdict("fail", "quarantined", reason)
    if kind == "timeout":
        retryable = options.retry_timeouts
    else:
        retryable = bool(payload.get("retryable", True))
    if retryable and attempt <= options.retries:
        delay = backoff_delay(attempt, options.backoff_s,
                              options.backoff_max_s, key=fingerprint)
        return Verdict("retry", kind, message, delay_s=delay)
    return Verdict("fail", kind, message)


def job_record(job: Job, verdict: Verdict, attempts: int, *,
               chaos: bool = False, **context: Any) -> dict[str, Any]:
    """The terminal record of ``job`` under a ``result``/``fail`` verdict.

    ``context`` fields (the service's ``run`` and ``tenant``) follow
    ``sweep``.  ``chaos`` marks a record produced with fault injection
    armed: records share one content-addressed cache, and an analysis
    must never mistake a chaos run's result for a clean one.
    """
    record: dict[str, Any] = {
        "result_schema": RESULT_SCHEMA,
        "sweep": job.sweep,
        **context,
        "kind": "result" if verdict.action == "result" else "failure",
        "label": job.label,
        "fingerprint": job.fingerprint,
        "job": job.to_dict(),
    }
    if chaos:
        record["chaos"] = True
    record["attempts"] = attempts
    if verdict.action == "result":
        record["stats"] = verdict.stats
    else:
        if verdict.kind == "quarantined":
            record["quarantined"] = True
        record["failure"] = {"kind": verdict.kind,
                             "message": verdict.message}
    return record


# ---------------------------------------------------------------------------
# The one-shot sweep


@dataclass(slots=True)
class _Attempt:
    job: Job
    index: int
    attempt: int = 1
    not_before: float = 0.0


def run_sweep(
    jobs: Sequence[Job] | Iterable[Job],
    *,
    cache: ResultCache | None = None,
    store: ResultStore | None = None,
    options: SweepOptions = SweepOptions(),
    on_event: Callable[[SweepEvent], None] | None = None,
    resume: Mapping[str, dict[str, Any]] | None = None,
    chaos: ChaosInjector | None = None,
) -> SweepResult:
    """Run every job to exactly one terminal record.

    ``cache`` short-circuits jobs whose fingerprint already has a stored
    result; ``store`` receives every terminal record as one JSONL line;
    ``on_event`` observes progress (see :mod:`repro.explore.events`),
    always from the calling thread; ``resume`` is a fingerprint →
    prior-result mapping (typically
    :func:`~repro.explore.store.completed_records` over an earlier
    store) whose entries short-circuit exactly like cache hits — the
    sweep then completes only the un-cached remainder.  ``chaos``
    injects worker faults into the pooled path and marks the records
    (see the module docstring); ``None`` — the default — is
    observation-free.
    """
    jobs = list(jobs)
    emit = on_event or (lambda event: None)
    sweep_name = jobs[0].sweep if jobs else "empty"
    workers = options.resolved_workers()
    started = time.monotonic()
    emit(SweepStarted(sweep_name, total=len(jobs),
                      workers=workers or 1))

    terminal: dict[int, dict[str, Any]] = {}

    def finish(index: int, record: dict[str, Any]) -> None:
        if index in terminal:  # pragma: no cover - guarded by design
            raise RuntimeError(
                f"job {index} produced a second terminal record"
            )
        terminal[index] = record
        if store is not None:
            store.append(record)

    pending: list[_Attempt] = []
    for index, job in enumerate(jobs):
        cached = cache.get(job.fingerprint) if cache is not None else None
        if cached is None and resume is not None:
            cached = resume.get(job.fingerprint)
        if cached is not None:
            emit(JobCacheHit(job.label, fingerprint=job.fingerprint))
            finish(index, {**cached, "cache_hit": True})
        else:
            emit(JobScheduled(job.label, fingerprint=job.fingerprint))
            pending.append(_Attempt(job=job, index=index))

    quarantine = QuarantineLedger(options.quarantine_after)

    def settle(task: _Attempt, payload: dict[str, Any]) -> None:
        verdict = decide_attempt(payload, task.attempt, options,
                                 quarantine, task.job.fingerprint)
        if verdict.action == "retry":
            emit(verdict.event(task.job, task.attempt))
            task.attempt += 1
            task.not_before = time.monotonic() + verdict.delay_s
            pending.append(task)
            return
        record = job_record(task.job, verdict, task.attempt,
                            chaos=chaos is not None)
        if verdict.action == "result" and cache is not None:
            cache.put(task.job.fingerprint, record)
        finish(task.index, record)
        emit(verdict.event(task.job, task.attempt))

    if workers == 0:
        _run_serial(pending, settle, emit)
    else:
        _run_pooled(pending, workers, options, settle, emit, chaos)

    records = [terminal[i] for i in sorted(terminal)]
    elapsed = time.monotonic() - started
    result = SweepResult(sweep=sweep_name, records=records,
                         elapsed_s=elapsed)
    emit(SweepFinished(sweep_name, total=len(jobs),
                       succeeded=result.succeeded, failed=result.failed,
                       cache_hits=result.cache_hits, elapsed_s=elapsed))
    return result


def _run_serial(pending: list[_Attempt], settle, emit) -> None:
    """In-process execution: no isolation, timeouts not enforced."""
    while pending:
        task = pending.pop(0)
        now = time.monotonic()
        if task.not_before > now:
            time.sleep(task.not_before - now)
        emit(JobStarted(task.job.label, attempt=task.attempt))
        settle(task, _worker(task.job.to_dict()))


def _run_pooled(pending: list[_Attempt], workers: int,
                options: SweepOptions, settle, emit,
                chaos: ChaosInjector | None) -> None:
    """At most ``workers`` attempts in flight, each a thread blocked in
    :func:`run_job_isolated`; everything else stays on this thread."""
    cancel = threading.Event()
    threads = ThreadPoolExecutor(max_workers=workers,
                                 thread_name_prefix="repro-sweep")
    in_flight: dict[Future, _Attempt] = {}
    try:
        while pending or in_flight:
            now = time.monotonic()
            # Top up: launch ready tasks while worker slots are free.
            ready = [t for t in pending if t.not_before <= now]
            while ready and len(in_flight) < workers:
                task = ready.pop(0)
                pending.remove(task)
                action = None
                if chaos is not None:
                    action = chaos.worker_action(
                        task.job.fingerprint, task.attempt,
                        task.job.label,
                    )
                future = threads.submit(
                    run_job_isolated, task.job, cancel=cancel,
                    poll_s=options.poll_s, heartbeat_s=options.heartbeat_s,
                    chaos_action=action,
                )
                in_flight[future] = task
                emit(JobStarted(task.job.label, attempt=task.attempt))
            if not in_flight:
                # Everything pending is backing off; sleep until the
                # earliest becomes ready.
                wake = min(t.not_before for t in pending)
                time.sleep(max(options.poll_s, wake - time.monotonic()))
                continue
            done, _ = wait(in_flight, timeout=options.poll_s,
                           return_when=FIRST_COMPLETED)
            for future in done:
                settle(in_flight.pop(future), future.result())
    finally:
        # On unwind (``on_event`` or a store write raised) every attempt
        # still in flight sees the cancel within ``poll_s`` and tears
        # its worker process down before the join returns.
        cancel.set()
        threads.shutdown(wait=True)
