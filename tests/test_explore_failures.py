"""Failure-path tests for the sweep executor.

Injected hangs, crashes, and flaky errors exercise the fault isolation
that makes long sweeps safe: a bad design point must cost exactly its own
budget and produce exactly one terminal record, never wedge the sweep or
take neighbouring jobs down with it.
"""

import multiprocessing
import time

import pytest

from repro.chaos import QuarantineLedger, backoff_delay
from repro.explore import (
    EventLog,
    Job,
    JobFailed,
    JobFinished,
    JobRetried,
    JobStarted,
    SweepOptions,
    run_sweep,
)
from repro.explore.executor import Verdict, decide_attempt, job_record

GOOD = {"width": 16, "height": 12, "rate_hz": 50.0}


def job(inject=None, timeout_s=300.0):
    return Job.from_dict({
        "sweep": "faults",
        "app": "image_pipeline",
        "params": GOOD,
        "frames": 2,
        "timeout_s": timeout_s,
        "inject": inject or {},
    })


def terminal_kinds(result):
    out = []
    for record in result.records:
        if record["kind"] == "result":
            out.append(("result", record["attempts"]))
        else:
            out.append((record["failure"]["kind"], record["attempts"]))
    return out


class TestPooledFailures:
    def test_mixed_sweep_one_terminal_record_per_job(self, tmp_path):
        """A hang, a crash, and a flaky job ride alongside healthy ones;
        every job still gets exactly one terminal record."""
        jobs = [
            job(),
            job(inject={"mode": "hang", "sleep_s": 60.0}, timeout_s=1.5),
            job(inject={"mode": "crash"}),
            job(inject={"mode": "flaky", "fail_times": 1,
                        "marker_dir": str(tmp_path / "markers")}),
            job(inject={"mode": "error", "message": "boom"}),
        ]
        log = EventLog()
        started = time.monotonic()
        result = run_sweep(jobs, options=SweepOptions(
            workers=2, retries=2, backoff_s=0.05, poll_s=0.02,
        ), on_event=log)
        elapsed = time.monotonic() - started

        assert len(result.records) == len(jobs)
        kinds = terminal_kinds(result)
        assert kinds[0] == ("result", 1)
        assert kinds[1] == ("timeout", 1)   # terminal on first hang
        assert kinds[2] == ("crash", 3)     # retried, then terminal
        assert kinds[3] == ("result", 2)    # flaky: failed once, then ok
        assert kinds[4] == ("error", 3)     # deterministic raise, retried
        assert result.succeeded == 2
        assert result.failed == 3

        # Exactly one terminal event per job, and the sweep didn't wait
        # for the injected 60s sleep.
        terminals = log.of_type(JobFinished) + log.of_type(JobFailed)
        assert len(terminals) == len(jobs)
        assert elapsed < 30.0

        report = result.report()
        assert {f["kind"] for f in report.as_dict()["failures"]} == \
            {"timeout", "crash", "error"}

    def test_timeout_is_retried_when_opted_in(self):
        jobs = [job(inject={"mode": "hang", "sleep_s": 60.0}, timeout_s=0.8)]
        log = EventLog()
        result = run_sweep(jobs, options=SweepOptions(
            workers=1, retries=1, backoff_s=0.05, poll_s=0.02,
            retry_timeouts=True,
        ), on_event=log)
        assert terminal_kinds(result) == [("timeout", 2)]
        retried = log.of_type(JobRetried)
        assert len(retried) == 1
        assert "timeout" in retried[0].reason


    def test_unwind_leaves_no_worker_process_behind(self):
        """An exception escaping ``on_event`` propagates out of the
        sweep, and the in-flight attempt's worker dies with it."""
        jobs = [job(inject={"mode": "hang", "sleep_s": 60.0},
                    timeout_s=120.0),
                job(inject={"mode": "hang", "sleep_s": 61.0},
                    timeout_s=120.0)]
        before = set(multiprocessing.active_children())
        alive_at_raise = []

        def explode(event):
            if isinstance(event, JobStarted):
                deadline = time.monotonic() + 10.0
                while (not set(multiprocessing.active_children()) - before
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                alive_at_raise.append(
                    set(multiprocessing.active_children()) - before)
                raise RuntimeError("observer failed")

        with pytest.raises(RuntimeError, match="observer failed"):
            run_sweep(jobs, options=SweepOptions(workers=2, poll_s=0.02),
                      on_event=explode)
        assert alive_at_raise and alive_at_raise[0]  # a worker was live
        deadline = time.monotonic() + 25 * 0.02
        while (set(multiprocessing.active_children()) - before
               and time.monotonic() < deadline):
            time.sleep(0.02)
        assert set(multiprocessing.active_children()) - before == set()


class TestSerialFailures:
    def test_error_retries_then_fails(self):
        result = run_sweep(
            [job(inject={"mode": "error", "message": "boom"})],
            options=SweepOptions(workers=0, retries=1, backoff_s=0.01),
        )
        assert terminal_kinds(result) == [("error", 2)]
        failure = result.records[0]["failure"]
        assert "boom" in failure["message"]

    def test_flaky_succeeds_on_second_attempt(self, tmp_path):
        log = EventLog()
        result = run_sweep(
            [job(inject={"mode": "flaky", "fail_times": 1,
                         "marker_dir": str(tmp_path / "markers")})],
            options=SweepOptions(workers=0, retries=2, backoff_s=0.01),
            on_event=log,
        )
        assert terminal_kinds(result) == [("result", 2)]
        assert len(log.of_type(JobRetried)) == 1

    def test_compile_error_is_not_retried(self):
        # An impossible rate is a deterministic compile failure; retrying
        # it would only burn the budget again.
        impossible = Job.from_dict({
            "sweep": "faults",
            "app": "image_pipeline",
            "params": {"width": 16, "height": 12, "rate_hz": 1e7},
            "frames": 2,
        })
        result = run_sweep([impossible],
                           options=SweepOptions(workers=0, retries=2))
        assert terminal_kinds(result) == [("compile-error", 1)]


class TestRetryPolicy:
    """The one retry policy both front ends apply to every payload."""

    FP = "f" * 64
    PAYLOADS = {
        "ok": {"ok": True, "stats": {"elapsed_s": 0.5, "meets": True,
                                     "processor_count": 4}},
        "error": {"ok": False, "kind": "error", "message": "boom",
                  "retryable": True},
        "compile-error": {"ok": False, "kind": "compile-error",
                          "message": "infeasible", "retryable": False},
        "crash": {"ok": False, "kind": "crash",
                  "message": "worker process died", "retryable": True},
        "watchdog": {"ok": False, "kind": "crash", "retryable": True,
                     "watchdog": True,
                     "message": "watchdog: no heartbeat for 0.5s; "
                                "worker killed"},
        "timeout": {"ok": False, "kind": "timeout",
                    "message": "exceeded 1s wall clock", "retryable": False},
        "unmarked": {"ok": False, "kind": "error", "message": "no flag"},
    }

    @pytest.mark.parametrize("quarantine_after", [0, 2])
    @pytest.mark.parametrize("attempt", [1, 2, 3])  # below/at/above retries
    @pytest.mark.parametrize("retry_timeouts", [False, True])
    @pytest.mark.parametrize("name", list(PAYLOADS))
    def test_table(self, name, retry_timeouts, attempt, quarantine_after):
        options = SweepOptions(retries=2, backoff_s=0.1, backoff_max_s=5.0,
                               retry_timeouts=retry_timeouts,
                               quarantine_after=quarantine_after)
        ledger = QuarantineLedger(quarantine_after)
        ledger.record_crash(self.FP, "earlier crash")  # one strike in
        payload = self.PAYLOADS[name]
        verdict = decide_attempt(payload, attempt, options, ledger, self.FP)

        retryable = {"error": True, "compile-error": False, "crash": True,
                     "watchdog": True, "timeout": retry_timeouts,
                     "unmarked": True}
        if name == "ok":
            assert verdict == Verdict("result", stats=payload["stats"])
            assert self.FP not in ledger.as_dict()["strikes"]
            assert isinstance(verdict.event(job(), attempt), JobFinished)
        elif name in ("crash", "watchdog") and quarantine_after == 2:
            assert verdict.action == "fail"
            assert verdict.kind == "quarantined"
            assert verdict.message.startswith("quarantined after 2 ")
            assert payload["message"] in verdict.message
            assert ledger.reason(self.FP) == verdict.message
        elif retryable[name] and attempt <= 2:
            delay = backoff_delay(attempt, 0.1, 5.0, key=self.FP)
            assert verdict == Verdict("retry", payload["kind"],
                                      payload["message"], delay_s=delay)
            event = verdict.event(job(), attempt)
            assert isinstance(event, JobRetried)
            assert event.reason == f"{payload['kind']}: {payload['message']}"
            assert event.attempt == attempt and event.delay_s == delay
        else:
            assert verdict == Verdict("fail", payload["kind"],
                                      payload["message"])
            event = verdict.event(job(), attempt)
            assert isinstance(event, JobFailed)
            assert event.attempts == attempt

    def test_record_layout(self):
        # Key order is the store's byte layout: pin it.
        j = job()
        result = job_record(j, Verdict("result", stats={"meets": True}), 1)
        assert list(result) == ["result_schema", "sweep", "kind", "label",
                                "fingerprint", "job", "attempts", "stats"]
        assert result["kind"] == "result"
        parked = job_record(j, Verdict("fail", "quarantined", "parked"), 2,
                            chaos=True, run="r1", tenant="t")
        assert list(parked) == ["result_schema", "sweep", "run", "tenant",
                                "kind", "label", "fingerprint", "job",
                                "chaos", "attempts", "quarantined",
                                "failure"]
        assert parked["failure"] == {"kind": "quarantined",
                                     "message": "parked"}
        failed = job_record(j, Verdict("fail", "error", "boom"), 3)
        assert "quarantined" not in failed and "chaos" not in failed
        assert failed["kind"] == "failure" and failed["attempts"] == 3
