"""Shared plumbing: run context, op records, statistics, child processes."""

from __future__ import annotations

import dataclasses
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import uuid
from pathlib import Path

#: Child processes launched by the benchmark must finish within this.
CHILD_TIMEOUT_S = 120.0


@dataclasses.dataclass
class Ctx:
    """One benchmark run: where it works and what it was asked to do."""

    root: Path
    workload: str
    seed: int
    seconds: int
    oracle: dict
    work: Path
    env: dict

    @classmethod
    def create(cls, root: Path, workload: str, seed: int, seconds: int,
               oracle: dict) -> "Ctx":
        work = root / ".hostbench-work" / f"{workload}-{uuid.uuid4().hex[:12]}"
        work.mkdir(parents=True)
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src)
        return cls(root, workload, seed, seconds, oracle, work, env)

    def scratch(self, name: str) -> Path:
        path = self.work / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass  # another run still works there


@dataclasses.dataclass
class Op:
    """One timed operation and its oracle verdict."""

    label: str
    elapsed_s: float
    #: Oracle events: the unit of work (an engine's own count never is).
    events: int
    #: First field path where the output differs from the oracle, or the
    #: error that stopped the op; None when the op is correct.
    path: str | None = None
    detail: str = ""
    #: Per-phase host seconds, for ops made of several calls.
    phases: dict = dataclasses.field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.path is None


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# -- statistics -----------------------------------------------------------

TAIL_BEYOND = 10


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples
    beyond it.  Needs at least 11 samples."""
    xs = sorted(samples)
    k = len(xs) - TAIL_BEYOND
    if k < 1:
        raise ValueError(f"a tail needs > {TAIL_BEYOND} samples, "
                         f"got {len(xs)}")
    return xs[k - 1], 100.0 * k / len(xs)


def e2e_metrics(ops: list[Op], setup_samples: list[float],
                peak_rss_mib: float) -> tuple[dict, list[str]]:
    """The end-to-end metric set every workload reports, over correct ops."""
    good = [op for op in ops if op.ok]
    if len(good) <= TAIL_BEYOND:
        raise RuntimeError(f"only {len(good)} correct ops; the tail "
                           f"statistic needs more than {TAIL_BEYOND}")
    times = [op.elapsed_s for op in good]
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "events_per_s": (sum(op.events for op in good) / sum(times), "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_s, "s"),
    }
    notes = [
        f"ops: {len(ops)} attempted, {len(good)} correct",
        f"op_tail_s is p{tail_pct:.1f} of {len(good)} correct ops "
        f"({TAIL_BEYOND} samples beyond it)",
        "setup_s samples: " + ", ".join(f"{s:.4f}" for s in setup_samples),
    ]
    return metrics, notes


# -- processes ------------------------------------------------------------


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def kill_group(proc: subprocess.Popen) -> None:
    """Stop a child started with ``start_new_session`` and all it spawned."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            pass
        try:
            proc.wait(timeout=5)
            break
        except subprocess.TimeoutExpired:
            continue
    # Workers orphaned by the leader's death still carry its group id.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _sigkill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv: list[str], ctx: Ctx, stderr_path: Path
              ) -> tuple[int, bytes, float, float]:
    """Run one child to completion: (exit code, stdout, wall s, peak RSS MiB).

    The wall time runs from spawn to reaping, which is what a user
    waiting on the command sees.  ``wait4`` gives the child's own peak
    RSS (``ru_maxrss``, KiB on Linux).  A child still running after
    ``CHILD_TIMEOUT_S`` is killed with everything it spawned.
    """
    with open(stderr_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ctx.root, env=ctx.env,
                                stdout=subprocess.PIPE, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, _sigkill_group, (proc.pid,))
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            kill_group(proc)
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
    if elapsed >= CHILD_TIMEOUT_S:
        raise RuntimeError(f"{' '.join(argv)} ran past {CHILD_TIMEOUT_S} s")
    return proc.returncode, out, elapsed, usage.ru_maxrss / 1024.0


def own_peak_rss_mib() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mib(pid: int) -> float:
    """Peak RSS (VmHWM) of a live process."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- python -X importtime -------------------------------------------------


def parse_importtime(text: str) -> dict[str, float]:
    """Import-layer seconds from ``python -X importtime`` stderr."""
    total = numpy = networkx = repro_self = 0.0
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us, cumulative_us = int(fields[0]), int(fields[1])
        except ValueError:
            continue  # the header line
        raw = fields[2].rstrip()
        name = raw.strip()
        depth = len(raw) - len(raw.lstrip()) - 1
        if depth == 0:
            total += cumulative_us
        if name == "numpy":
            numpy = cumulative_us
        elif name == "networkx":
            networkx = cumulative_us
        if name == "repro" or name.startswith("repro."):
            repro_self += self_us
    return {"import.total_s": total / 1e6, "import.numpy_s": numpy / 1e6,
            "import.networkx_s": networkx / 1e6,
            "import.repro_self_s": repro_self / 1e6}


def importtime_probe(ctx: Ctx, runs: int = 3) -> dict[str, float]:
    """Median import-layer split of ``import repro.cli`` in fresh processes."""
    samples = []
    for i in range(runs):
        stderr = ctx.work / f"importtime-{i}.txt"
        code, _, _, _ = run_child(
            [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
            ctx, stderr,
        )
        if code != 0:
            raise RuntimeError(f"import repro.cli failed: "
                               f"{stderr.read_text()[-400:]}")
        samples.append(parse_importtime(stderr.read_text()))
    return {key: statistics.median(s[key] for s in samples)
            for key in samples[0]}
