"""Quasi-static schedule replay: the event loop's period-walking seam.

The paper's applications are steady-state streaming graphs: after a
warm-up prefix the firing pattern repeats every line/frame period.  The
discrete-event loop in :mod:`.simulator` pays one heap pop, one
readiness scan and one poll-dedup per event.  With
``SimulationOptions(replay=True)`` that loop carries a :class:`Replayer`
through one ``replayer is not None`` seam (the same discipline as the
faults/telemetry/NoC seams), which removes the poll traffic from the
periodic phase while staying **bit-identical** to the reference loop —
the conformance and differential suites are the proof.

How it works
------------
1. **Detect** (while the loop interprets): the loop first hands the seam
   a cheap ``(kernel, firing)`` record per firing; a scan looks for three
   equal consecutive blocks that hold a token firing (an input line end).
   Once one shows, the loop hands over one full structural op per event —
   source batch, poll outcome, firing signature, completion — until a
   complete period of ops and the start of the next agree.  The period
   is re-anchored to a time-advancing op (so a period boundary never
   splits a same-timestamp event group) and rotated to start at a
   once-per-period *anchor* op.
2. **Arm**: the verified period compiles to an execution plan — the
   period's firing order, precomputed read/run/write durations, per-op
   expected cost/emission signatures, and per-source item demand and
   token pattern.  A plan that cannot pay does not walk
   (:attr:`ReplayStats.not_armed` says why).
3. **Walk**: at a time-advancing boundary the loop hands its popped
   event to :meth:`Replayer.walk`, which executes whole periods against
   the loop's *own* heap, ``queued_polls`` dedup dict, source cursors
   and processor state.  Completions and source cursors stay on the
   heap; only polls bypass it (they are plan ops).  Kernel bodies run
   for real, optionally batched per period (:mod:`.batch`).
4. **Verify every op before it mutates**: each completion or source
   batch must be the heap's minimum (so the heap's own ordering decides,
   exactly as in the loop); each poll must be queued at the current time
   with no earlier heap event pending; each firing must be the one
   ``ready()`` selects, and its cost and emission signature must match
   the plan.  A fully verified op stream is, by construction, the op
   stream the loop would have produced.
5. **Hand back**: at the first mismatch the walk pushes the still-queued
   polls onto the heap, returns unconsumed prefetched source items to
   their cursors, and returns to the loop — no state is rebuilt, because
   the walk never left the loop's state.  A kernel body raising
   mid-period is the one *hard divergence*: the run restarts with replay
   disabled, so the last-resort safety net is the plain loop itself.

When the detector gives up, or no plan pays, the loop drops the seam
(``replayer = None``) and the rest of the run is the plain loop with no
recording; :attr:`ReplayStats.stopped` records when and why.

Ineligible configurations (trace recording, active faults, telemetry,
NoC timing, bounded channels) never construct the seam: they run the
plain loop with :class:`ReplayStats` explaining why.  Replay accounting
lives on :attr:`SimulationResult.replay` only — never in ``as_dict()`` —
so replay-on and replay-off runs share one conformance surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import chain
from typing import TYPE_CHECKING

from ..errors import SimulationError
from ..obs.spans import firing_pattern_digest
from ..tokens import ControlToken
from .batch import compile_batch_plan
from .runtime import Firing
from .simulator import (
    _DELIVER,
    _FINISH,
    _OP_EMPTY,
    _OP_EXEC,
    _OP_FIN,
    _OP_IO,
    _OP_PARK,
    _OP_RUN,
    _OP_SRC,
    _POLL,
    BudgetOverrun,
    SimulationOptions,
    SimulationResult,
    _Violation,
)

if TYPE_CHECKING:  # pragma: no cover
    from .simulator import Simulator

__all__ = ["ReplayStats", "Replayer", "run_with_replay"]


# --- detector tuning ---------------------------------------------------
#: Scan for a period every this many recorded firings.
_SCAN_EVERY = 128
#: Firings the detector may see over a whole run before the seam drops.
#: Bounds the worst case — an application whose true period is out of
#: reach pays detection overhead only this long, then runs the plain
#: loop.
_GIVE_UP_FIRINGS = 4_000
#: Lowest share of a period's firings that must batch for the plan to
#: walk.  A scalar walk saves only the loop's poll traffic, which does
#: not repay detection and hand-backs; batched kernel bodies do.
_MIN_BATCHED_SHARE = 0.6
#: Fewest whole periods of input that must remain, at the plan's first
#: entry, for its compile and entry costs to pay off.
_MIN_PERIODS_LEFT = 2
#: An armed plan that has not replayed a whole period for this many of
#: its periods' worth of events (or ``_STALE_EVENTS``, if more) stops
#: the seam.
_STALE_PERIODS = 8
_STALE_EVENTS = 4096
#: Lowest replay duty-cycle (replayed share of events since arming) a
#: plan must keep after its first four periods' worth of events, or
#: the seam stops.
_MIN_DUTY = 0.35
#: Narrowest batched group, in firings per period.  A one-firing group
#: pays the batch protocol's staging for no vectorization at all.
MIN_BATCH_WIDTH = 2

# Execution-plan op codes (first element of every compiled op).
_X_SRC, _X_FIN, _X_EXEC, _X_IO, _X_POLLS = range(5)


class _HardDivergence(Exception):
    """Mid-period kernel failure: restart the run with replay disabled."""


@dataclass(slots=True)
class ReplayStats:
    """Execution-strategy accounting for one replay-requested run.

    Attached as :attr:`SimulationResult.replay`; deliberately excluded
    from ``as_dict()`` (it describes *how* the schedule was computed,
    not the schedule itself).
    """

    #: Whether the configuration allowed the engine at all.
    eligible: bool = False
    #: Whether at least one compiled period was walked.
    engaged: bool = False
    #: Why the engine stayed off / restarted (None when it ran clean).
    reason: str | None = None
    #: Times a period was compiled and armed.
    periods_compiled: int = 0
    #: Whole periods executed by the walk.
    periods_replayed: int = 0
    #: Firings per armed period (last compilation).
    period_firings: int = 0
    #: Events per armed period (last compilation).
    period_events: int = 0
    #: ``repro.obs.firing_pattern_digest`` of the armed period.
    period_fingerprint: str | None = None
    #: Events executed by the walk vs the event loop's own dispatch.
    events_replayed: int = 0
    events_interpreted: int = 0
    #: Firings executed by the walk, split by strategy (firings the loop
    #: dispatched itself are counted by neither).
    firings_batched: int = 0
    firings_scalar: int = 0
    #: Kernels the batch compiler vectorized (cumulative over compiles).
    batched_kernels: list[str] = field(default_factory=list)
    #: Kernels whose period firings walked scalar, with the reason.
    scalar_kernels: dict[str, str] = field(default_factory=dict)
    #: Detected periods that were not armed, by reason.
    not_armed: dict[str, int] = field(default_factory=dict)
    #: Hand-backs to the loop, by cause.
    demotions: dict[str, int] = field(default_factory=dict)
    #: Why recording stopped for good (the seam dropped), or None.
    stopped: str | None = None
    #: Events processed when the seam dropped.
    stopped_at_event: int | None = None
    #: Hard divergences that restarted the run with replay disabled.
    restarts: int = 0

    def as_dict(self) -> dict:
        return {
            "eligible": self.eligible,
            "engaged": self.engaged,
            "reason": self.reason,
            "periods_compiled": self.periods_compiled,
            "periods_replayed": self.periods_replayed,
            "period_firings": self.period_firings,
            "period_events": self.period_events,
            "period_fingerprint": self.period_fingerprint,
            "events_replayed": self.events_replayed,
            "events_interpreted": self.events_interpreted,
            "firings_batched": self.firings_batched,
            "firings_scalar": self.firings_scalar,
            "batched_kernels": list(self.batched_kernels),
            "scalar_kernels": dict(sorted(self.scalar_kernels.items())),
            "not_armed": dict(sorted(self.not_armed.items())),
            "demotions": dict(sorted(self.demotions.items())),
            "stopped": self.stopped,
            "stopped_at_event": self.stopped_at_event,
            "restarts": self.restarts,
        }

    def describe(self) -> str:
        if not self.eligible:
            return f"replay: ineligible ({self.reason}); interpreted run"
        lines = []
        total = self.events_replayed + self.events_interpreted
        if not self.engaged:
            locked = self.periods_compiled or self.not_armed
            lines.append("replay: eligible but no period "
                         f"{'walked' if locked else 'locked'}; "
                         "interpreted run")
        else:
            share = self.events_replayed / total if total else 0.0
            demoted = sum(self.demotions.values())
            fired = self.firings_batched + self.firings_scalar
            batched = (
                f"{self.firings_batched}/{fired} firings batched, "
                if self.firings_batched
                else ""
            )
            lines.append(
                f"replay: {self.periods_replayed} periods of "
                f"{self.period_firings} firings replayed "
                f"({share:.0%} of {total} events), "
                f"{batched}"
                f"{demoted} demotions, {self.restarts} restarts"
            )
        if self.not_armed:
            lines.append("  not armed: " + ", ".join(
                f"{why} x{n}" for why, n in sorted(self.not_armed.items())
            ))
        if self.scalar_kernels:
            lines.append("  walked scalar: " + ", ".join(
                f"{k} ({why})" for k, why in sorted(self.scalar_kernels.items())
            ))
        if self.stopped is not None:
            lines.append(f"  recording stopped at event "
                         f"{self.stopped_at_event}: {self.stopped}")
        if self.reason is not None and self.eligible:
            lines.append(f"  {self.reason}")
        return "\n".join(lines)


def _ineligible_reason(opts: SimulationOptions) -> str | None:
    """Why this configuration must run the plain event loop, or None.

    Trace recording observes per-event order directly, faults/telemetry/
    NoC hook the loop through their own seams, and bounded channels make
    readiness depend on backpressure wake-ups the plan does not model.
    """
    if opts.trace:
        return "trace"
    if opts.faults is not None and opts.faults.active():
        return "faults"
    if opts.telemetry is not None:
        return "telemetry"
    if opts.noc is not None:
        return "noc"
    if opts.channel_capacity is not None or opts.channel_capacity_overrides:
        return "bounded-channels"
    return None


def run_with_replay(sim: "Simulator") -> SimulationResult:
    """Entry point used by :meth:`Simulator.run` when ``options.replay``.

    Ineligible configurations run the plain loop; a hard divergence
    restarts the whole simulation with replay disabled, so the returned
    result is always exactly what the event loop produces.
    """
    reason = _ineligible_reason(sim.options)
    if reason is not None:
        result = sim._run_des()
        result.replay = ReplayStats(
            eligible=False,
            reason=reason,
            events_interpreted=result.events_processed,
        )
        return result
    stats = ReplayStats(eligible=True)
    try:
        return sim._run_des(stats)
    except _HardDivergence as exc:
        stats.restarts += 1
        stats.reason = f"hard divergence: {exc}"
        stats.events_replayed = 0
        result = sim._run_des()
        stats.events_interpreted = result.events_processed
        result.replay = stats
        return result


# ----------------------------------------------------------------------
def firing_key(firing: Firing):
    """Structural identity of a firing, stable across periods.

    Method firings are the dispatch plan's frozen ``Firing`` objects, so
    the object's identity is the key.  Token/forward firings are rebuilt
    per event around the live token, so the key keeps the token *type*
    (frame numbers differ every period).  Keys hold only ints and
    strings: recorded ops then drop out of the garbage collector's
    tracking, which would otherwise rescan them on every collection.
    """
    if firing.kind == "method":
        return id(firing)
    method = firing.method
    return (
        firing.kind,
        method.name if method is not None else None,
        firing.consume_ports,
        type(firing.token).__name__,
    )


def emit_sig(emissions) -> tuple:
    """Flat (port, is_token, port, is_token, ...) emission signature."""
    sig: list = []
    ap = sig.append
    for port, item in emissions:
        ap(port)
        ap(isinstance(item, ControlToken))
    return tuple(sig)


def _token_record(rec) -> bool:
    """Whether a firing record handles a control token: a period without
    one repeats inside an input line and breaks at the line's end."""
    key = rec[1]
    if type(key) is int:
        return False
    if type(key[0]) is str:
        return True  # a token or forward firing's key
    return any(type(entry[0]) is not int for entry in key)  # an IO drain


def _fkey_label(fkey) -> str:
    method = fkey.method if type(fkey) is Firing else fkey[1]
    return method.name if method is not None else "<forward>"


# ----------------------------------------------------------------------
class Replayer:
    """The loop's replay seam: records ops, arms plans, walks periods.

    Constructed by :meth:`Simulator._run_des` for eligible replay runs
    only, around the loop's own state objects (heap, sequence counter,
    poll-dedup dict, source cursors, result lists).  It is in one of
    three modes:

    * **noting** — :attr:`noter` is :meth:`note`, which the loop calls
      once per firing with a two-field firing record.  It is cheap, and
      it finds candidate periods: three equal consecutive blocks;
    * **recording** — once a candidate shows, :attr:`recorder` is
      :meth:`record`, which the loop calls once per event with a full
      structural op, until a period of ops verifies and arms a plan
      (or the candidate fails and noting resumes);
    * **armed** — both hooks are None (the loop records nothing), and
      the loop offers every time-advancing pop to :meth:`walk`, which
      enters when the pop is the plan's anchor op.

    The loop drops the seam when :attr:`off` is set.
    """

    def __init__(self, stats: ReplayStats, processor, options, horizon,
                 states, events, next_seq, queued_polls, source_states,
                 source_iters, source_heads, violations,
                 budget_overruns) -> None:
        self.stats = stats
        #: id -> object for the kernels and frozen firings recorded ops
        #: refer to by id.
        self.by_id = {id(st): st for st in states}
        for st in states:
            for firing in st.rk.method_firings():
                self.by_id[id(firing)] = firing
        self.horizon = horizon
        self.clock = processor.clock_hz
        self.rcpe = processor.read_cycles_per_element
        self.wcpe = processor.write_cycles_per_element
        self.max_events = options.max_events
        self.input_cap = options.input_channel_capacity
        self.batch_on = options.batch
        self.events = events
        self.next_seq = next_seq
        self.queued_polls = queued_polls
        self.source_states = source_states
        self.source_iters = source_iters
        self.source_heads = source_heads
        self.violations = violations
        self.budget_overruns = budget_overruns
        n = len(source_iters)
        #: The sources' own iterators, and the pushback iterator (if any)
        #: chained in front of each after a hand-back.
        self.base_iters = list(source_iters)
        self.pushback: list = [None] * n
        #: Per-source prefetched period demand and consumption cursor.
        self.bufs: list = [()] * n
        self.poss = [0] * n
        # --- detector state --------------------------------------------
        self.ops: list = []      # structural op ring (raw tuples)
        self.base = 0            # absolute index of ops[0]
        self.fir: list = []      # firing records (st id, key)
        self.fbase = 0           # absolute index of fir[0]; firings seen
        self.prev: list = []     # absolute index of each record's last twin
        self.last_at: dict = {}  # record -> absolute index of its latest
        self.fir_op: list = []   # absolute op index of each firing record
        self.last_token = -1     # absolute index of the newest token record
        self.next_scan = _SCAN_EVERY
        self.min_fir_L = 1       # shortest candidate period still in play
        self.candidate = 0       # period (firings) being recorded in full
        self.recording_since = 0  # firing count when recording began
        # --- armed plan --------------------------------------------------
        self.xplan: list = []
        self.xev: list = []      # cumulative event count through xplan[i]
        self.src_plan: tuple = ()
        self.bplan = None
        self.period_events = 0
        #: Kernels in flight at the plan's period start, and the plan's
        #: other kernels (idle there): a cheap phase check before entry.
        self.carried: tuple = ()
        self.idle: tuple = ()
        self.gated = False       # whether the payoff gate has run
        self.plan_start = 0      # processed count when the plan armed
        self.last_payoff = 0     # processed count at the last hand-back
        #: The loop's hooks: :meth:`note` per firing while noting,
        #: :meth:`record` per event while recording, else None.
        self.noter = self.note
        self.recorder = None
        #: Set when the loop should drop the seam for good.
        self.off = False

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------
    def note(self, rec) -> None:
        """Take one firing record ``(kernel id, firing key)`` while noting."""
        if self.noter is None:
            return  # switched mode mid-event; the loop resyncs next pop
        fir = self.fir
        last_at = self.last_at
        self.prev.append(last_at.get(rec, -1))
        last_at[rec] = k = self.fbase + len(fir)
        if type(rec[1]) is not int and _token_record(rec):
            self.last_token = k
        fir.append(rec)
        self.fir_op.append(-1)  # no structural op behind a noted firing
        if len(fir) >= self.next_scan:
            self._scan()

    def record(self, op) -> None:
        """Take one structural op from the loop (one per event).

        Ops refer to kernels by ``id()`` and to firings by
        :func:`firing_key`: ints and strings only, so recorded ops drop
        out of the garbage collector's tracking instead of being
        rescanned by every collection.
        """
        if self.recorder is None:
            return  # switched mode mid-event; the loop resyncs next pop
        ops = self.ops
        ops.append(op)
        code = op[0]
        if code == _OP_EXEC or code == _OP_IO:
            fir = self.fir
            rec = (op[2], op[3])
            # Chain each firing record to its previous occurrence, so a
            # scan visits only the candidate periods that can match.
            last_at = self.last_at
            self.prev.append(last_at.get(rec, -1))
            last_at[rec] = k = self.fbase + len(fir)
            if type(rec[1]) is not int and _token_record(rec):
                self.last_token = k
            fir.append(rec)
            self.fir_op.append(self.base + len(ops) - 1)
            if len(fir) >= self.next_scan:
                self._scan()
                if self.recorder is None:
                    return
                if (self.fbase + len(fir) - self.recording_since
                        > 4 * self.candidate + 2 * _SCAN_EVERY):
                    # The candidate's full ops never verified: back to
                    # noting, past it.
                    self.min_fir_L = max(self.min_fir_L, self.candidate + 1)
                    self.base += len(ops)
                    ops.clear()
                    self.recorder = None
                    self.noter = self.note
                    return

    def record_io(self, rel, st, io) -> None:
        """Record (or note) an off-chip boundary kernel's drain: ``io``
        holds one ``(firing, emissions)`` pair per firing, in order."""
        sig = tuple(
            (firing_key(firing), emit_sig(ems),
             len(firing.consume_ports)
             if st.is_output and firing.kind == "method" else 0)
            for firing, ems in io
        )
        if self.recorder is not None:
            self.record((_OP_IO, rel, id(st), sig))
        elif self.noter is not None:
            self.note((id(st), sig))

    def _scan(self) -> None:
        """Every ``_SCAN_EVERY`` firings: the budget, then a period scan."""
        self.next_scan = len(self.fir) + _SCAN_EVERY
        if self.fbase + len(self.fir) > _GIVE_UP_FIRINGS:
            # No period locked for a long stretch: the true period (if
            # any) is out of the detector's reach.
            self.stop("no period locked within the detection budget")
            return
        self._try_detect()

    def stop(self, why: str) -> None:
        """Drop the seam: the loop runs plain from its next event."""
        self.off = True
        self.recorder = self.noter = None
        self.xplan = []
        self._reset_rings()
        self.stats.stopped = why

    def _reset_rings(self) -> None:
        self.base += len(self.ops)
        self.fbase += len(self.fir)
        self.ops.clear()
        self.fir.clear()
        self.prev.clear()
        self.last_at.clear()
        self.fir_op.clear()
        self.next_scan = _SCAN_EVERY

    def _try_detect(self) -> None:
        f = self.fir
        n = len(f)
        if n < 6:
            return
        last = f[-1]
        max_l = n // 3
        # Candidate periods L, shortest first: the distances back to the
        # earlier occurrences of the newest record.
        fb = self.fbase
        prev = self.prev
        # A period must hold a token firing (an input line end), so the
        # newest one anchors an O(1) pre-check of each candidate.
        tok = self.last_token - fb
        j = prev[-1]
        while j >= fb:
            L = fb + n - 1 - j
            if L > max_l:
                break
            if (L >= self.min_fir_L and tok >= n - L
                    and f[tok - L] == f[tok] == f[tok - 2 * L]
                    and f[n - 1 - 2 * L] == last
                    and f[n - 3 * L:n - 2 * L] == f[n - 2 * L:n - L]
                    == f[n - L:n]):
                if self.fir_op[n - 2 * L] <= self.base:
                    # Too few full ops behind this candidate yet.  While
                    # noting, start recording them (from the loop's next
                    # time-advancing event on); while recording, wait.
                    if self.recorder is None:
                        self.candidate = L
                        self.recording_since = self.fbase + n
                        self.noter = None
                        self.recorder = self.record
                    return
                if self._arm(n, L):
                    return
            j = prev[j - fb]

    def _not_armed(self, why: str) -> bool:
        na = self.stats.not_armed
        na[why] = na.get(why, 0) + 1
        return False

    def _arm(self, n: int, L: int) -> bool:
        """Compile the last verified period and arm it, or say why not."""
        ops = self.ops
        base = self.base
        fir_op = self.fir_op
        # The firing records already showed three equal blocks; the full
        # ops need one complete period plus the partial next one.  (Op-
        # level equality is only an efficiency filter: the walk verifies
        # every op it executes.)
        s1 = fir_op[n - 2 * L] - base
        s2 = fir_op[n - L] - base
        if s1 <= 0:
            return False
        # Re-anchor each block start to its time-group leader so the
        # period boundary strictly advances time (then every poll queued
        # inside period k also pops inside period k).
        while s1 > 0 and ops[s1][1] == 0:
            s1 -= 1
        while ops[s2][1] == 0:
            s2 -= 1
        if ops[s1][1] != 1:
            return False
        P = s2 - s1
        if P < 2:
            return False
        raw = ops[s1:s2]
        # The partially-recorded next period must match the plan's
        # prefix, op for op.
        tail = ops[s2:]
        npre = len(tail)
        if npre == 0 or npre >= P or raw[:npre] != tail:
            return False
        # Rotate the period to start at a time-advancing completion or
        # source batch that occurs once per period: the loop then offers
        # the walk one entry per period, nearly always in phase.  A
        # source batch opening with a line-end token is preferred, so
        # periods start where input lines do.
        keys = [
            None if op[1] != 1 else
            (op[0], op[2], op[4][0]) if op[0] == _OP_SRC else
            (op[0], op[2]) if op[0] == _OP_FIN else None
            for op in raw
        ]
        counts: dict = {}
        for key in keys:
            if key is not None:
                counts[key] = counts.get(key, 0) + 1
        if not counts:
            return False
        anchor = min(
            (i for i, key in enumerate(keys) if key is not None),
            key=lambda i: (counts[keys[i]],
                           not (keys[i][0] == _OP_SRC and keys[i][2]), i),
        )
        raw = raw[anchor:] + raw[:anchor]
        built = self._compile(raw)
        if isinstance(built, str):
            if built == "no input line end":
                self.min_fir_L = max(self.min_fir_L, L + 1)
            return self._not_armed(built)
        xplan, xev, src_plan, period_events, firings, digest = built
        stats = self.stats
        self.xplan = xplan
        self.xev = xev
        self.src_plan = src_plan
        self.period_events = period_events
        first: dict = {}
        for op in xplan:
            if op[0] in (_X_FIN, _X_EXEC):
                first.setdefault(op[1], op[0])
        self.carried = tuple(st for st, c in first.items() if c == _X_FIN)
        self.idle = tuple(st for st, c in first.items() if c == _X_EXEC)
        self.plan_start = self.last_payoff = -1  # stamped by walk()
        self.recorder = self.noter = None
        self._reset_rings()
        stats.periods_compiled += 1
        stats.period_events = period_events
        stats.period_firings = firings
        stats.period_fingerprint = digest
        # The batch plan is compiled whether or not batching is on: its
        # coverage decides whether the plan pays, and batch-on and
        # batch-off runs must take the same decisions.
        self.bplan = None
        self.gated = False
        try:
            self.bplan = compile_batch_plan(
                xplan, self.source_states, MIN_BATCH_WIDTH,
                stats.scalar_kernels,
            )
        except Exception as exc:
            # A compiler surprise must never cost correctness: the
            # period walks per firing (if it pays at all).
            stats.scalar_kernels["<all>"] = f"batch compiler: {exc!r}"
        if self.bplan is not None and self.batch_on:
            stats.batched_kernels = sorted(
                set(stats.batched_kernels) | set(self.bplan.kernel_names)
            )
        return True

    def _compile(self, raw):
        """Raw ops -> execution plan tuple, or the reason it is refused."""
        clock, rcpe, wcpe = self.clock, self.rcpe, self.wcpe
        by_id = self.by_id

        def resolve(key, st):
            """A recorded firing key -> the Firing, or a token tuple
            ``(kind, method, consume_ports, token type name)``."""
            if type(key) is int:
                return by_id[key]
            kind, name, cports, tname = key
            method = None if name is None else st.rk.kernel.methods[name]
            return (kind, method, cports, tname)

        plan: list = []
        cum: list = []  # cumulative event count through each op
        need: dict[int, int] = {}
        kinds_acc: dict[int, list] = {}
        ev_count = 0
        firings = 0
        pattern: list = []
        # Consecutive no-op polls collapse into one plan op: each entry
        # keeps its own state check and its cumulative event count, so a
        # mismatch hands back with exactly the uncollapsed granularity.
        poll_acc: list = []

        def flush_polls():
            if poll_acc:
                plan.append((_X_POLLS, tuple(poll_acc)))
                cum.append(poll_acc[-1][3] + 1)
                poll_acc.clear()

        for op in raw:
            code = op[0]
            if code == _OP_SRC:
                flush_polls()
                idx = op[2]
                need[idx] = need.get(idx, 0) + op[3]
                kinds_acc.setdefault(idx, []).extend(op[4])
                ev_count += op[3]
                plan.append([_X_SRC, idx, op[3], op[4][0], False])
                cum.append(ev_count)
                continue
            ev_count += 1
            if op[1] and code != _OP_FIN:
                # Polls pop at their queueing time; a time-advancing
                # poll means the window is not a real period.
                return "time-advancing-poll"
            st = by_id[op[2]]
            if code in (_OP_RUN, _OP_EMPTY, _OP_PARK):
                poll_acc.append((code, st, st.proc, ev_count - 1))
                continue
            flush_polls()
            cum.append(ev_count)
            if code == _OP_FIN:
                plan.append([_X_FIN, st, False])
            elif code == _OP_EXEC:
                if op[7]:
                    # Data-dependent cycle charge observed while
                    # learning: the period is not static.
                    return "dynamic-cost"
                cycles, eread, ewrit, esig = op[4], op[5], op[6], op[8]
                read_s = eread * rcpe / clock
                run_s = cycles / clock
                write_s = ewrit * wcpe / clock
                duration = read_s + run_s + write_s
                if duration <= 0.0:
                    # A zero-time firing completes before the polls
                    # queued with it; the walk does not model that.
                    return "zero-duration"
                fkey = resolve(op[3], st)
                plan.append((
                    _X_EXEC, st, st.proc, fkey, read_s, run_s, write_s,
                    duration, cycles, eread, ewrit, esig, len(esig) // 2,
                    st.rk.sole_trigger(fkey) if type(fkey) is Firing
                    else None,
                    op[3],
                ))
                firings += 1
                pattern.append((st.name, _fkey_label(fkey)))
            else:  # _OP_IO
                entries = tuple((resolve(key, st), esig, nout)
                                for key, esig, nout in op[3])
                plan.append((_X_IO, st, op[3], entries))
                for fkey, _esig, _nout in entries:
                    pattern.append((st.name, _fkey_label(fkey)))
                    firings += 1
        flush_polls()
        if not any(any(kinds) for kinds in kinds_acc.values()):
            # No input line end inside the period: a sub-line repetition
            # that breaks at every line end.  The true period spans one.
            return "no input line end"
        # A completion or source batch followed by a poll must leave no
        # heap event at the current time (the loop would pop it first).
        for i, op in enumerate(plan):
            if op[0] in (_X_SRC, _X_FIN):
                nxt = plan[i + 1] if i + 1 < len(plan) else None
                op[-1] = nxt is not None and nxt[0] not in (_X_SRC, _X_FIN)
                plan[i] = tuple(op)
        splan = tuple(
            (idx, n, tuple(kinds_acc[idx])) for idx, n in need.items()
        )
        return (plan, cum, splan, ev_count, firings,
                firing_pattern_digest(pattern))

    # ------------------------------------------------------------------
    # Walking
    # ------------------------------------------------------------------
    def _deliver(self, time, st_src, port, item) -> None:
        """The loop's deliver minus the heap push: polls are plan ops, but
        the dedup dict is kept exact so a hand-back can queue them."""
        queued_polls = self.queued_polls
        is_token = isinstance(item, ControlToken)
        for ch, dst, checked in st_src.out.get(port, ()):
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
            if checked and occupancy > self.input_cap:
                self.violations.append(
                    _Violation(
                        time=time,
                        where=f"{ch.src}->{ch.dst}.{ch.dst_port}",
                        detail="input overran its consumer",
                    )
                )
            if queued_polls.get(dst) != time:
                queued_polls[dst] = time

    def _prefetch(self) -> bool:
        """Pull each source's period demand; False on a pattern mismatch.

        A mismatch (end of input, an end-of-frame token where the period
        expects a line pattern) leaves the fetched items in ``bufs`` for
        :meth:`_restore_sources` to hand back, so nothing is lost.
        """
        heads = self.source_heads
        iters = self.source_iters
        bufs = self.bufs
        poss = self.poss
        for idx, need, kpat in self.src_plan:
            head = heads[idx]
            it = iters[idx]
            buf = []
            ok = True
            for want_token in kpat:
                if head is None or isinstance(
                    head[1], ControlToken
                ) is not want_token:
                    ok = False
                    break
                buf.append(head)
                head = next(it, None)
            heads[idx] = head
            bufs[idx] = buf
            poss[idx] = 0
            if not ok:
                return False
        return True

    def _restore_sources(self) -> None:
        """Return unconsumed prefetched items to their source cursors."""
        heads = self.source_heads
        bufs = self.bufs
        poss = self.poss
        for idx, buf in enumerate(bufs):
            pos = poss[idx]
            if pos < len(buf):
                rest = list(buf[pos + 1:])
                if heads[idx] is not None:
                    rest.append(heads[idx])
                heads[idx] = buf[pos]
                if rest:
                    old = self.pushback[idx]
                    if old is not None:
                        rest.extend(old)
                    it = iter(rest)
                    self.pushback[idx] = it
                    self.source_iters[idx] = chain(it, self.base_iters[idx])
            bufs[idx] = ()
            poss[idx] = 0

    def walk(self, time, kind, payload, makespan, processed):
        """Walk whole periods from a time-advancing pop, if it starts one.

        Returns None when the popped event is not the armed plan's
        anchor op, or the loop's state is visibly not at the plan's
        period start (the loop then dispatches the event itself);
        otherwise ``(processed, makespan)`` after handing back.
        """
        if self.last_payoff < 0:  # the first pop offered since arming
            self.plan_start = self.last_payoff = processed
        elif (processed - self.last_payoff
                > max(_STALE_PERIODS * self.period_events, _STALE_EVENTS)):
            # The plan stopped paying (its anchor keeps coming round out
            # of phase, or not at all).
            self.stop("the plan stopped paying")
            return None
        xplan = self.xplan
        op0 = xplan[0]
        if kind == _DELIVER:
            if (op0[0] != _X_SRC or op0[1] != payload
                    or isinstance(self.source_heads[payload][1], ControlToken)
                    is not op0[3]):
                return None
        elif kind != _FINISH or op0[0] != _X_FIN or op0[1] is not payload[0]:
            return None
        for st in self.carried:
            if not st.running:
                return None
        for st in self.idle:
            if st.running:
                return None
        if not self.gated:
            # First in-phase entry: the period-start occupancy is live,
            # so the batch layout — and with it the plan's payoff — is
            # known.  A plan that cannot batch enough does not walk.
            self.gated = True
            # Events still to come, at the run's average rate so far.
            left = processed * (self.horizon - time) / time
            if left < _MIN_PERIODS_LEFT * self.period_events:
                self._not_armed("too few periods left")
                self.stop("too few periods left to pay")
                return None
            bplan = self.bplan
            batched = bplan.coverage() if bplan is not None else 0
            firings = self.stats.period_firings
            if batched < _MIN_BATCHED_SHARE * firings:
                # The same kernels decline or stay narrow at any multiple
                # of this period, so no coarser plan batches either.
                self._not_armed(f"batched share < {_MIN_BATCHED_SHARE:.0%}")
                self.stop("the period does not batch enough to pay")
                return None
        events = self.events
        # The event was the heap minimum: push it back for op 0 to pop.
        # A source cursor keeps its own sequence number; -1 keeps a
        # completion first among same-time completions.
        heappush(events, (time, kind, payload if kind == _DELIVER else -1,
                          payload))
        stats = self.stats
        stats.engaged = True
        entered_at = processed

        queued_polls = self.queued_polls
        next_seq = self.next_seq
        source_states = self.source_states
        source_heads = self.source_heads
        source_iters = self.source_iters
        bufs = self.bufs
        poss = self.poss
        deliver = self._deliver
        bplan = self.bplan
        batch_on = self.batch_on and bplan is not None
        xev = self.xev
        period_events = self.period_events
        max_events = self.max_events
        budget_overruns = self.budget_overruns
        clock, rcpe, wcpe = self.clock, self.rcpe, self.wcpe
        nbatched = nscalar = periods = 0
        now = makespan
        reason = None
        partial = -1  # events of an incomplete final period, if known
        try:
            while True:
                if not self._prefetch():
                    reason = "input-pattern"
                    partial = 0
                    break
                prepared = None
                if batch_on:
                    prepared = bplan.stage(bufs, events)
                for oi, op in enumerate(xplan):
                    code = op[0]
                    if code == _X_EXEC:
                        st = op[1]
                        ps = op[2]
                        if (queued_polls.get(st) != now or st.running
                                or ps.free_at > now):
                            reason = "order"
                            break
                        # The firing must be the one the loop's ready()
                        # selects, before anything is consumed.
                        fkey = op[3]
                        head = op[13]
                        if head is not None:
                            if not head or isinstance(head[0], ControlToken):
                                reason = "order"
                                break
                            firing = fkey
                        else:
                            firing = st.ready()
                            if firing is not fkey and (
                                firing is None or type(fkey) is Firing
                                or firing_key(firing) != op[14]
                            ):
                                reason = "order"
                                break
                        b = prepared[oi] if prepared is not None else None
                        if b is not None:
                            result, commit, bi, pairs = b
                            for ch, pred in pairs:
                                # Peek before popping: a head that is not
                                # the predicted object hands back with
                                # nothing consumed.
                                if ch.items[0] is not pred:
                                    reason = "batch"
                                    break
                            if reason is not None:
                                break
                            del queued_polls[st]
                            for ch, _pred in pairs:
                                ch.seqs.popleft()
                                ch.items.popleft()
                            st.rk.firings += 1
                            nbatched += 1
                            ps.read_s += op[4]
                            ps.run_s += op[5]
                            ps.write_s += op[6]
                            ps.firings += 1
                            ps.free_at = ft = now + op[7]
                            st.running = True
                            heappush(events,
                                     (ft, _FINISH, next_seq(), (st, result)))
                            if commit is not None:
                                commit(bi)
                            continue
                        del queued_polls[st]
                        result = st.execute(firing)
                        nscalar += 1
                        ems = result.emissions
                        esig = op[11]
                        good = (not result.dynamic
                                and result.cycles == op[8]
                                and result.elements_read == op[9]
                                and result.elements_written == op[10]
                                and len(ems) == op[12])
                        if good:
                            i = 0
                            for port, item in ems:
                                if port != esig[i] or isinstance(
                                    item, ControlToken
                                ) is not esig[i + 1]:
                                    good = False
                                    break
                                i += 2
                        if good:
                            ps.read_s += op[4]
                            ps.run_s += op[5]
                            ps.write_s += op[6]
                            ps.firings += 1
                            ps.free_at = ft = now + op[7]
                        else:
                            # The firing is the one the loop would have
                            # run (ready() chose it); only its cost or
                            # emissions drifted from the plan.  Charge the
                            # actual values with the loop's expressions,
                            # then hand back after this op.
                            if (result.dynamic
                                    and result.cycles > result.declared_cycles):
                                budget_overruns.append(BudgetOverrun(
                                    time=now, kernel=st.name,
                                    method=result.label,
                                    declared_cycles=result.declared_cycles,
                                    actual_cycles=result.cycles,
                                ))
                            read_s = result.elements_read * rcpe / clock
                            run_s = result.cycles / clock
                            write_s = result.elements_written * wcpe / clock
                            ps.read_s += read_s
                            ps.run_s += run_s
                            ps.write_s += write_s
                            ps.firings += 1
                            ps.free_at = ft = now + (read_s + run_s + write_s)
                        st.running = True
                        heappush(events,
                                 (ft, _FINISH, next_seq(), (st, result)))
                        if not good:
                            reason = "cost"
                            partial = xev[oi]
                            break
                    elif code == _X_FIN:
                        st = op[1]
                        ev = events[0] if events else None
                        if (ev is None or ev[1] != _FINISH
                                or ev[3][0] is not st):
                            reason = "order"
                            break
                        t = ev[0]
                        if t > now and queued_polls:
                            reason = "order"
                            break
                        heappop(events)
                        now = t
                        st.running = False
                        for port, item in ev[3][1].emissions:
                            deliver(t, st, port, item)
                        # The loop's re-poll of everything sharing the
                        # freed element; the polls themselves are plan
                        # ops, the dedup dict carries them.
                        pending = st.proc.pending
                        pending.append(st)
                        for other in pending:
                            if queued_polls.get(other) != t:
                                queued_polls[other] = t
                        pending.clear()
                        if op[2] and events and events[0][0] <= t:
                            reason = "order"
                            partial = xev[oi]
                            break
                    elif code == _X_POLLS:
                        for scode, st, ps, sp in op[1]:
                            if queued_polls.get(st) != now:
                                reason = "order"
                            elif scode == _OP_RUN:
                                if not st.running:
                                    reason = "order"
                            elif scode == _OP_PARK:
                                if st.running or ps.free_at <= now:
                                    reason = "order"
                                elif st not in ps.pending:
                                    ps.pending.append(st)
                            elif (st.running or ps.free_at > now
                                    or st.ready() is not None):
                                reason = "order"
                            if reason is not None:
                                partial = sp
                                break
                            del queued_polls[st]
                        if reason is not None:
                            break
                    elif code == _X_SRC:
                        idx = op[1]
                        ev = events[0] if events else None
                        if ev is None or ev[1] != _DELIVER or ev[3] != idx:
                            reason = "order"
                            break
                        t = ev[0]
                        if t > now and queued_polls:
                            reason = "order"
                            break
                        heappop(events)
                        now = t
                        st_src = source_states[idx]
                        buf = bufs[idx]
                        pos = poss[idx]
                        end = pos + op[2]
                        n = 0
                        while pos < end:
                            tt, item = buf[pos]
                            if tt != t:
                                break  # the batch ends earlier than planned
                            pos += 1
                            n += 1
                            deliver(t, st_src, "out", item)
                        split = pos < end
                        if not split:
                            # The loop drains every same-time item in one
                            # event: a longer live batch drains on, then
                            # hands back with the true count.
                            while True:
                                if pos < len(buf):
                                    nxt = buf[pos]
                                    if nxt[0] != t:
                                        break
                                    pos += 1
                                else:
                                    nxt = source_heads[idx]
                                    if nxt is None or nxt[0] != t:
                                        break
                                    source_heads[idx] = next(
                                        source_iters[idx], None
                                    )
                                n += 1
                                split = True
                                deliver(t, st_src, "out", nxt[1])
                        poss[idx] = pos
                        nxt = buf[pos] if pos < len(buf) else source_heads[idx]
                        if nxt is not None:
                            heappush(events, (nxt[0], _DELIVER, idx, idx))
                        if split:
                            reason = "order"
                            partial = (xev[oi - 1] if oi else 0) + n
                            break
                        if op[4] and events and events[0][0] <= t:
                            reason = "order"
                            partial = xev[oi]
                            break
                    else:  # _X_IO: off-chip boundary kernel drains
                        st = op[1]
                        if queued_polls.get(st) != now:
                            reason = "order"
                            break
                        del queued_polls[st]
                        sig = []
                        st_ready = st.ready
                        st_execute = st.execute
                        while True:
                            firing = st_ready()
                            if firing is None:
                                break
                            result = st_execute(firing)
                            nscalar += 1
                            nout = 0
                            if st.is_output and firing.kind == "method":
                                times_out = st.output_times
                                for _port in firing.consume_ports:
                                    times_out.append(now)
                                    nout += 1
                            ems = result.emissions
                            for port, item in ems:
                                deliver(now, st, port, item)
                            sig.append(
                                (firing_key(firing), emit_sig(ems), nout)
                            )
                        if tuple(sig) != op[2]:
                            reason = "io"
                            partial = xev[oi]
                            break
                if reason is not None:
                    if partial < 0:  # handed back before op oi mutated
                        partial = xev[oi - 1] if oi else 0
                    processed += partial
                    stats.events_replayed += partial
                    break
                processed += period_events
                stats.events_replayed += period_events
                stats.periods_replayed += 1
                periods += 1
                if processed > max_events:
                    raise SimulationError(
                        f"simulation exceeded {max_events} events; "
                        "the application is likely livelocked"
                    )
        except (SimulationError, _HardDivergence):
            raise
        except Exception as exc:
            # A kernel body raising mid-period leaves a half-applied op;
            # the plain loop reproduces the behaviour (the exception
            # included) exactly from a restart.
            raise _HardDivergence(f"executor error: {exc!r}") from exc
        finally:
            stats.firings_batched += nbatched
            stats.firings_scalar += nscalar
        self._hand_back(reason, processed, periods)
        if processed == entered_at:
            # Nothing replayed: take the entry event back off the heap
            # (it is still the minimum) for the loop to dispatch.
            heappop(events)
            return None
        return processed, now

    def _hand_back(self, reason: str, processed: int,
                   periods: int) -> None:
        """Leave the loop's state as the loop itself would have it.

        The walk already used the loop's heap for completions and source
        cursors, so only two things are pending outside it: polls queued
        at the current time (the dedup dict, in queueing order — the
        order the heap's sequence numbers would have given them) and
        unconsumed prefetched source items.
        """
        stats = self.stats
        stats.demotions[reason] = stats.demotions.get(reason, 0) + 1
        self._restore_sources()
        events = self.events
        next_seq = self.next_seq
        for st, t_q in self.queued_polls.items():
            heappush(events, (t_q, _POLL, next_seq(), st))
        if periods:
            self.last_payoff = processed
        # Keep the plan or drop the seam?  The arbiter is *productivity*,
        # not the hand-back reason: a line-level plan that hands back once
        # per frame replays nearly everything and must be kept, while one
        # that keeps missing replays little.  Judge the plan on its replay
        # duty-cycle since it armed, once it has had a fair chance.
        lifetime = processed - self.plan_start
        duty = stats.events_replayed / max(1, lifetime)
        if lifetime >= 4 * self.period_events and duty < _MIN_DUTY:
            self.stop("the plan replayed too little")
