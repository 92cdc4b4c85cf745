"""Batched quasi-static execution of compiled replay periods.

The replay walk (:mod:`.replay`) executes a locked period as a static op
walk but still calls every Python kernel body once per firing.  The
period *is* a static firing sequence, which is exactly the quasi-static
shape StreamBlocks exploits when it fuses actor firings into pipelines:
this module compiles each period's data-method firings into per-kernel
groups and, where the kernel opts in (:meth:`Kernel.batch_accepts` /
:meth:`Kernel.batched_apply`), runs the whole period's worth of a body
as one vectorized call.

The contract with the walk is strict DES-exactness:

* **Simulated time is untouched.**  Batched ops charge the plan's
  precomputed per-firing costs — the same floats the scalar good path
  charges — so makespans, utilization, and output times are
  byte-identical.  Only wall time drops.
* **Values are byte-identical.**  Every vectorized body is an exact
  axis-parallel transcription of its scalar loop (axis-reduction sums,
  not matmuls; ``np.partition`` along axis 1; vectorized
  ``searchsorted``), verified by the differential harness.
* **State mutations stay per-firing.**  A batch precomputes emissions
  but applies each firing's state mutation through a ``commit(i)``
  callback at that firing's op, in schedule order — so a mid-period
  hand-back leaves exactly the state sequential execution would have.
* **Any surprise falls back to the scalar walk.**  :meth:`BatchPlan.stage`
  re-validates every gathered input (object type, dtype, shape) and every
  predicted emission (count and ports) against the plan; one mismatch
  discards the whole batch *before anything is mutated* and the period
  executes per firing.  At each batched op the walk additionally checks
  the channel head *is* the predicted object before popping.

Costs are paid where they recur.  :func:`compile_batch_plan` runs once
per armed plan: a symbolic dataflow walk over the execution plan
(per-channel produced-item references in push order — source prefetch
slots, carried-over completions, batched producers' emissions — and pop
counters at every consume), then a fixpoint dropping any group that
consumes an unpredictable slot, and a topological order so producers
batch before their consumers inside one period.  :meth:`BatchPlan.prepare`
resolves each group's input slots against the period-start channel
occupancy; it runs again only when that occupancy changes, which in a
steady state is never.  :meth:`BatchPlan.stage` is the per-period part:
gather, ``batched_apply``, validate.

Groups narrower than the replay engine's minimum width (one firing per
period, as in a graph where every kernel fires once per line) walk
scalar: a one-wide batch pays the protocol for no vectorization.
"""

from __future__ import annotations

import numpy as np

from .runtime import Firing
from .simulator import _FINISH

__all__ = ["FORWARD_OTHER", "BatchResult", "BatchPlan", "compile_batch_plan"]

#: Sentinel passed to :meth:`Kernel.batch_accepts` in ``others`` when the
#: period contains automatic token forwards for the kernel (forwards only
#: touch token bookkeeping, but the kernel gets to veto).
FORWARD_OTHER = "<forward>"

_F8 = np.dtype(np.float64)

# Slot kinds of a prepared layout: an item already in the channel at
# period start, a prefetched source item, a batched producer's emission,
# the emission of a completion carried in from the previous period.
_QUEUED, _SOURCE, _GROUP, _CARRIED = range(4)


class BatchResult:
    """Stand-in for ``FiringResult`` on batched EXEC ops.

    The walk's completion handler only consults ``.emissions``; cost
    fields are never read because batched ops charge the plan's
    precomputed values.
    """

    __slots__ = ("emissions",)

    def __init__(self, emissions) -> None:
        self.emissions = emissions


class _Group:
    """One kernel's batched firings within the period, in schedule order."""

    __slots__ = (
        "name", "kernel", "method", "n", "op_indices", "cports", "ports",
        "chans", "exp_counts", "exp_ports",
    )


class BatchPlan:
    """Per-kernel firing groups compiled from one execution plan."""

    __slots__ = ("groups", "plan_len", "kernel_names", "scalar", "chans",
                 "occupancy", "layout", "carried")

    def prepare(self):
        """Resolve every group's input slots against current occupancy.

        Returns one entry per group — ``None`` for a group whose needed
        slot cannot resolve at this occupancy (an opaque token push, a
        non-batched producer), else ``((port, channel, shape, slots),
        ...)`` — or ``None`` when no group survives.  Called by
        :meth:`stage` only when the period-start occupancy of the
        consumed channels differs from the last call's.
        """
        layout: list = []
        live = 0
        for g in self.groups:
            ports = []
            for port, ch, ks, shape, refs in g.ports:
                occupancy = len(ch.items)
                slots = []
                for k in ks:
                    if k < occupancy:
                        slots.append((_QUEUED, k))
                        continue
                    j = k - occupancy
                    ref = refs[j] if j < len(refs) else None
                    if ref is None or (
                        ref[0] == _GROUP and layout[ref[1]] is None
                    ):
                        ports = None
                        break
                    slots.append(ref)
                if ports is None:
                    break
                ports.append((port, ch, shape, tuple(slots)))
            if ports is None:
                self.scalar[g.name] = "input slot not predictable"
                layout.append(None)
            else:
                live += 1
                self.scalar.pop(g.name, None)
                layout.append(tuple(ports))
        return layout if live else None

    def coverage(self) -> int:
        """Firings per period that batch at the current occupancy."""
        occupancy = tuple(len(ch.items) for ch in self.chans)
        if occupancy != self.occupancy:
            self.occupancy = occupancy
            self.layout = self.prepare()
        if self.layout is None:
            return 0
        return sum(g.n for g, ports in zip(self.groups, self.layout)
                   if ports is not None)

    def stage(self, bufs, events):
        """Batch-execute every group against the current period's inputs.

        Called once per period, after source prefetch (``bufs``) and
        before the op walk.  Returns a list parallel to the execution
        plan — entry ``(result, commit, i, predicted_items)`` at each
        batched op's index, ``None`` elsewhere — or ``None`` to walk the
        whole period per firing.  Nothing observable is mutated here:
        state changes happen via ``commit`` during the walk.
        """
        occupancy = tuple(len(ch.items) for ch in self.chans)
        if occupancy != self.occupancy:
            self.occupancy = occupancy
            self.layout = self.prepare()
        layout = self.layout
        if layout is None:
            return None
        carried = None
        if self.carried:
            carried = {ev[3][0]: ev[3][1] for ev in events
                       if ev[1] == _FINISH}
        results: list = []
        prepared: list = [None] * self.plan_len
        for g, ports in zip(self.groups, layout):
            if ports is None:
                results.append(None)
                continue
            inputs: dict[str, list] = {}
            for port, ch, shape, slots in ports:
                queued = ch.items
                ilist = []
                for slot in slots:
                    tag = slot[0]
                    if tag == _SOURCE:
                        it = bufs[slot[1]][slot[2]][1]
                    elif tag == _QUEUED:
                        it = queued[slot[1]]
                    elif tag == _GROUP:
                        it = results[slot[1]][slot[2]][slot[3]][1]
                    else:
                        fr = carried.get(slot[1])
                        if fr is None or slot[2] >= len(fr.emissions):
                            return None
                        it = fr.emissions[slot[2]][1]
                    if (
                        type(it) is not np.ndarray
                        or it.dtype != _F8
                        or it.shape != shape
                    ):
                        return None
                    ilist.append(it)
                inputs[port] = ilist
            out = g.kernel.batched_apply(g.method, inputs)
            if out is None:
                return None
            ems_list, commit = out
            if len(ems_list) != g.n:
                return None
            exp_counts = g.exp_counts
            exp_ports = g.exp_ports
            for i in range(g.n):
                ems = ems_list[i]
                if len(ems) != exp_counts[i]:
                    return None
                pexp = exp_ports[i]
                for j, em in enumerate(ems):
                    if em[0] != pexp[j]:
                        return None
            results.append(ems_list)
            # Per-firing walk entries: (channel, predicted-item) pairs let
            # the walk peek and pop without port-name lookups; the one-
            # and two-port shapes cover every batchable kernel.
            chans = g.chans
            ils = [inputs[p] for p in g.cports]
            if len(chans) == 1:
                ch0 = chans[0]
                il0 = ils[0]
                for i, oi in enumerate(g.op_indices):
                    prepared[oi] = (BatchResult(ems_list[i]), commit, i,
                                    ((ch0, il0[i]),))
            elif len(chans) == 2:
                ch0, ch1 = chans
                il0, il1 = ils
                for i, oi in enumerate(g.op_indices):
                    prepared[oi] = (BatchResult(ems_list[i]), commit, i,
                                    ((ch0, il0[i]), (ch1, il1[i])))
            else:
                for i, oi in enumerate(g.op_indices):
                    prepared[oi] = (
                        BatchResult(ems_list[i]), commit, i,
                        tuple((c, il[i]) for c, il in zip(chans, ils)),
                    )
        return prepared


def _translate(ref, op_to_group):
    if ref is None:
        return None
    tag = ref[0]
    if tag == "s":
        return (_SOURCE, ref[1], ref[2])
    if tag == "c":
        return (_CARRIED, ref[1], ref[2])
    gi = op_to_group.get(ref[1])
    if gi is None:
        return None
    return (_GROUP, gi[0], gi[1], ref[2])


def compile_batch_plan(xplan, source_states, min_width: int,
                       scalar: dict) -> BatchPlan | None:
    """Symbolically execute ``xplan`` and group its batchable firings.

    Returns ``None`` when nothing in the period batches.  Op layouts are
    the replay walk's (``repro.sim.replay``): EXEC ``(code, st, ps, fkey,
    ...costs..., esig, ...)``, FIN ``(code, st, check)``, SRC ``(code,
    source index, count, check)``, IO ``(code, st, signature, entries)``;
    ``fkey`` is a frozen ``Firing`` or a token tuple ``(kind, method,
    consume_ports, token type name)``.  Why each
    data-firing kernel that does not batch walks scalar is written into
    ``scalar`` (kernel name -> reason).
    """
    from .replay import _X_EXEC, _X_FIN, _X_IO, _X_SRC

    # The completion carried across the period boundary is always the
    # kernel's *last* EXEC of the (periodic) plan, so its emission
    # signature names what a leading FINISH-without-EXEC delivers.
    last_esig: dict = {}
    for op in xplan:
        if op[0] == _X_EXEC:
            last_esig[op[1]] = op[11]

    produced: dict[int, list] = {}   # channel id -> refs, in push order
    chan: dict[int, object] = {}
    poisoned: set[int] = set()       # channels with unknowable push counts
    pops: dict[int, int] = {}
    cand: dict = {}                  # st -> [(op_idx, firing, esig, slots)]
    others: dict = {}                # st -> non-candidate method names
    pending: dict = {}               # st -> (origin op index | None, esig)
    src_count: dict = {}

    def record_pops(st, cports):
        slots = []
        rin = st.rk.inputs
        for port in cports:
            ch = rin.get(port)
            if ch is None:
                return None
            cid = id(ch)
            chan[cid] = ch
            k = pops.get(cid, 0)
            pops[cid] = k + 1
            slots.append((cid, k))
        return slots

    def push(st, port, ref):
        for ch, _dst, _chk in st.out.get(port, ()):
            cid = id(ch)
            chan[cid] = ch
            produced.setdefault(cid, []).append(ref)

    for oi, op in enumerate(xplan):
        code = op[0]
        if code == _X_EXEC:
            st = op[1]
            fkey = op[3]
            if type(fkey) is Firing:
                slots = record_pops(st, fkey.consume_ports)
                if slots is None:
                    others.setdefault(st, set()).add("<unwired>")
                else:
                    cand.setdefault(st, []).append((oi, fkey, op[11], slots))
                pending[st] = (oi, op[11])
            else:
                kind, method, cports, _tname = fkey
                record_pops(st, cports)
                if kind == "token" and method is not None:
                    others.setdefault(st, set()).add(method.name)
                else:
                    others.setdefault(st, set()).add(FORWARD_OTHER)
                pending[st] = (None, op[11])
        elif code == _X_FIN:
            st = op[1]
            if st in pending:
                origin, esig = pending.pop(st)
            else:
                origin = -1
                esig = last_esig.get(st)
                if esig is None:
                    for chans in st.out.values():
                        for ch, _d, _c in chans:
                            poisoned.add(id(ch))
                    continue
            for e in range(0, len(esig), 2):
                if origin is None:
                    ref = None  # token/forward values exist only mid-walk
                elif origin == -1:
                    ref = ("c", st, e >> 1)
                else:
                    ref = ("x", origin, e >> 1)
                push(st, esig[e], ref)
        elif code == _X_SRC:
            idx = op[1]
            base_k = src_count.get(idx, 0)
            st = source_states[idx]
            for j in range(op[2]):
                push(st, "out", ("s", idx, base_k + j))
            src_count[idx] = base_k + op[2]
        elif code == _X_IO:
            st = op[1]
            for fkey, esig, _nout in op[3]:
                record_pops(st, fkey.consume_ports if type(fkey) is Firing
                            else fkey[2])
                for e in range(0, len(esig), 2):
                    push(st, esig[e], None)

    # ------------------------------------------------------------------
    # Candidate groups: one frozen data firing per kernel, data-only
    # emissions, enough firings per period to pay, and the kernel
    # accepting its in-period company.
    # ------------------------------------------------------------------
    groups: dict = {}
    for st, ops_list in cand.items():
        f0 = ops_list[0][1]
        if f0.method is None or any(o[1] is not f0 for o in ops_list):
            scalar[st.name] = "several data methods in the period"
            continue
        if any(esig[e] for _oi, _f, esig, _s in ops_list
               for e in range(1, len(esig), 2)):
            scalar[st.name] = "emits control tokens"
            continue
        if len(ops_list) < min_width:
            scalar[st.name] = (f"{len(ops_list)} firing per period "
                               f"(< {min_width})")
            continue
        oset = frozenset(others.get(st, ()))
        try:
            accepted = st.rk.kernel.batch_accepts(f0.method.name, oset)
        except Exception:
            accepted = False
        if accepted:
            groups[st] = ops_list
        else:
            scalar[st.name] = "kernel declined"

    # ------------------------------------------------------------------
    # Ordering: drop groups reading poisoned channels, then topologically
    # sort the rest by which *surviving* group pushed into each consumed
    # channel's prefix (period-start occupancy shifts which push lands in
    # which slot, so the whole prefix is a conservative dependency set).
    # Unresolvable prefix entries — opaque token pushes, non-batched
    # producers — do NOT drop the group here: prepare() sees the real
    # occupancy and drops only groups whose *needed* slot is opaque.
    # A dependency cycle drops its members and retries the sort.
    # ------------------------------------------------------------------
    for st in list(groups):
        if any(
            cid in poisoned
            for _oi, _f, _esig, slots in groups[st]
            for cid, _k in slots
        ):
            scalar[st.name] = "input count not static"
            del groups[st]
    order: list = []
    while True:
        if not groups:
            return None
        deps_map: dict = {}
        for st in groups:
            deps = set()
            for _oi, _f, _esig, slots in groups[st]:
                for cid, k in slots:
                    for ref in produced.get(cid, ())[: k + 1]:
                        if ref is not None and ref[0] == "x":
                            pst = xplan[ref[1]][1]
                            if pst is not st and pst in groups:
                                deps.add(pst)
            deps_map[st] = deps
        indeg = {st: len(deps_map[st]) for st in groups}
        rdeps: dict = {st: [] for st in groups}
        for st, deps in deps_map.items():
            for d in deps:
                rdeps[d].append(st)
        queue = [st for st in groups if indeg[st] == 0]
        order = []
        while queue:
            st = queue.pop()
            order.append(st)
            for c in rdeps[st]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    queue.append(c)
        if len(order) == len(groups):
            break
        for st in [s for s in groups if indeg[s] > 0]:
            scalar[st.name] = "dependency cycle"
            del groups[st]

    # ------------------------------------------------------------------
    # Finalize: producers before consumers, refs translated to direct
    # (source buffer | carried completion | group result) indices.
    # ------------------------------------------------------------------
    op_to_group: dict[int, tuple[int, int]] = {}
    for gid, st in enumerate(order):
        for i, (oi, _f, _esig, _slots) in enumerate(groups[st]):
            op_to_group[oi] = (gid, i)

    plan_groups = []
    consumed: dict[int, object] = {}
    has_carried = False
    for st in order:
        ops_list = groups[st]
        f0 = ops_list[0][1]
        kernel = st.rk.kernel
        cports = f0.consume_ports
        ports = []
        for j, port in enumerate(cports):
            cid = ops_list[0][3][j][0]
            ks = [o[3][j][1] for o in ops_list]
            spec = kernel.input_spec(port)
            refs = tuple(
                _translate(r, op_to_group)
                for r in produced.get(cid, ())[: max(ks) + 1]
            )
            has_carried = has_carried or any(
                r is not None and r[0] == _CARRIED for r in refs
            )
            consumed[cid] = chan[cid]
            ports.append(
                (port, chan[cid], ks, (spec.window.h, spec.window.w), refs)
            )
        g = _Group()
        g.name = st.name
        g.kernel = kernel
        g.method = f0.method.name
        g.n = len(ops_list)
        g.op_indices = [o[0] for o in ops_list]
        g.cports = cports
        g.ports = tuple(ports)
        g.chans = tuple(p[1] for p in ports)
        g.exp_counts = [len(o[2]) // 2 for o in ops_list]
        g.exp_ports = [o[2][0::2] for o in ops_list]
        plan_groups.append(g)
        scalar.pop(st.name, None)

    plan = BatchPlan()
    plan.groups = tuple(plan_groups)
    plan.plan_len = len(xplan)
    plan.kernel_names = tuple(g.name for g in plan_groups)
    plan.scalar = scalar
    plan.chans = tuple(consumed.values())
    plan.occupancy = None
    plan.layout = None
    plan.carried = has_carried
    return plan
