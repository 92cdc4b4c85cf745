"""In-memory spans recorded from the benchmark's side of each layer call.

Nothing here touches the program's source: coarse layer calls are timed
where the benchmark makes them (``span``), and the high-frequency
boundaries inside a simulation (kernel method bodies, ``batched_apply``,
``BatchPlan.prepare``, the explore cache and store methods) are wrapped
for the duration of a traced pass (``instrument_kernels``, ``patch``).

Leaf calls run up to a million times per pass, so they are not kept as
individual spans: each adds its call count and busy time to the
innermost open span.  Spans stay in memory and ``dump`` writes them out
once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    # -- recording ----------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1]["id"] if self._stack else None
        record = {"id": len(self.spans), "parent": parent, "name": name,
                  "start_ns": perf_counter_ns(), "end_ns": None,
                  "leaf": {}, **attrs}
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end_ns"] = perf_counter_ns()
            self._stack.pop()

    def current(self) -> dict | None:
        """The innermost open span."""
        return self._stack[-1] if self._stack else None

    def add(self, name: str, duration_s: float, parent: dict | None = None,
            **attrs) -> dict:
        """Record a span measured elsewhere (a child process, a log)."""
        record = {"id": len(self.spans),
                  "parent": None if parent is None else parent["id"],
                  "name": name, "start_ns": 0,
                  "end_ns": int(duration_s * 1e9), "leaf": {}, **attrs}
        self.spans.append(record)
        return record

    def leaf(self, fn, name: str):
        """Wrap ``fn`` so each call adds to ``name`` on the open span."""
        stack = self._stack

        def traced(*args, **kwargs):
            started = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - started
                if stack:
                    slot = stack[-1]["leaf"].setdefault(name, [0, 0])
                    slot[0] += 1
                    slot[1] += elapsed
        return traced

    def instrument_kernels(self, graph) -> None:
        """Wrap every kernel body of one compiled graph, per instance.

        The simulator looks bodies up with ``getattr(kernel, name)``, so
        an instance attribute shadows the class method for this graph
        only.  ``batched_apply`` is wrapped where a kernel class
        implements it.
        """
        from repro.graph.kernel import Kernel

        for kernel in graph.kernels.values():
            names = set(kernel.methods) | set(kernel.init_methods)
            names |= {m.selector for m in kernel.methods.values()
                      if m.selector is not None}
            for name in names:
                setattr(kernel, name, self.leaf(getattr(kernel, name),
                                                "kernels"))
            if type(kernel).batched_apply is not Kernel.batched_apply:
                kernel.batched_apply = self.leaf(kernel.batched_apply,
                                                 "batch.apply")

    @contextlib.contextmanager
    def patch(self, cls, attr: str, name: str):
        """Wrap a class method as a leaf for the duration of the block."""
        original = cls.__dict__[attr]
        setattr(cls, attr, self.leaf(original, name))
        try:
            yield
        finally:
            setattr(cls, attr, original)

    # -- queries --------------------------------------------------------

    def total_s(self, name: str) -> float:
        return sum(s["end_ns"] - s["start_ns"]
                   for s in self.spans if s["name"] == name) / 1e9

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def leaf_total(self, name: str) -> tuple[int, float]:
        calls = ns = 0
        for s in self.spans:
            slot = s["leaf"].get(name)
            if slot is not None:
                calls += slot[0]
                ns += slot[1]
        return calls, ns / 1e9

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}) + "\n")
