"""Span tracer for the nuconcat benchmark.

The tracer wraps public functions of ``nuconcat`` modules from outside the
package, at the module boundaries the benchmark reports on.  Every call to a
wrapped function opens a span (name, start, end, parent id); spans stay in
memory and are written out by the runner when the run ends.

Hot leaf functions (``faults.propagate``, ``DecodeContext.decode``) are called
hundreds of thousands of times and call no other wrapped function.  Their
calls are folded into one record per (parent span, name) holding the call
count and total time, which keeps memory bounded; a leaf's self time is its
duration, so nothing is lost for self-time accounting.

Between ``start()`` and ``stop()`` the tracer also clocks, on its own, the
time during which no span is open (``unattributed``), so that self times
plus unattributed time can be checked against the traced wall time.
"""

from __future__ import annotations

import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

ROOT = -1  # parent id of spans opened outside any other span


class Tracer:
    def __init__(self):
        self.spans: list[list] = []              # [id, name, start, end, parent]
        self.leaves: dict[tuple[int, str], list] = {}  # (parent, name) -> [calls, total_s]
        self.counts: Counter = Counter()
        self.wall = 0.0
        self.unattributed = 0.0   # time inside start()..stop() with no span open
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._started = self._idle_since = 0.0

    def start(self) -> None:
        self._started = self._idle_since = perf_counter()

    def stop(self) -> None:
        now = perf_counter()
        self.unattributed += now - self._idle_since
        self.wall = now - self._started

    def _enter(self, now: float) -> None:
        if not self._stack:
            self.unattributed += now - self._idle_since

    def _exit(self, now: float) -> None:
        if not self._stack:
            self._idle_since = now

    # -- wrappers -------------------------------------------------------------

    def span(self, name, fn, on_exit=None):
        """Wrap ``fn`` in a span; ``on_exit(record, result, error)`` runs
        after the span closes and may rename it or bump counters."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            start = perf_counter()
            self._enter(start)
            record = [len(spans), name, start, 0.0, stack[-1] if stack else ROOT]
            spans.append(record)
            stack.append(record[0])
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                record[3] = perf_counter()
                stack.pop()
                self._exit(record[3])
                if on_exit is not None:
                    on_exit(record, result, error)

        return wrapper

    def leaf(self, name, fn):
        """Wrap a hot function that calls no other wrapped function."""
        leaves, stack = self.leaves, self._stack

        def wrapper(*args, **kwargs):
            start = perf_counter()
            if not stack:
                self._enter(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                elapsed = end - start
                if not stack:
                    self._exit(end)
                key = (stack[-1] if stack else ROOT, name)
                agg = leaves.get(key)
                if agg is None:
                    leaves[key] = agg = [0, 0.0]
                agg[0] += 1
                agg[1] += elapsed

        return wrapper

    # -- installation -----------------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)``.

        A module-level function is also replaced in every loaded ``nuconcat``
        module that imported it by name, so calls made inside the package go
        through the wrapper too.
        """
        original = getattr(owner, attr)
        wrapped = make(original)
        owners = [owner]
        if isinstance(owner, types.ModuleType):
            owners += [mod for name, mod in list(sys.modules.items())
                       if name.split(".")[0] == "nuconcat" and mod is not owner
                       and getattr(mod, attr, None) is original]
        for target in owners:
            setattr(target, attr, wrapped)
            self._patches.append((target, attr, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per-name self time: a span's duration minus the durations of its
        direct children (spans nest strictly because calls do)."""
        child = defaultdict(float)
        for _sid, _name, start, end, parent in self.spans:
            child[parent] += end - start
        for (parent, _name), (_calls, total) in self.leaves.items():
            child[parent] += total
        selfs: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _parent in self.spans:
            selfs[name] += (end - start) - child[sid]
        for (_parent, name), (_calls, total) in self.leaves.items():
            selfs[name] += total
        return dict(selfs)

    def leaf_calls(self, name: str) -> int:
        return sum(calls for (_p, n), (calls, _t) in self.leaves.items() if n == name)

    def dump(self) -> dict:
        return {
            "spans": [{"id": sid, "name": name, "start": start, "end": end, "parent": parent}
                      for sid, name, start, end, parent in self.spans],
            "leaf_totals": [{"parent": parent, "name": name, "calls": calls, "total_s": total}
                            for (parent, name), (calls, total) in self.leaves.items()],
        }
