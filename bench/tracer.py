"""Tracing from outside the program: wrap module functions, record spans, restore.

The program's sources are never edited.  :class:`Patcher` replaces module
attributes in the current process and puts the originals back;
:class:`Tracer` builds the wrappers.  Three wrapper kinds exist:

* ``span``: timed, counted and stored as a span record (name, start, end,
  parent span) kept in memory and written out at the end of the run;
* ``timed``: timed and counted like a span but not stored, for calls made
  per window or per observation, whose records would not fit in memory;
* ``count``: only counted, for hot leaves such as ``transition_prob``.

Self time is a call's duration minus the time its timed child calls cover.
It is accumulated online for ``span`` and ``timed`` calls alike, so a
function's self time is exact whatever kind its callers and callees are.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array


class Patcher:
    """Replaces attributes and restores the originals in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, new) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def replace_everywhere(self, modules, original, new) -> None:
        """Rebind every module-level name that refers to ``original``.

        Modules import functions by name, so the defining module is only one
        of the places a call can look the function up.
        """
        for module in modules:
            for name in [n for n, v in vars(module).items() if v is original]:
                self.replace(module, name, new)

    def restore(self) -> None:
        while self._saved:
            owner, name, old = self._saved.pop()
            setattr(owner, name, old)


def public_functions(module):
    """Module-level public functions defined in ``module`` itself."""
    return [
        (name, fn) for name, fn in sorted(vars(module).items())
        if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_")
    ]


class Tracer:
    """Collects per-function call counts, total time, self time and spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        # span records, one entry per stored call
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        # frames of the calls in progress: [child time, nearest stored span]
        self._stack: list[list] = [[0.0, -1]]

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.total.append(0.0)
        self.self_time.append(0.0)
        return len(self.names) - 1

    def wrap(self, name: str, fn, kind: str = "span", after=None):
        """Wrapper of ``fn`` recording under ``name``.

        ``after(args, kwargs, result, exc)`` runs once the call has been
        timed, for counters that need the arguments or the result.
        """
        nid = self._name_id(name)
        calls = self.calls
        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[nid] += 1
                return fn(*args, **kwargs)
            return counted
        if kind not in ("span", "timed"):
            raise ValueError(f"unknown wrapper kind {kind!r}")
        store = kind == "span"
        clock, stack = self.clock, self._stack
        total, self_time = self.total, self.self_time
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if store:
                idx = len(names)
                names.append(nid)
                parents.append(stack[-1][1])
                starts.append(0.0)
                ends.append(0.0)
            else:
                idx = stack[-1][1]
            frame = [0.0, idx]
            stack.append(frame)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stack[-1][0] += duration
                calls[nid] += 1
                total[nid] += duration
                self_time[nid] += duration - frame[0]
                if store:
                    starts[idx] = start
                    ends[idx] = end
                if after is not None:
                    after(args, kwargs, result, exc)

        return timed

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-name calls, total seconds and self seconds (names never called omitted)."""
        return {
            name: {"calls": self.calls[i], "total_s": self.total[i], "self_s": self.self_time[i]}
            for i, name in enumerate(self.names) if self.calls[i]
        }

    def write_spans(self, path: str) -> None:
        """Span records as JSON: name table plus parallel arrays (times in seconds)."""
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(),
                "start": self.span_start.tolist(),
                "end": self.span_end.tolist(),
            }, fh)
