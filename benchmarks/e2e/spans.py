"""Benchmark-side span recorder.

The traced pass wraps calls *into* the program's layers from the
benchmark's own files: every shim is set as an instance attribute on an
object the benchmark built (or is a proxy the benchmark put in front of
a ``__slots__`` object), so nothing under ``src/`` changes and the
untraced pass runs the program exactly as shipped.

A span is (id, parent id, name, layer, start ns, end ns, slice id); the
spans of one slice share the slice id.  A layer's *self time* is its
spans' durations minus the part their child spans cover; it is summed
online so a long traced pass needs no span storage.  The first
``keep`` spans are also kept in memory and written as Chrome-trace JSON
when the run ends (load it in chrome://tracing or https://ui.perfetto.dev).
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns

__all__ = ["Tracer", "Proxy"]

#: Layer that owns whatever the shims did not attribute: the benchmark's
#: own slice loop.  Its share is the trace's unattributed time.
HARNESS = "harness"


class Tracer:
    def __init__(self, keep: int = 60_000):
        self.keep = keep
        self.events: list = []
        self.self_ns = defaultdict(int)
        self.slice_id = -1
        #: Open spans, innermost last: [span id, ns covered by children].
        self._stack: list = []
        self._next_id = 0

    def reset(self) -> None:
        """Forget everything recorded so far (set-up and warm-up)."""
        self.events.clear()
        self.self_ns.clear()

    # -- span bookkeeping ---------------------------------------------------
    def _open(self) -> list:
        self._next_id += 1
        frame = [self._next_id, 0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, name: str, layer: str, start: int) -> None:
        # The clock is read first on entry and (nearly) last on exit, so
        # a span's own bookkeeping counts as its layer's time, not as
        # its parent's.
        stack = self._stack
        stack.pop()
        kept = len(self.events) < self.keep
        end = perf_counter_ns()
        duration = end - start
        self.self_ns[layer] += duration - frame[1]
        parent = 0
        if stack:
            stack[-1][1] += duration
            parent = stack[-1][0]
        if kept:
            self.events.append(
                (frame[0], parent, name, layer, start, end, self.slice_id)
            )

    def run_slice(self, index: int, fn, *args):
        """Run ``fn`` as slice ``index`` under a root harness span."""
        self.slice_id = index
        start = perf_counter_ns()
        frame = self._open()
        try:
            return fn(*args)
        finally:
            self._close(frame, "slice", HARNESS, start)

    # -- shims --------------------------------------------------------------
    def function(self, fn, layer: str, name: str):
        """``fn`` with a span around every call."""
        open_span, close_span = self._open, self._close

        def traced(*args, **kwargs):
            start = perf_counter_ns()
            frame = open_span()
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(frame, name, layer, start)

        return traced

    def generator(self, gen, layer: str, name: str):
        """A sim process with a span around every resume of ``gen``.

        The simulator runs a process as many short resumes separated by
        waits; only the resumes are the layer's host time.
        """
        open_span, close_span = self._open, self._close
        value = None
        while True:
            start = perf_counter_ns()
            frame = open_span()
            try:
                event = gen.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                close_span(frame, name, layer, start)
            value = yield event

    def wrap(self, obj, attr: str, layer: str, name: str = "") -> None:
        """Shadow ``obj.attr`` with a traced instance attribute."""
        name = name or f"{layer}.{type(obj).__name__}.{attr.lstrip('_')}"
        setattr(obj, attr, self.function(getattr(obj, attr), layer, name))

    def wrap_process(self, obj, attr: str, layer: str) -> None:
        """Same for a method that returns a sim-process generator."""
        method = getattr(obj, attr)
        name = f"{layer}.{type(obj).__name__}.{attr.lstrip('_')}"

        def traced(*args, **kwargs):
            return self.generator(method(*args, **kwargs), layer, name)

        setattr(obj, attr, traced)

    # -- results ------------------------------------------------------------
    def shares(self) -> dict:
        """Each layer's share of all traced slice time (sums to 1)."""
        total = sum(self.self_ns.values())
        return {layer: ns / total for layer, ns in self.self_ns.items()}

    def write_chrome_trace(self, path) -> None:
        origin = min((event[4] for event in self.events), default=0)
        trace = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (start - origin) / 1000.0,
                "dur": (end - start) / 1000.0,
                "args": {"span": span, "parent": parent, "slice": slice_id},
            }
            for span, parent, name, layer, start, end, slice_id in self.events
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": trace, "displayTimeUnit": "ns"}, handle)


class Proxy:
    """Traced stand-in for a ``__slots__`` object (FlowCache, Ring).

    Instance attributes cannot be set on those, so the benchmark puts
    this in the owner's attribute instead; the named methods get spans
    and everything else is forwarded untouched.
    """

    def __init__(self, target, tracer: Tracer, layer: str, methods):
        self._target = target
        for attr in methods:
            name = f"{layer}.{type(target).__name__}.{attr}"
            setattr(
                self, attr, tracer.function(getattr(target, attr), layer, name)
            )

    def __getattr__(self, attr):
        return getattr(self._target, attr)
