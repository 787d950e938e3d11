"""Spans around the benchmark's calls into the program, written as Chrome
Trace Event JSON (Perfetto and ``chrome://tracing`` open the file).

Every span has a name, a start, an end and the span it ran inside. Spans
are kept in memory and written once, when the run ends.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "parent", "name", "args", "start_ns", "end_ns")

    def __init__(self, id, parent, name, args):
        self.id, self.parent, self.name, self.args = id, parent, name, args
        self.start_ns = self.end_ns = 0

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Times nested spans; keeps them only when ``enabled``.

    A disabled tracer still times each span, so set-up code is the same in
    traced and untraced runs, but it records nothing and writes no file.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self._stack: list = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str, **args):
        parent = self._stack[-1].id if self._stack else None
        s = Span(self._next_id, parent, name, args)
        self._next_id += 1
        if self.enabled:
            self.spans.append(s)
        self._stack.append(s)
        s.start_ns = time.perf_counter_ns()
        try:
            yield s
        finally:
            s.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def write_chrome_trace(self, path: str, metadata: dict) -> None:
        t0 = min((s.start_ns for s in self.spans), default=0)
        pid = os.getpid()
        events = [
            {
                "name": s.name,
                "cat": s.name.split(".", 1)[0],
                "ph": "X",
                "ts": (s.start_ns - t0) / 1e3,
                "dur": (s.end_ns - s.start_ns) / 1e3,
                "pid": pid,
                "tid": 1,
                "args": {"id": s.id, "parent": s.parent, **s.args},
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": metadata}, fh)


class TracedKernels:
    """Duck-types the kernels module for ``models.forward(instr=...)``.

    Each kernel call goes to the program's ``bench.Instrumentation``, which
    times it and counts its operations, inside a span of its own.
    """

    def __init__(self, instr, tracer: Tracer):
        self._instr = instr
        self._tracer = tracer

    def __getattr__(self, name):
        fn = getattr(self._instr, name)

        def call(*args, **kwargs):
            with self._tracer.span("kernels." + name):
                return fn(*args, **kwargs)

        return call
