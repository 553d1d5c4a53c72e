"""In-memory span recorder for the traced benchmark run.

A span has a name, a start, an end, the span that opened it (its parent)
and a request id, inherited from the parent unless given. Spans nest per
thread. When a span closes, its self time (duration minus the time its
children cover) and its duration are added to per-name totals, so the
per-layer figures stay exact however many spans a run produces. The raw
records are kept in memory up to ``keep`` spans and written out once, at
the end of the run; spans past that cap are counted in ``dropped``.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path


class _Frame:
    __slots__ = ("span_id", "parent_id", "name", "start", "end", "child_s", "rid")

    def __init__(self, span_id, parent_id, name, start, rid) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end = None
        self.child_s = 0.0
        self.rid = rid


class Tracer:
    """Records spans opened by the benchmark's layer wrappers."""

    def __init__(self, clock=time.perf_counter, keep: int = 200_000) -> None:
        self.clock = clock
        self.keep = keep
        self.records: list[tuple] = []
        self.dropped = 0
        #: name -> [calls, total_s, self_s]
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        #: (start, end) of every span opened with no parent on its thread.
        self.roots: list[tuple[float, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, rid=None) -> _Frame:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent.rid
        frame = _Frame(
            next(self._ids),
            parent.span_id if parent is not None else None,
            name,
            self.clock(),
            rid,
        )
        stack.append(frame)
        return frame

    def close(self, frame: _Frame) -> None:
        end = frame.end = self.clock()
        stack = self._stack()
        popped = stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")
        duration = end - frame.start
        if stack:
            stack[-1].child_s += duration
        with self._lock:
            totals = self.totals[frame.name]
            totals[0] += 1
            totals[1] += duration
            totals[2] += duration - frame.child_s
            if not stack:
                self.roots.append((frame.start, end))
            if len(self.records) < self.keep:
                self.records.append(
                    (frame.span_id, frame.parent_id, frame.name,
                     frame.start, end, frame.rid)
                )
            else:
                self.dropped += 1

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def inside(self, name: str) -> bool:
        """True when a span called ``name`` is open on this thread."""
        return any(frame.name == name for frame in self._stack())

    def calls(self, name: str) -> int:
        return self.totals[name][0] if name in self.totals else 0

    def total_s(self, name: str) -> float:
        return self.totals[name][1] if name in self.totals else 0.0

    def self_s(self, name: str) -> float:
        return self.totals[name][2] if name in self.totals else 0.0

    def write(self, path: Path) -> None:
        """Write the kept span records as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span_id, parent_id, name, start, end, rid in self.records:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent_id, "name": name,
                    "start": start, "end": end, "rid": rid,
                }) + "\n")
