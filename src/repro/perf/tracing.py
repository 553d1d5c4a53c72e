"""Per-request tracing: trace ids, lifecycle events, ring buffer, slow log.

A :class:`Trace` is minted when a request enters the serving engine and
collects timestamped lifecycle events as the request moves through the
stack. The canonical serving lifecycle is six events::

    enqueue → batch_assembly → tokenize → forward → scatter → complete

(``enqueue`` at submit, ``batch_assembly`` when the batch thread
starts the coalesced batch, then that batch's processing phases).
Queue wait is the enqueue→batch_assembly gap; end-to-end latency is
enqueue→complete.

Finished traces land in a bounded ring buffer (:meth:`Tracer.recent`
serves "what just happened" debugging, the ``python -m repro trace``
command prints it) and, when they exceed a configurable threshold, are
appended as JSON lines to a *slow-request log* so tail-latency outliers
survive process exit — in a risk-monitoring deployment the p99 stragglers
are exactly the requests worth post-morteming.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from pathlib import Path

__all__ = ["LIFECYCLE_EVENTS", "Trace", "Tracer"]

LIFECYCLE_EVENTS = (
    "enqueue",
    "batch_assembly",
    "tokenize",
    "forward",
    "scatter",
    "complete",
)


class Trace:
    """One request's id, wall-clock anchor and event timeline.

    ``event()`` is called from the submitting thread and then from
    engine threads, but never concurrently for the same trace (the
    request is owned by exactly one stage at a time), so appends are
    unguarded.
    """

    __slots__ = ("trace_id", "started_unix", "_t0", "events", "metadata")

    def __init__(
        self,
        trace_id: str,
        clock=time.perf_counter,
        metadata: dict | None = None,
    ) -> None:
        self.trace_id = trace_id
        self.started_unix = time.time()
        self._t0 = clock()
        self.events: list[tuple[str, float]] = []
        self.metadata = metadata or {}

    def event(self, name: str, t: float | None = None) -> None:
        self.events.append((name, time.perf_counter() if t is None else t))

    def _gap(self, first: str, second: str) -> float | None:
        times = dict(self.events)
        if first in times and second in times:
            return times[second] - times[first]
        return None

    @property
    def total_s(self) -> float:
        if not self.events:
            return 0.0
        return self.events[-1][1] - self.events[0][1]

    @property
    def queue_wait_s(self) -> float:
        return self._gap("enqueue", "batch_assembly") or 0.0

    def as_dict(self) -> dict:
        t0 = self.events[0][1] if self.events else self._t0
        return {
            "trace_id": self.trace_id,
            "started_unix": self.started_unix,
            "total_ms": self.total_s * 1e3,
            "queue_wait_ms": self.queue_wait_s * 1e3,
            "events": [
                {"name": name, "t_ms": (t - t0) * 1e3}
                for name, t in self.events
            ],
            "metadata": self.metadata,
        }


class Tracer:
    """Mints traces, keeps a bounded ring of finished ones, logs slow ones.

    ring_size:
        How many finished traces to retain (oldest evicted first).
    slow_threshold_s:
        Traces whose end-to-end latency meets/exceeds this are appended
        to ``slow_log_path`` (one JSON object per line) when a path is
        configured.
    slow_log_path:
        JSONL file for slow requests; parent directories are created.
        ``None`` disables the log (the ring still records everything).
    """

    def __init__(
        self,
        ring_size: int = 256,
        slow_threshold_s: float = 1.0,
        slow_log_path: str | Path | None = None,
    ) -> None:
        if ring_size < 1:
            raise ValueError("ring_size must be >= 1")
        self.ring_size = ring_size
        self.slow_threshold_s = slow_threshold_s
        self.slow_log_path = Path(slow_log_path) if slow_log_path else None
        self._ring: list[Trace] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._finished = 0
        self._slow = 0

    def start(self, **metadata) -> Trace:
        """Mint a new trace with a process-unique id."""
        return Trace(f"req-{next(self._ids):06d}", metadata=metadata)

    def finish(self, trace: Trace) -> None:
        """Ring-buffer the trace; append to the slow log if over threshold."""
        slow = trace.total_s >= self.slow_threshold_s
        with self._lock:
            self._finished += 1
            self._ring.append(trace)
            if len(self._ring) > self.ring_size:
                del self._ring[: len(self._ring) - self.ring_size]
            if slow:
                self._slow += 1
        if slow and self.slow_log_path is not None:
            line = json.dumps(trace.as_dict(), sort_keys=True)
            with self._lock:
                self.slow_log_path.parent.mkdir(parents=True, exist_ok=True)
                with self.slow_log_path.open("a", encoding="utf-8") as fh:
                    fh.write(line + "\n")

    def recent(self, limit: int | None = None) -> list[dict]:
        """Most recent finished traces, newest first."""
        with self._lock:
            traces = list(self._ring)
        traces.reverse()
        if limit is not None:
            traces = traces[:limit]
        return [t.as_dict() for t in traces]

    def stats(self) -> dict:
        with self._lock:
            return {
                "finished": self._finished,
                "slow": self._slow,
                "in_ring": len(self._ring),
                "ring_size": self.ring_size,
                "slow_threshold_s": self.slow_threshold_s,
            }
