"""High-throughput inference engine over any registry risk model.

The serving workload (ROADMAP north star: "heavy traffic from millions
of users") is dominated by repeated small scoring requests. Scoring one
window at a time wastes almost all of its wall clock on per-call
overhead — python dispatch, feature/tokenization setup, tiny gemms. The
:class:`InferenceEngine` closes that gap three ways:

* **dynamic micro-batching** — asynchronous ``submit`` requests queue up
  and one batch thread coalesces them into batches of up to
  ``max_batch_size``, waiting at most ``max_wait_s`` after the first
  request so latency stays bounded under light load, then runs each
  batch it assembled;
* **a bounded LRU tokenization cache** — users repost and windows
  overlap, so per-post token encodings are memoised (and bounded, unlike
  a bare dict, so long-running processes don't leak). The engine owns
  the cache and passes it to :meth:`RiskModel.encode`; the model is
  never modified;
* **a synchronous ``predict_many`` fast path** — bulk scoring skips the
  queue entirely and feeds size-capped batches straight to the model.

All scoring runs under :func:`repro.nn.no_grad`, and every stage is
instrumented through ``repro.perf``: ``serve.*`` spans/counters, gauges
(queue depth, in-flight batches, tokenization-cache occupancy),
per-request latency/queue-wait histograms, and — on the async path — a
full lifecycle *trace* per request (enqueue → batch_assembly →
tokenize → forward → scatter → complete) kept in a bounded ring buffer,
with requests over ``slow_threshold_s`` appended to a JSONL slow log.
See ``docs/observability.md``.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np

from repro import perf
from repro.core.errors import ModelError
from repro.core.lru import LRUCache
from repro.models.base import RiskModel
from repro.nn import no_grad
from repro.perf.tracing import Trace, Tracer
from repro.temporal.windows import PostWindow

__all__ = ["EngineConfig", "InferenceEngine"]

_SHUTDOWN = object()


@dataclass(frozen=True)
class EngineConfig:
    """Serving knobs.

    max_batch_size:
        Upper bound on coalesced batch size (both paths).
    max_wait_s:
        How long the micro-batcher waits for stragglers after the first
        queued request before dispatching a partial batch.
    tokenization_cache_size:
        LRU budget (distinct post texts) for the tokenization cache.
    tracing:
        Trace every async request's lifecycle (six timestamped events)
        and feed the per-request latency/queue-wait histograms. Traced
        and untraced requests run the same model calls; tracing only
        adds the timestamps.
    trace_ring_size:
        How many finished traces the in-memory ring retains.
    slow_threshold_s:
        Requests at/over this end-to-end latency are counted as slow
        and appended to ``slow_log_path``.
    slow_log_path:
        JSONL file receiving slow-request traces; ``None`` disables the
        file (slow requests are still counted and ring-buffered).
    """

    max_batch_size: int = 32
    max_wait_s: float = 0.005
    tokenization_cache_size: int = 8192
    tracing: bool = True
    trace_ring_size: int = 256
    slow_threshold_s: float = 1.0
    slow_log_path: str | None = None

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")
        if self.trace_ring_size < 1:
            raise ValueError("trace_ring_size must be >= 1")
        if self.slow_threshold_s < 0:
            raise ValueError("slow_threshold_s must be >= 0")


class InferenceEngine:
    """Batched scoring front-end for a fitted :class:`RiskModel`.

    Usage
    -----
    >>> engine = InferenceEngine(model, EngineConfig(max_batch_size=64))
    >>> probs = engine.predict_many(windows)          # sync bulk path
    >>> future = engine.submit(window)                # async micro-batched
    >>> future.result()                               # (C,) probabilities
    >>> engine.close()

    The engine is also a context manager; ``close()`` drains the queue
    and stops the batch thread.
    """

    def __init__(
        self,
        model: RiskModel,
        config: EngineConfig | None = None,
    ) -> None:
        if not getattr(model, "_fitted", False):
            raise ModelError("InferenceEngine requires a fitted model")
        self.model = model
        self.config = config or EngineConfig()
        self.tokenization_cache = LRUCache(self.config.tokenization_cache_size)
        self.tracer = Tracer(
            ring_size=self.config.trace_ring_size,
            slow_threshold_s=self.config.slow_threshold_s,
            slow_log_path=self.config.slow_log_path,
        )
        self._queue: queue.Queue = queue.Queue()
        self._closed = False
        self._batches = 0
        self._batched_items = 0
        self._in_flight = 0
        self._lock = threading.Lock()
        # The benchmark's traced run attributes model calls made on
        # threads named ``serve-worker*`` to the engine.
        self._batcher = threading.Thread(
            target=self._batch_loop, name="serve-worker", daemon=True
        )
        self._batcher.start()

    # -- synchronous bulk path ---------------------------------------------

    def predict_many(self, windows: list[PostWindow]) -> np.ndarray:
        """(N, C) probabilities for ``windows``, batched, queue-free."""
        self._ensure_open()
        if not windows:
            return self.model.predict_proba([])
        size = self.config.max_batch_size
        out = []
        with perf.span("serve.predict_many"):
            with no_grad():
                for start in range(0, len(windows), size):
                    chunk = windows[start : start + size]
                    encoded = self.model.encode(chunk, self.tokenization_cache)
                    out.append(self.model.predict_proba(chunk, encoded=encoded))
                    self._record_batch(len(chunk))
        perf.count("serve.requests", len(windows))
        return np.vstack(out)

    def predict_labels(self, windows: list[PostWindow]) -> np.ndarray:
        """Greedy labels via the batched probability path."""
        probs = self.predict_many(windows)
        return probs.argmax(axis=1).astype(np.int64)

    # -- asynchronous micro-batched path -----------------------------------

    def submit(self, window: PostWindow) -> Future:
        """Queue one window; resolves to its (C,) probability vector.

        When tracing is on, the request's trace is exposed as
        ``future.trace`` so callers can correlate results with their
        lifecycle timings.
        """
        self._ensure_open()
        future: Future = Future()
        trace: Trace | None = None
        if self.config.tracing:
            trace = self.tracer.start()
            trace.event("enqueue")
            future.trace = trace  # type: ignore[attr-defined]
        self._queue.put((window, future, trace))
        perf.count("serve.requests")
        perf.gauge("serve.queue_depth", self._queue.qsize())
        return future

    def predict_one(self, window: PostWindow, timeout: float | None = None):
        """Blocking single-window scoring through the micro-batcher."""
        return self.submit(window).result(timeout=timeout)

    def _batch_loop(self) -> None:
        cfg = self.config
        while True:
            try:
                item = self._queue.get(timeout=0.1)
            except queue.Empty:
                if self._closed:
                    return
                continue
            if item is _SHUTDOWN:
                return
            batch = [item]
            deadline = time.perf_counter() + cfg.max_wait_s
            while len(batch) < cfg.max_batch_size:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                try:
                    extra = self._queue.get(timeout=remaining)
                except queue.Empty:
                    break
                if extra is _SHUTDOWN:
                    self._run_batch(batch)
                    return
                batch.append(extra)
            self._run_batch(batch)

    def _stamp(self, batch: list, name: str) -> None:
        now = time.perf_counter()
        for _, _, trace in batch:
            if trace is not None:
                trace.event(name, now)

    def _run_batch(
        self, batch: list[tuple[PostWindow, Future, Trace | None]]
    ) -> None:
        self._stamp(batch, "batch_assembly")
        with self._lock:
            self._in_flight += 1
            in_flight = self._in_flight
        perf.gauge("serve.in_flight_batches", in_flight)
        perf.gauge("serve.queue_depth", self._queue.qsize())
        windows = [window for window, _, _ in batch]
        try:
            with perf.span("serve.batch"):
                with no_grad():
                    self._stamp(batch, "tokenize")
                    encoded = self.model.encode(
                        windows, self.tokenization_cache
                    )
                    self._stamp(batch, "forward")
                    probs = self.model.predict_proba(windows, encoded=encoded)
            self._stamp(batch, "scatter")
            self._record_batch(len(batch))
            for (_, future, _), row in zip(batch, probs):
                future.set_result(row)
            self._finish_traces(batch, len(batch))
        except Exception as exc:  # propagate to every waiter
            for _, future, _ in batch:
                if not future.done():
                    future.set_exception(exc)
            self._stamp(batch, "error")
            self._finish_traces(batch, len(batch))
        finally:
            with self._lock:
                self._in_flight -= 1
                in_flight = self._in_flight
            perf.gauge("serve.in_flight_batches", in_flight)

    def _finish_traces(self, batch: list, batch_size: int) -> None:
        for _, _, trace in batch:
            if trace is None:
                continue
            trace.event("complete")
            trace.metadata["batch_size"] = batch_size
            self.tracer.finish(trace)
            perf.observe("serve.request.latency_seconds", trace.total_s)
            perf.observe(
                "serve.request.queue_wait_seconds", trace.queue_wait_s
            )

    def _record_batch(self, size: int) -> None:
        with self._lock:
            self._batches += 1
            self._batched_items += size
        perf.count("serve.batches")
        perf.count("serve.batched_items", size)
        perf.gauge(
            "serve.tokenize_cache.size",
            self.tokenization_cache.stats()["size"],
        )

    # -- lifecycle / introspection -----------------------------------------

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("InferenceEngine is closed")

    def stats(self) -> dict:
        """Batching, cache, and tracing counters for monitoring."""
        with self._lock:
            batches = self._batches
            items = self._batched_items
            in_flight = self._in_flight
        return {
            "batches": batches,
            "batched_items": items,
            "mean_batch_size": items / batches if batches else 0.0,
            "queue_depth": self._queue.qsize(),
            "in_flight_batches": in_flight,
            "tokenization_cache": self.tokenization_cache.stats(),
            "traces": self.tracer.stats(),
        }

    def recent_traces(self, limit: int | None = None) -> list[dict]:
        """Finished request traces from the ring buffer, newest first."""
        return self.tracer.recent(limit=limit)

    def close(self) -> None:
        if self._closed:
            return
        with self._lock:
            self._closed = True
        # The batch thread runs every request queued before the
        # sentinel, then stops.
        self._queue.put(_SHUTDOWN)
        self._batcher.join(timeout=5.0)
        # Fail any request that raced the shutdown sentinel.
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not _SHUTDOWN:
                _, future, _ = item
                if not future.done():
                    future.set_exception(RuntimeError("engine closed"))

    def __enter__(self) -> "InferenceEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
