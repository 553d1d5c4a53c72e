"""Serving throughput + latency benchmark: engine vs per-window scoring.

Backs ``python -m repro serve-bench``. The "before" path
scores one window per ``predict_proba`` call (the naive deployment);
the "after" path routes the same windows through
:class:`InferenceEngine.predict_many`. Outputs are checked to match:
labels must be bitwise identical, probabilities agree to float
summation-order noise.

A third phase drives the *async* micro-batched path — one
``submit()`` per request — and reports per-request end-to-end latency
and queue wait quantiles (p50/p90/p99/max) straight from the engine's
request traces, the numbers a deployment's SLO lives on. Quantiles come
from :class:`repro.perf.Histogram`, the estimator behind every span.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from repro.perf.histogram import Histogram
from repro.serve.engine import EngineConfig, InferenceEngine
from repro.serve.pool import PoolConfig, WorkerPool
from repro.temporal.windows import PostWindow

__all__ = [
    "PoolBenchResult",
    "ServeBenchResult",
    "run_pool_bench",
    "run_serve_bench",
]


_QUANTILES = ("p50", "p90", "p99", "max")


def _quantiles_ms(hist: dict) -> dict:
    """p50/p90/p99/max (ms) of a ``Histogram.as_dict()``, plus its count.

    An empty histogram reports ``count: 0`` with ``None`` quantiles:
    all-zero quantiles would be indistinguishable from a genuinely
    perfect p99. Consumers must check ``count`` before formatting the
    quantile fields.
    """
    count = hist.get("count", 0)
    return {
        "count": count,
        **{
            f"{q}_ms": hist[f"{q}_s"] * 1e3 if count else None
            for q in _QUANTILES
        },
    }


def _sample_quantiles_ms(samples_ms: list[float]) -> dict:
    hist = Histogram()
    for value in samples_ms:
        hist.observe(value / 1e3)
    return _quantiles_ms(hist.as_dict())


@dataclass
class ServeBenchResult:
    """Timings and integrity checks of one serve benchmark run."""

    requests: int
    before_s: float
    after_s: float
    before_throughput: float
    after_throughput: float
    labels_identical: bool
    max_prob_diff: float
    engine_stats: dict
    async_s: float = 0.0
    async_throughput: float = 0.0
    latency: dict = field(default_factory=dict)
    queue_wait: dict = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        return self.before_s / self.after_s if self.after_s else float("inf")

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "before_s": self.before_s,
            "after_s": self.after_s,
            "before_throughput_rps": self.before_throughput,
            "after_throughput_rps": self.after_throughput,
            "speedup": self.speedup,
            "labels_identical": self.labels_identical,
            "max_prob_diff": self.max_prob_diff,
            "async_s": self.async_s,
            "async_throughput_rps": self.async_throughput,
            "latency": self.latency,
            "queue_wait": self.queue_wait,
            "engine_stats": self.engine_stats,
        }


def run_serve_bench(
    model,
    windows: list[PostWindow],
    requests: int = 256,
    config: EngineConfig | None = None,
) -> ServeBenchResult:
    """Score ``requests`` windows per-window and via the engine.

    ``windows`` is cycled to reach the request count, mimicking repeat
    traffic (which also exercises the tokenization cache). The async
    phase submits every request individually through the micro-batcher
    and, when tracing is enabled, derives the latency/queue-wait
    quantiles from the request traces.
    """
    if not windows:
        raise ValueError("serve bench needs at least one window")
    traffic = [windows[i % len(windows)] for i in range(requests)]

    start = time.perf_counter()
    before = np.vstack([model.predict_proba([w]) for w in traffic])
    before_s = time.perf_counter() - start

    config = config or EngineConfig()
    # Size the ring to hold the whole run so quantiles see every request
    # (tracing itself is honoured as configured, so overhead runs can
    # turn it off and still use this harness).
    trace_config = dataclasses.replace(
        config, trace_ring_size=max(config.trace_ring_size, requests)
    )

    with InferenceEngine(model, trace_config) as engine:
        # Warm call outside the timed region: first-touch costs belong
        # to startup, not steady state.
        engine.predict_many(traffic[:1])
        start = time.perf_counter()
        after = engine.predict_many(traffic)
        after_s = time.perf_counter() - start

        start = time.perf_counter()
        futures = [engine.submit(w) for w in traffic]
        for future in futures:
            future.result(timeout=60.0)
        async_s = time.perf_counter() - start

        traces = engine.recent_traces(limit=requests)
        stats = engine.stats()

    latency = _sample_quantiles_ms([t["total_ms"] for t in traces])
    queue_wait = _sample_quantiles_ms([t["queue_wait_ms"] for t in traces])

    return ServeBenchResult(
        requests=requests,
        before_s=before_s,
        after_s=after_s,
        before_throughput=requests / before_s if before_s else float("inf"),
        after_throughput=requests / after_s if after_s else float("inf"),
        labels_identical=bool(
            np.array_equal(before.argmax(axis=1), after.argmax(axis=1))
        ),
        max_prob_diff=float(np.abs(before - after).max()),
        engine_stats=stats,
        async_s=async_s,
        async_throughput=requests / async_s if async_s else float("inf"),
        latency=latency,
        queue_wait=queue_wait,
    )


@dataclass
class PoolBenchResult:
    """Single-engine vs worker-pool timings and integrity checks."""

    requests: int
    workers: int
    single_s: float
    pool_s: float
    single_throughput: float
    pool_throughput: float
    labels_identical: bool
    probs_bitwise_identical: bool
    max_prob_diff: float
    model_nbytes: int
    pool_stats: dict
    latency: dict = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        return self.single_s / self.pool_s if self.pool_s else float("inf")

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "workers": self.workers,
            "single_s": self.single_s,
            "pool_s": self.pool_s,
            "single_throughput_rps": self.single_throughput,
            "pool_throughput_rps": self.pool_throughput,
            "speedup": self.speedup,
            "labels_identical": self.labels_identical,
            "probs_bitwise_identical": self.probs_bitwise_identical,
            "max_prob_diff": self.max_prob_diff,
            "model_nbytes": self.model_nbytes,
            "latency": self.latency,
            "pool_stats": self.pool_stats,
        }


def run_pool_bench(
    model,
    windows: list[PostWindow],
    requests: int = 256,
    config: PoolConfig | None = None,
) -> PoolBenchResult:
    """Score the same traffic through one engine and through the pool.

    The single-engine phase is the baseline the acceptance contract
    refers to (its ``predict_many`` over the identical cycled traffic);
    the pool phase shards that traffic across ``config.num_workers``
    processes. Worker startup and model reconstruction happen outside
    the timed region — steady-state throughput is what a deployment
    sees. Integrity is checked both ways: labels must match, and the
    float64 probabilities themselves must be bitwise-identical.
    """
    if not windows:
        raise ValueError("pool bench needs at least one window")
    config = config or PoolConfig()
    traffic = [windows[i % len(windows)] for i in range(requests)]

    with InferenceEngine(model, config.engine) as engine:
        engine.predict_many(traffic[:1])  # warm outside the timed region
        start = time.perf_counter()
        single = engine.predict_many(traffic)
        single_s = time.perf_counter() - start

    with WorkerPool(model, config) as pool:
        pool.predict_many(traffic[:1])  # worker warm-up / first-touch
        start = time.perf_counter()
        pooled = pool.predict_many(traffic, timeout=300.0)
        pool_s = time.perf_counter() - start
        stats = pool.stats()
    # Per-chunk end-to-end latency is observed parent-side as each
    # Future resolves; worker snapshots contribute their serve.* spans.
    merged = pool.merged_telemetry(include_parent=True)
    lat_hist = merged.get("observations", {}).get(
        "serve.pool.request.latency_seconds", {}
    ).get("hist")
    latency = _quantiles_ms(lat_hist or {})

    return PoolBenchResult(
        requests=requests,
        workers=config.num_workers,
        single_s=single_s,
        pool_s=pool_s,
        single_throughput=requests / single_s if single_s else float("inf"),
        pool_throughput=requests / pool_s if pool_s else float("inf"),
        labels_identical=bool(
            np.array_equal(single.argmax(axis=1), pooled.argmax(axis=1))
        ),
        probs_bitwise_identical=bool(np.array_equal(single, pooled)),
        max_prob_diff=float(np.abs(single - pooled).max()),
        model_nbytes=pool.model_nbytes,
        pool_stats=stats,
        latency=latency,
    )
