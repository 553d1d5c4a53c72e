"""High-throughput model serving: micro-batched inference over the
registry baselines. See :mod:`repro.serve.engine`."""

from repro.serve.bench import (
    PoolBenchResult,
    ServeBenchResult,
    run_pool_bench,
    run_serve_bench,
)
from repro.serve.engine import EngineConfig, InferenceEngine
from repro.serve.pool import (
    PoolConfig,
    PoolSaturatedError,
    WorkerCrashError,
    WorkerPool,
)

__all__ = [
    "EngineConfig",
    "InferenceEngine",
    "PoolBenchResult",
    "PoolConfig",
    "PoolSaturatedError",
    "ServeBenchResult",
    "WorkerCrashError",
    "WorkerPool",
    "run_pool_bench",
    "run_serve_bench",
]
