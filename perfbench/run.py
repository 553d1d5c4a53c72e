"""Benchmark of the reproduction and serving paths.

Usage (from the repository root)::

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 20 --trace 0

Workloads: ``reproduce``, ``bulk-deberta``, ``online-roberta`` (see
perfbench/README.md). With ``--trace 0`` the run prints the end-to-end
metrics; with ``--trace 1`` it measures once untraced and once with the
layer wrappers installed, and prints the per-layer metrics. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when
every correctness check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"

#: How many times set-up is repeated; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: BLAS threads per process. The benchmark is sized for a 2-CPU host:
#: the engine's threads, the load generator and up to ``nproc`` pool
#: workers share the CPUs, and multi-threaded BLAS on these small
#: matrices only adds contention (and run-to-run noise). Set before numpy
#: is first imported; inherited by every child process.
BLAS_THREADS = "1"

#: End-to-end metrics every workload reports (see workloads.py for what
#: ``rate_per_s`` and ``latency_p50_ms`` measure on each).
END_TO_END_UNITS = {
    "setup_s": "s",
    "rate_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

#: Module classes whose self time is reported.
NN_CLASSES = (
    "DisentangledSelfAttention", "MultiHeadAttention", "TemporalDecayAttention",
    "FeedForward", "LayerNorm", "Linear", "Embedding",
)
TENSOR_OPS = ("gelu", "softmax", "matmul", "__add__")
MODELS = ("xgboost", "bilstm", "higru", "roberta", "deberta")


def per_layer_units() -> dict[str, str]:
    units = {
        "corpus.generate_s": "s", "corpus.crawl_s": "s", "corpus.api_calls": "count",
        "preprocess.run_s": "s", "preprocess.dedup_pairs_checked": "count",
        "preprocess.kept_ratio": "ratio",
        "annotation.campaign_s": "s",
        "core.privacy.anonymise_s": "s", "core.privacy.audit_s": "s",
        "text.vocab_fit_s": "s", "boosting.fit_s": "s",
        **{f"models.{m}.fit_s": "s" for m in MODELS},
        "nn.mlm_steps": "count", "nn.mlm_pretrain_s": "s",
        "nn.finetune_steps": "count", "nn.finetune_s": "s",
        "nn.backward_s": "s", "nn.optim_step_s": "s",
        "serve.predict_many_s": "s", "serve.batches": "count",
        "serve.mean_batch_size": "count", "models.predict_proba_s": "s",
        "text.encode_s": "s", "text.encode_post_calls": "count",
        "serve.tokenize_cache.hit_ratio": "ratio",
        "temporal.encode_window_s": "s",
        "models.collate_s": "s", "models.pad_waste_ratio": "ratio",
        "nn.forward_s": "s",
        **{f"nn.{cls}.self_s": "s" for cls in NN_CLASSES},
    }
    for op in TENSOR_OPS:
        units[f"nn.Tensor.{op}.calls"] = "count"
        units[f"nn.Tensor.{op}.self_s"] = "s"
    units.update({
        "nn.Tensor.matmul.flops": "flop", "nn.Tensor.matmul.bytes": "B",
        "serve.queue_wait_p50_ms": "ms", "serve.queue_wait_p95_ms": "ms",
        "serve.batch_service_p50_ms": "ms", "serve.backlog_max": "count",
        "serve.pool.windows_per_s": "1/s", "serve.pool.speedup_vs_engine": "ratio",
        "serve.pool.startup_s": "s", "serve.pool.arena_bytes": "B",
        "loadgen.lag_p95_ms": "ms",
        "trace.overhead_ratio": "ratio", "trace.coverage": "ratio",
    })
    return units


def span_metrics(tracer, instr) -> dict[str, float]:
    """Per-layer figures read off the span totals and boundary counters."""
    t, c = tracer, tracer.counters
    served = [b for b in instr.batches if b[3]]
    slots, useful = c["models.token_slots"], c["models.useful_token_slots"]
    metrics = {
        "corpus.generate_s": t.total_s("corpus.generate"),
        "corpus.crawl_s": t.total_s("corpus.crawl"),
        "corpus.api_calls": t.calls("corpus.api_call"),
        "preprocess.run_s": t.total_s("preprocess.run"),
        "preprocess.dedup_pairs_checked": t.calls("preprocess.dedup_pair"),
        "annotation.campaign_s": t.total_s("annotation.campaign"),
        "core.privacy.anonymise_s": t.total_s("core.privacy.anonymise"),
        "core.privacy.audit_s": t.total_s("core.privacy.audit"),
        "text.vocab_fit_s": t.total_s("text.vocab_fit"),
        "boosting.fit_s": t.total_s("boosting.fit"),
        **{f"models.{m}.fit_s": t.total_s(f"models.{m}.fit") for m in MODELS},
        "nn.mlm_steps": c["nn.mlm_steps"],
        "nn.mlm_pretrain_s": t.total_s("nn.mlm_pretrain"),
        "nn.finetune_steps": c["nn.finetune_steps"],
        "nn.finetune_s": t.total_s("nn.finetune"),
        "nn.backward_s": t.total_s("nn.backward"),
        "nn.optim_step_s": t.total_s("nn.optim_step"),
        "serve.predict_many_s": t.total_s("serve.predict_many"),
        "serve.batches": len(served),
        "serve.mean_batch_size": (
            sum(len(b[2]) for b in served) / len(served) if served else 0.0
        ),
        "models.predict_proba_s": t.total_s("models.predict_proba"),
        "text.encode_s": t.total_s("text.encode"),
        "text.encode_post_calls": t.calls("text.encode_post"),
        "temporal.encode_window_s": t.total_s("temporal.encode_window"),
        "models.collate_s": t.total_s("models.collate"),
        "models.pad_waste_ratio": (slots - useful) / useful if useful else 0.0,
        "nn.forward_s": t.total_s("nn.forward"),
        **{f"nn.{cls}.self_s": t.self_s(f"nn.{cls}") for cls in NN_CLASSES},
        "nn.Tensor.matmul.flops": c["nn.Tensor.matmul.flops"],
        "nn.Tensor.matmul.bytes": c["nn.Tensor.matmul.bytes"],
    }
    for op in TENSOR_OPS:
        metrics[f"nn.Tensor.{op}.calls"] = t.calls(f"nn.Tensor.{op}")
        metrics[f"nn.Tensor.{op}.self_s"] = t.self_s(f"nn.Tensor.{op}")
    return metrics


# -- host report ----------------------------------------------------------------


def blas_threads() -> int | None:
    """OpenBLAS thread count, read from the loaded library (None if the
    library or its query function is not found)."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown (not a git checkout)"


def host_report(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "commit": commit(),
        "source_digest": source_digest(),
        "seed": seed,
    }


# -- the run ---------------------------------------------------------------------


def measure_traced(workload, seconds: float) -> dict:
    """Measure untraced, then traced; per-layer figures from the latter."""
    import stats
    from instrument import Instrumentation
    from spans import Tracer

    workload.measure(seconds)
    untraced_unit_s = workload.unit_s

    tracer = Tracer()
    instr = Instrumentation(tracer)
    if hasattr(workload, "request_ids"):
        workload.request_ids = instr.request_ids
    instr.install()
    try:
        t0 = time.perf_counter()
        workload.measure(seconds)
        t1 = time.perf_counter()
    finally:
        instr.uninstall()
    traced_s = t1 - t0
    roots = [(max(a, t0), min(b, t1)) for a, b in tracer.roots if b > t0 and a < t1]
    metrics = dict.fromkeys(per_layer_units(), 0.0)
    metrics.update(span_metrics(tracer, instr))
    metrics.update(workload.layer_metrics(instr))
    metrics["trace.overhead_ratio"] = workload.unit_s / untraced_unit_s
    metrics["trace.coverage"] = stats.union_length(roots) / traced_s
    print(f"trace: {len(tracer.records)} spans kept, {tracer.dropped} dropped; "
          f"unit of work {untraced_unit_s:.4g} s untraced, "
          f"{workload.unit_s:.4g} s traced")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}-seed{workload.seed}.jsonl")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def stop_children() -> None:
    """Stop every process the run started and wait for each to end.

    The worker pool joins its workers on close; this also covers an error
    path out of it, and multiprocessing's resource tracker, which the pool
    starts and which would otherwise outlive the run.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.kill()
        proc.join()
    # Closes the tracker's pipe and waits for the tracker to exit.
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    try:
        return run(argv)
    finally:
        stop_children()


def run(argv) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import stats
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("host: " + " ".join(f"{k}={v}" for k, v in host_report(args.seed).items()))

    workload.prepare()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)

    if args.trace:
        metrics = measure_traced(workload, args.seconds)
        units = per_layer_units()
    else:
        metrics = workload.measure(args.seconds)
        metrics["setup_s"] = stats.median(setups)
        units = END_TO_END_UNITS
    checks = workload.checks()
    workload.describe()

    print("input: " + " ".join(f"{k}={v}" for k, v in workload.properties.items()))
    figures = {"setup_s": (stats.median(setups), "s", len(setups)), **workload.figures}
    for name, (value, unit, count) in figures.items():
        print(f"{name:<36} {value:>14.6g} {unit:<5} (samples: {count})")
    for name in units:
        print(f"{name:<36} {metrics[name]:>14.6g} {units[name]}")
    for name, ok in checks.items():
        print(f"check {name:<40} {'PASS' if ok else 'FAIL'}")
    correct = all(checks.values())
    result = {
        "correct": correct,
        "attempted": int(workload.attempted),
        "failed": int(workload.failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "input": workload.properties,
                    "figures": figures, "checks": checks}, indent=1, default=str)
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
