"""Command-line interface: ``python -m repro <command>``.

Commands
--------
build       Build a dataset and write it to JSONL.
stats       Print Table-I-style statistics of a JSONL dataset.
evaluate    Train a baseline on a freshly built dataset and report metrics.
bench       Run one paper experiment (table1..table4, fig1, fig23, fig4,
            kappa, ablations).
serve-bench Train a baseline, then benchmark the micro-batched
            InferenceEngine against per-window scoring (throughput plus
            p50/p90/p99 end-to-end latency and queue wait); with
            --workers N, also a multi-process WorkerPool phase.
metrics     Exercise the serving stack, then export telemetry as
            Prometheus exposition text or a JSON snapshot (or render a
            previously saved snapshot with --input).
trace       Exercise the serving stack, then print recent per-request
            traces from the engine's ring buffer.
lint        Run the repo's AST static-analysis rules (REPRO-LOCK,
            REPRO-RNG, REPRO-TWIN, REPRO-CLOCK, REPRO-METRIC,
            REPRO-EXCEPT) over src/ or the given paths.
"""

from __future__ import annotations

import argparse
import sys

from repro import perf
from repro.core.config import CorpusConfig
from repro.core.dataset import RSD15K
from repro.core.pipeline import build_dataset


def _add_scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale", type=float, default=0.1,
        help="corpus fraction (1.0 = paper-sized 14,613 posts)",
    )
    parser.add_argument("--seed", type=int, default=None)


def _config(args) -> CorpusConfig:
    config = CorpusConfig() if args.seed is None else CorpusConfig(seed=args.seed)
    if args.scale != 1.0:
        config = config.scaled(args.scale)
    return config


def cmd_build(args) -> int:
    result = build_dataset(_config(args))
    result.dataset.to_jsonl(args.output)
    print(f"wrote {result.dataset.num_posts} posts "
          f"({result.dataset.num_users} users) to {args.output}")
    print(f"campaign kappa: {result.dataset.kappa:.4f}")
    return 0


def cmd_datacard(args) -> int:
    from repro.core.datacard import render_datacard

    dataset = RSD15K.from_jsonl(args.dataset)
    card = render_datacard(dataset)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(card, encoding="utf-8")
        print(f"wrote datasheet to {args.output}")
    else:
        print(card)
    return 0


def cmd_stats(args) -> int:
    dataset = RSD15K.from_jsonl(args.dataset)
    print(f"posts: {dataset.num_posts}   users: {dataset.num_users}")
    for label, count, pct in dataset.label_distribution().as_rows():
        print(f"  {label:<10} {count:>7}  {pct:5.2f}%")
    counts = sorted(dataset.posts_per_user().values())
    under_20 = sum(1 for c in counts if c < 20) / len(counts)
    print(f"posts/user: median {counts[len(counts) // 2]}, "
          f"max {counts[-1]}, <20: {100 * under_20:.1f}%")
    return 0


def cmd_evaluate(args) -> int:
    from repro.eval.reporting import to_markdown
    from repro.eval.runner import evaluate_model

    result = build_dataset(_config(args))
    splits = result.dataset.splits()
    kwargs = {}
    if args.model in ("roberta", "deberta"):
        kwargs["pretrain_texts"] = result.dataset.pretrain_texts[:6000]
    report = evaluate_model(
        args.model, splits.train, splits.validation, splits.test, **kwargs
    )
    print(to_markdown([report]))
    return 0


def cmd_bench(args) -> int:
    from repro.experiments import (
        ablations,
        fig1_posts_per_user,
        fig23_wordclouds,
        fig4_top_users,
        kappa_consistency,
        table1_distribution,
        table2_comparison,
        table3_baselines,
        table4_scale,
    )

    mains = {
        "table1": table1_distribution.main,
        "table2": table2_comparison.main,
        "table3": table3_baselines.main,
        "table4": table4_scale.main,
        "fig1": fig1_posts_per_user.main,
        "fig23": fig23_wordclouds.main,
        "fig4": fig4_top_users.main,
        "kappa": kappa_consistency.main,
        "ablations": ablations.main,
    }
    if args.profile:
        perf.reset()
    mains[args.experiment]()
    if args.profile:
        print()
        print("perf profile")
        print(perf.render())
        out = perf.write_json(
            args.profile_output, extra={"experiment": args.experiment}
        )
        print(f"wrote perf report to {out}")
    return 0


def cmd_serve_bench(args) -> int:
    from repro.serve import EngineConfig, run_serve_bench

    result = build_dataset(_config(args))
    splits = result.dataset.splits()
    kwargs = {}
    if args.model in ("roberta", "deberta"):
        kwargs["pretrain_texts"] = result.dataset.pretrain_texts[:6000]
        kwargs["pretrain_steps"] = args.pretrain_steps
    from repro.models import create_model

    model = create_model(args.model, **kwargs)
    model.fit(splits.train, splits.validation)

    engine_config = EngineConfig(
        max_batch_size=args.batch_size, max_wait_s=args.max_wait_s
    )
    bench = run_serve_bench(
        model, splits.test, requests=args.requests, config=engine_config
    )
    print(f"serve-bench: model={args.model} requests={bench.requests} "
          f"batch_size={args.batch_size}")
    print(f"  per-window   {bench.before_throughput:10.1f} req/s "
          f"({bench.before_s:.3f}s)")
    print(f"  engine       {bench.after_throughput:10.1f} req/s "
          f"({bench.after_s:.3f}s)")
    print(f"  speedup      {bench.speedup:10.1f}x")
    print(f"  async        {bench.async_throughput:10.1f} req/s "
          f"({bench.async_s:.3f}s)")
    print(f"  labels identical: {bench.labels_identical}   "
          f"max prob diff: {bench.max_prob_diff:.2e}")
    # A zero-sample run has count 0 and None quantiles; formatting them
    # as 0.00ms would read as a perfect p99.
    if bench.latency.get("count"):
        lat, qw = bench.latency, bench.queue_wait
        print(f"  latency      p50 {lat['p50_ms']:7.2f}ms  "
              f"p90 {lat['p90_ms']:7.2f}ms  p99 {lat['p99_ms']:7.2f}ms  "
              f"max {lat['max_ms']:7.2f}ms  (n={lat['count']})")
        print(f"  queue wait   p50 {qw['p50_ms']:7.2f}ms  "
              f"p90 {qw['p90_ms']:7.2f}ms  p99 {qw['p99_ms']:7.2f}ms  "
              f"max {qw['max_ms']:7.2f}ms")
    else:
        print("  latency      (no samples — tracing disabled?)")
    stats = bench.engine_stats
    print(f"  batches: {stats['batches']}  "
          f"mean batch: {stats['mean_batch_size']:.1f}  "
          f"token cache hits: {stats['tokenization_cache']['hits']}  "
          f"slow requests: {stats['traces']['slow']}")

    pool_bench = None
    if args.workers:
        from repro.serve import PoolConfig, run_pool_bench

        pool_bench = run_pool_bench(
            model,
            splits.test,
            requests=args.requests,
            config=PoolConfig(num_workers=args.workers, engine=engine_config),
        )
        print(f"  pool ({pool_bench.workers} proc) "
              f"{pool_bench.pool_throughput:8.1f} req/s "
              f"({pool_bench.pool_s:.3f}s)  "
              f"speedup vs engine {pool_bench.speedup:.2f}x")
        print(f"  pool labels identical: {pool_bench.labels_identical}   "
              f"probs bitwise: {pool_bench.probs_bitwise_identical}   "
              f"model: {pool_bench.model_nbytes / 1024:.0f} KiB")

    if args.output:
        extra = {"serve_bench": bench.as_dict()}
        if pool_bench is not None:
            extra["pool_bench"] = pool_bench.as_dict()
        out = perf.write_json(args.output, extra=extra)
        print(f"wrote serve bench report to {out}")
    ok = bench.labels_identical and (
        pool_bench is None or pool_bench.labels_identical
    )
    return 0 if ok else 1


def _serve_exercise(args):
    """Train a model and push traffic through a traced engine.

    Shared by ``metrics`` and ``trace``: both need a populated registry
    (serve counters, gauges, span + latency histograms) and a tracer
    ring, which only exist after real requests have flowed. Returns the
    closed engine (its tracer and stats stay readable).
    """
    from repro.models import create_model
    from repro.serve import EngineConfig, InferenceEngine

    result = build_dataset(_config(args))
    splits = result.dataset.splits()
    model = create_model(args.model)
    model.fit(splits.train, splits.validation)
    traffic = [splits.test[i % len(splits.test)]
               for i in range(args.requests)]
    engine = InferenceEngine(model, EngineConfig(
        max_batch_size=args.batch_size,
        trace_ring_size=max(256, args.requests),
        slow_threshold_s=args.slow_ms / 1e3,
        slow_log_path=args.slow_log,
    ))
    with engine:
        futures = [engine.submit(w) for w in traffic]
        for future in futures:
            future.result(timeout=60.0)
    return engine


def _add_serve_exercise_args(parser) -> None:
    _add_scale(parser)
    parser.set_defaults(scale=0.05)
    parser.add_argument(
        "--model", default="logreg",
        choices=["xgboost", "bilstm", "higru", "roberta", "deberta", "logreg"],
    )
    parser.add_argument("--requests", type=int, default=96,
                        help="traced requests pushed through the engine")
    parser.add_argument("--batch-size", type=int, default=16,
                        help="engine max_batch_size")
    parser.add_argument("--slow-ms", type=float, default=1000.0,
                        help="slow-request threshold in milliseconds")
    parser.add_argument("--slow-log", default=None,
                        help="JSONL file receiving slow-request traces")


def cmd_metrics(args) -> int:
    import json as _json

    from repro.perf import json_snapshot, render_prometheus, validate_prometheus

    if args.input:
        from pathlib import Path

        snap = _json.loads(Path(args.input).read_text(encoding="utf-8"))
        perf_snapshot = snap.get("perf", snap)
    else:
        engine = _serve_exercise(args)
        snap = json_snapshot(
            perf.get_registry(), tracer=engine.tracer,
            extra={"engine_stats": engine.stats()},
        )
        perf_snapshot = snap["perf"]

    if args.format == "prometheus":
        text = render_prometheus(perf_snapshot)
        validate_prometheus(text)
    else:
        text = _json.dumps(snap, indent=2) + "\n"
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.format} metrics to {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_lint(args) -> int:
    from repro.analysis.cli import run_from_args

    return run_from_args(args)


def cmd_trace(args) -> int:
    import json as _json

    engine = _serve_exercise(args)
    traces = engine.recent_traces(limit=args.limit)
    if args.format == "json":
        print(_json.dumps(traces, indent=2))
        return 0
    stats = engine.stats()["traces"]
    print(f"traces: {stats['finished']} finished, {stats['slow']} slow, "
          f"showing {len(traces)} most recent")
    for trace in traces:
        events = " ".join(
            f"{e['name']}@{e['t_ms']:.2f}" for e in trace["events"]
        )
        print(f"  {trace['trace_id']}  total {trace['total_ms']:8.2f}ms  "
              f"queue {trace['queue_wait_ms']:7.2f}ms  "
              f"batch={trace['metadata'].get('batch_size', '?')}")
        print(f"    {events}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="RSD-15K reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a dataset, write JSONL")
    _add_scale(p_build)
    p_build.add_argument("--output", default="rsd15k.jsonl")
    p_build.set_defaults(func=cmd_build)

    p_stats = sub.add_parser("stats", help="statistics of a JSONL dataset")
    p_stats.add_argument("dataset")
    p_stats.set_defaults(func=cmd_stats)

    p_card = sub.add_parser(
        "datacard", help="render a datasheet for a JSONL dataset"
    )
    p_card.add_argument("dataset")
    p_card.add_argument("--output", default=None)
    p_card.set_defaults(func=cmd_datacard)

    p_eval = sub.add_parser("evaluate", help="train + evaluate a baseline")
    _add_scale(p_eval)
    p_eval.add_argument(
        "--model", default="xgboost",
        choices=["xgboost", "bilstm", "higru", "roberta", "deberta", "logreg"],
    )
    p_eval.set_defaults(func=cmd_evaluate)

    p_bench = sub.add_parser("bench", help="run one paper experiment")
    p_bench.add_argument(
        "experiment",
        choices=["table1", "table2", "table3", "table4", "fig1", "fig23",
                 "fig4", "kappa", "ablations"],
    )
    p_bench.add_argument(
        "--profile", action="store_true",
        help="print the perf span report and write it to --profile-output",
    )
    p_bench.add_argument(
        "--profile-output", default="perf_profile.json",
        help="JSON file the perf report is merged into (default perf_profile.json)",
    )
    p_bench.set_defaults(func=cmd_bench)

    p_serve = sub.add_parser(
        "serve-bench",
        help="benchmark micro-batched serving against per-window scoring",
    )
    _add_scale(p_serve)
    p_serve.add_argument(
        "--model", default="logreg",
        choices=["xgboost", "bilstm", "higru", "roberta", "deberta", "logreg"],
    )
    p_serve.add_argument("--requests", type=int, default=256,
                         help="total scoring requests (test windows, cycled)")
    p_serve.add_argument("--batch-size", type=int, default=32,
                         help="engine max_batch_size")
    p_serve.add_argument("--max-wait-s", type=float, default=0.005,
                         help="micro-batcher wait for stragglers")
    p_serve.add_argument("--workers", type=int, default=0,
                         help="also benchmark a WorkerPool with this many "
                              "engine processes (0 = skip the pool phase)")
    p_serve.add_argument("--pretrain-steps", type=int, default=100,
                         help="MLM steps for the PLM models")
    p_serve.add_argument("--output", default=None,
                         help="merge results + perf report into this JSON")
    p_serve.set_defaults(func=cmd_serve_bench)

    p_metrics = sub.add_parser(
        "metrics",
        help="exercise the serving stack and export telemetry "
             "(Prometheus text or JSON snapshot)",
    )
    _add_serve_exercise_args(p_metrics)
    p_metrics.add_argument("--format", default="prometheus",
                           choices=["prometheus", "json"])
    p_metrics.add_argument("--output", default=None,
                           help="write to this file instead of stdout")
    p_metrics.add_argument(
        "--input", default=None,
        help="render a previously saved JSON snapshot instead of "
             "running the serve exercise",
    )
    p_metrics.set_defaults(func=cmd_metrics)

    p_trace = sub.add_parser(
        "trace",
        help="exercise the serving stack and print recent request traces",
    )
    _add_serve_exercise_args(p_trace)
    p_trace.add_argument("--limit", type=int, default=10,
                         help="how many recent traces to show")
    p_trace.add_argument("--format", default="table",
                         choices=["table", "json"])
    p_trace.set_defaults(func=cmd_trace)

    from repro.analysis.cli import add_lint_arguments

    p_lint = sub.add_parser(
        "lint",
        help="run the repro static-analysis rules "
             "(see docs/static_analysis.md)",
    )
    add_lint_arguments(p_lint)
    p_lint.set_defaults(func=cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    finally:
        # REPRO_PERF=1 appends the span report to any command's output —
        # on error paths too (a failed run is exactly when the profile
        # is needed); ``bench --profile`` prints it regardless.
        if perf.enabled() and not getattr(args, "profile", False):
            print()
            print("perf profile")
            print(perf.render())


if __name__ == "__main__":
    sys.exit(main())
