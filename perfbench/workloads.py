"""The three benchmark workloads.

Each workload has the same life cycle, driven by ``run.py``:

* ``prepare()`` generates the inputs from the seed (once, untimed);
* ``setup()`` is what must happen before the first measured operation
  (timed several times; ``setup_s`` is the median);
* ``measure(seconds)`` runs the measured operations for at least
  ``seconds`` and returns the gated end-to-end metrics, which every
  workload reports: ``rate_per_s`` and ``latency_p50_ms`` (each workload
  says what they mean for it), ``peak_rss_mb`` and ``ok_ratio``. It also
  sets ``figures``, the workload's own named figures with units and
  sample counts, and ``unit_s``, the median time of one unit of its
  work, which the traced run compares with and without the wrappers;
* ``checks()`` returns named correctness checks; one failure fails the run;
* ``layer_metrics(instr)`` derives the workload's own per-layer figures
  from a traced ``measure``; it runs after the wrappers are taken off.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

import inputs
import loadgen
from stats import median, percentile, tail

from repro.boosting.gbm import GBMParams
from repro.core import pipeline
from repro.models.neural_common import TrainerConfig
from repro.models.plm import PLMConfig
from repro.models.registry import TABLE3_ORDER, create_model
from repro.serve import EngineConfig, InferenceEngine, PoolConfig, WorkerPool

#: Engine settings of both serving workloads. Engine tracing stays off:
#: it adds a tokenization pass, so a traced run would execute other code.
ENGINE = EngineConfig(max_batch_size=32, max_wait_s=0.005, tracing=False)

#: Rows of a probability matrix must sum to one within this.
PROB_SUM_TOL = 1e-9


def short_trainer(seed: int) -> TrainerConfig:
    """One fine-tuning epoch; patience above the epoch count, so early
    stopping never shortens the schedule."""
    return TrainerConfig(epochs=1, batch_size=16, patience=2, seed=seed)


def model_kwargs(name: str, seed: int, pretrain_texts, mlm_steps: int) -> dict:
    """Fixed short schedule for each Table III baseline."""
    if name == "xgboost":
        return {
            "params": GBMParams(
                n_estimators=20, learning_rate=0.25, max_depth=4,
                subsample=0.9, colsample=0.8, early_stopping_rounds=None,
                seed=seed,
            ),
            "seed": seed,
        }
    kwargs = {"trainer": short_trainer(seed), "seed": seed}
    if name in ("roberta", "deberta"):
        kwargs.update(
            config=PLMConfig.base(),
            pretrain_texts=pretrain_texts,
            pretrain_steps=mlm_steps,
        )
    return kwargs


def probability_rows_ok(probs: np.ndarray, rows: int) -> bool:
    return (
        probs.shape == (rows, 4)
        and bool(np.all(np.isfinite(probs)))
        and bool(np.all(np.abs(probs.sum(axis=1) - 1.0) <= PROB_SUM_TOL))
    )


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self._checks: dict[str, bool] = {}
        #: name -> (value, unit, samples)
        self.figures: dict[str, tuple[float, str, int]] = {}
        self.properties: dict = {}

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> dict:
        raise NotImplementedError

    def checks(self) -> dict[str, bool]:
        return dict(self._checks)

    def check(self, name: str, ok: bool) -> None:
        """Record a named check; a check made twice must pass both times."""
        self._checks[name] = self._checks.get(name, True) and bool(ok)

    def layer_metrics(self, instr) -> dict:
        return {}

    def finish(self, rate_per_s: float, latency_p50_ms: float) -> dict:
        return {
            "rate_per_s": rate_per_s,
            "latency_p50_ms": latency_p50_ms,
            "peak_rss_mb": peak_rss_mb(),
            "ok_ratio": (self.attempted - self.failed) / max(self.attempted, 1),
        }


class Reproduce(Workload):
    """Build the dataset, fit the five Table III baselines, score test.

    ``rate_per_s`` is ``build_posts_per_s``, raw crawled posts through
    ``build_dataset`` per second; ``latency_p50_ms`` is ``fit_s``, the wall
    time of the five fits, in ms.
    """

    name = "reproduce"
    MLM_STEPS = 10
    PRETRAIN_TEXTS = 2000

    def setup(self) -> None:
        # Program start-up: a fresh interpreter importing the package.
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run(
            [sys.executable, "-c",
             "import repro.core.pipeline, repro.models, repro.serve"],
            check=True, env=env, timeout=120,
        )

    def measure(self, seconds: float) -> dict:
        build_rates, fit_times, op_times = [], [], []
        start = time.perf_counter()
        # One pass takes ~30 s: start another only if it ends in time.
        while not op_times or time.perf_counter() - start + op_times[-1] <= seconds:
            t0 = time.perf_counter()
            rate, fit_s = self._once()
            op_times.append(time.perf_counter() - t0)
            build_rates.append(rate)
            fit_times.append(fit_s)
        self.unit_s = median(op_times)
        self.figures = {
            "build_posts_per_s": (median(build_rates), "1/s", len(build_rates)),
            "fit_s": (median(fit_times), "s", len(fit_times)),
        }
        return self.finish(median(build_rates), median(fit_times) * 1e3)

    def _once(self) -> tuple[float, float]:
        config = inputs.corpus_config(self.seed, inputs.REPRODUCE_SCALE)
        t0 = time.perf_counter()
        build = pipeline.build_dataset(config)
        build_s = time.perf_counter() - t0
        self.attempted += 1
        self.build_report = build.report
        self.check("dataset_built", build.report.final_posts > 0
                   and build.report.raw_posts == len(build.corpus.raw_posts))
        dataset = build.dataset
        splits = dataset.splits()
        pretrain = dataset.pretrain_texts[: self.PRETRAIN_TEXTS]
        fit_s = 0.0
        self.models = {}
        for name in TABLE3_ORDER:
            model = create_model(
                name, **model_kwargs(name, self.seed, pretrain, self.MLM_STEPS)
            )
            t0 = time.perf_counter()
            model.fit(splits.train, splits.validation)
            fit_s += time.perf_counter() - t0
            probs = model.predict_proba(splits.test)
            self.attempted += 2
            self.check(f"{name}_test_probabilities",
                       probability_rows_ok(probs, len(splits.test)))
            self.models[name] = model
        self.test_windows = splits.test
        return build.report.raw_posts / build_s, fit_s

    def layer_metrics(self, instr) -> dict:
        report = self.build_report.preprocess
        return {
            "preprocess.kept_ratio": report.output_posts / max(report.input_posts, 1),
        }

    def describe(self) -> None:
        self.properties = {
            "scale": inputs.REPRODUCE_SCALE,
            "raw_posts": self.build_report.raw_posts,
            "final_posts": self.build_report.final_posts,
            "final_users": self.build_report.final_users,
            "schedule": (f"1 epoch, {self.MLM_STEPS} MLM steps, "
                         "20 boosting rounds"),
            **inputs.window_properties(
                self.test_windows, self.models["deberta"], ENGINE.max_batch_size
            ),
        }


class Serving(Workload):
    """Shared set-up of the serving workloads: a model fitted on a small
    dataset on a fixed short schedule. Forward cost depends on the
    architecture and token lengths, not on the weight values."""

    model_name = ""
    MLM_STEPS = 3
    PRETRAIN_TEXTS = 300

    def prepare(self) -> None:
        self.dataset = inputs.serving_dataset(self.seed)
        self.splits = self.dataset.splits()

    def setup(self) -> None:
        self.model = create_model(
            self.model_name,
            **model_kwargs(
                self.model_name, self.seed,
                self.dataset.pretrain_texts[: self.PRETRAIN_TEXTS],
                self.MLM_STEPS,
            ),
        )
        self.model.fit(self.splits.train, self.splits.validation)

    def warm_up(self, windows) -> None:
        """Fill lazy model state (BLAS, index caches) with a throwaway
        engine, so the measured engine starts with an empty token cache."""
        with InferenceEngine(self.model, ENGINE) as engine:
            engine.predict_many(windows)


class BulkDeberta(Serving):
    """Offline scoring of one window per user through ``predict_many``.

    ``rate_per_s`` is ``bulk_windows_per_s``; ``latency_p50_ms`` is the
    median time of one pass over the window set.
    """

    name = "bulk-deberta"
    model_name = "deberta"
    LABEL_SAMPLE = 16

    def prepare(self) -> None:
        super().prepare()
        self.windows = self.dataset.windows()

    def measure(self, seconds: float) -> dict:
        self.warm_up(self.windows[: ENGINE.max_batch_size])
        rates, times = [], []
        start = time.perf_counter()
        while not rates or time.perf_counter() - start < seconds:
            # A fresh engine per pass: every window is new to its cache.
            with InferenceEngine(self.model, ENGINE) as engine:
                t0 = time.perf_counter()
                probs = engine.predict_many(self.windows)
                elapsed = time.perf_counter() - t0
                cache = engine.tokenization_cache.stats()
            rates.append(len(self.windows) / elapsed)
            times.append(elapsed)
            self.attempted += len(self.windows)
            self.check("bulk_probabilities",
                       probability_rows_ok(probs, len(self.windows)))
        self.engine_probs = probs
        self.cache_stats = cache
        self.unit_s = median(times)
        self.figures = {
            "bulk_windows_per_s": (median(rates), "1/s", len(rates)),
            "bulk_pass_ms": (median(times) * 1e3, "ms", len(times)),
        }
        return self.finish(median(rates), median(times) * 1e3)

    def checks(self) -> dict[str, bool]:
        # serve_labels_identical (ported): engine labels equal the labels
        # of scoring each window alone, on a fixed sample.
        sample = self.windows[: self.LABEL_SAMPLE]
        alone = np.array([self.model.predict_proba([w])[0] for w in sample])
        engine = self.engine_probs[: len(sample)]
        self.check("serve_labels_identical",
                   np.array_equal(alone.argmax(axis=1), engine.argmax(axis=1)))
        return super().checks()

    def layer_metrics(self, instr) -> dict:
        return {
            "serve.tokenize_cache.hit_ratio": hit_ratio(self.cache_stats),
            **self.pool_metrics(),
        }

    def pool_metrics(self) -> dict:
        """Worker pool against one engine, untraced, on the same windows."""
        workers = min(2, os.cpu_count() or 1)
        config = PoolConfig(num_workers=workers, engine=ENGINE)
        engine_times, pool_times = [], []
        t0 = time.perf_counter()
        with WorkerPool(self.model, config) as pool:
            startup_s = time.perf_counter() - t0
            pool.predict_many(self.windows[: ENGINE.max_batch_size])
            for _ in range(3):
                with InferenceEngine(self.model, ENGINE) as engine:
                    t0 = time.perf_counter()
                    single = engine.predict_many(self.windows)
                    engine_times.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                pooled = pool.predict_many(self.windows, timeout=120.0)
                pool_times.append(time.perf_counter() - t0)
                # Ported from the pool benchmark: float64 pool output is
                # bitwise-identical to the single engine's.
                self.check("pool_probs_bitwise_identical",
                           np.array_equal(single, pooled))
            arena = pool.stats()["arena_nbytes"]
        self.attempted += 3 * len(self.windows)
        return {
            "serve.pool.windows_per_s": len(self.windows) / median(pool_times),
            "serve.pool.speedup_vs_engine": median(engine_times) / median(pool_times),
            "serve.pool.startup_s": startup_s,
            "serve.pool.arena_bytes": float(arena),
        }

    def describe(self) -> None:
        self.properties = inputs.window_properties(
            self.windows, self.model, ENGINE.max_batch_size
        )


class OnlineRoberta(Serving):
    """Open-loop Poisson arrivals of sliding windows through ``submit``.

    ``rate_per_s`` is ``online_capacity_rps``, requests per second with
    ``CLIENTS`` outstanding (closed loop), and ``latency_p50_ms`` is the
    median latency in that phase (``online_saturated_p50_ms``). Both are
    compute-bound, and both are medians over ``CAPACITY_ROUNDS`` rounds
    spread over the run, so one slow stretch of the host moves neither. The open-loop figures (``online_p50_ms`` and the tail
    at the nominal rate, ``online_max_rate_rps``) are reported but not
    gated: they depend on thread wake-ups and short stalls, and their
    run-to-run spread on the reference host exceeds any bound the
    benchmark may set.
    """

    name = "online-roberta"
    model_name = "roberta"
    #: Nominal rate, well below saturation (about a sixth of the max rate
    #: on the reference host), for the latency percentiles. At a low rate
    #: a slower host lengthens service time without also building a queue.
    NOMINAL_RPS = 30.0
    #: Requests at the nominal rate: 15 s, a p95 with 22 samples beyond it.
    NOMINAL_REQUESTS = 450
    #: Rate ladder of the max-rate search: rungs 8% apart, up to 3x the
    #: max rate measured on the reference host.
    LADDER_STEP = 0.08
    LADDER = loadgen.rate_ladder(40.0, 640.0, LADDER_STEP)
    #: Outstanding requests of the capacity phase: two full batches.
    CLIENTS = 2 * ENGINE.max_batch_size
    #: Closed-loop rounds of the capacity phase: before the nominal phase,
    #: after it and after the max-rate search.
    CAPACITY_ROUNDS = 3
    #: Requests per capacity round: about 3.5 s at the reference capacity.
    CAPACITY_REQUESTS = 600

    def prepare(self) -> None:
        super().prepare()
        self.stream = inputs.sliding_windows(self.dataset)
        #: id(window) -> request id; set by the traced run.
        self.request_ids: dict | None = None
        self.next_rid = 0

    def _phase(self, rate: float, count: int, salt: int, abort: bool):
        count = min(count, len(self.stream))
        due = loadgen.schedule(rate, count, [self.seed, salt])
        first_rid = self.next_rid
        on_sent = None
        if self.request_ids is not None:
            ids = self.request_ids

            def on_sent(i, window):
                ids[id(window)] = first_rid + i

        # A phase whose backlog already dooms its p99 stops sending.
        max_backlog = rate * loadgen.LATENCY_LIMIT_MS / 1e3 * 3 if abort else None
        with InferenceEngine(self.model, ENGINE) as engine:
            phase = loadgen.run_phase(
                engine.submit, self.stream, rate, due,
                on_sent=on_sent, max_backlog=max_backlog,
            )
            cache = engine.tokenization_cache.stats()
        phase.first_rid = first_rid
        self.next_rid += count
        self.account(phase)
        ok_rows = [r for r, bad in zip(phase.results, phase.failed) if not bad]
        self.check("online_probabilities",
                   probability_rows_ok(np.array(ok_rows), len(ok_rows)))
        return phase, cache

    def account(self, phase) -> None:
        self.attempted += phase.attempted
        self.failed += int(np.count_nonzero(phase.failed))
        self.check("every_request_resolves_once", np.all(phase.resolutions == 1))

    def _capacity_round(self):
        with InferenceEngine(self.model, ENGINE) as engine:
            closed = loadgen.run_closed(
                engine.submit, self.stream[: self.CAPACITY_REQUESTS], self.CLIENTS
            )
        self.account(closed)
        return closed

    def measure(self, seconds: float) -> dict:
        start = time.perf_counter()
        self.warm_up(self.stream[-ENGINE.max_batch_size:])
        rounds = [self._capacity_round()]
        self.nominal, self.cache_stats = self._phase(
            self.NOMINAL_RPS, self.NOMINAL_REQUESTS, 0, abort=False
        )
        rounds.append(self._capacity_round())
        remaining = max(seconds - (time.perf_counter() - start), seconds / 2)
        probe_s = remaining / 7  # a bisection over the ladder: 6 rungs, some retried
        salts = iter(range(1, 1000))

        def probe(rate: float) -> bool:
            phase, _ = self._phase(rate, int(rate * probe_s), next(salts), abort=True)
            return loadgen.meets_limit(phase)

        best, self.probes = loadgen.max_rate(self.LADDER, probe)
        while len(rounds) < self.CAPACITY_ROUNDS:
            rounds.append(self._capacity_round())
        capacity = median([loadgen.completion_rate(r) for r in rounds])
        saturated_p50 = median([median(r.latencies_ms) for r in rounds])
        closed_requests = sum(r.attempted for r in rounds)
        latencies = self.nominal.latencies_ms
        self.unit_s = median(latencies) / 1e3
        high = tail(latencies)
        self.figures = {
            "online_p50_ms": (median(latencies), "ms", len(latencies)),
            f"online_p{high['p']:g}_ms": (high["value"], "ms", len(latencies)),
            "online_max_rate_rps": (best, "1/s", len(self.probes)),
            "online_capacity_rps": (capacity, "1/s", closed_requests),
            "online_saturated_p50_ms": (saturated_p50, "ms", closed_requests),
        }
        return self.finish(capacity, saturated_p50)

    def layer_metrics(self, instr) -> dict:
        sent = {self.nominal.first_rid + i: t for i, t in enumerate(self.nominal.sent)}
        # Later phases reuse the same window objects; keep the nominal
        # phase's batches only.
        nominal_end = np.nanmax(self.nominal.done)
        waits, services = [], []
        for start, end, rids, _ in instr.batches:
            mine = [r for r in rids if r in sent]
            if mine and end <= nominal_end:
                waits.extend((start - sent[r]) * 1e3 for r in mine)
                services.append((end - start) * 1e3)
        return {
            "serve.queue_wait_p50_ms": median(waits),
            "serve.queue_wait_p95_ms": percentile(waits, 95.0),
            "serve.batch_service_p50_ms": median(services),
            "serve.backlog_max": float(self.nominal.backlog_max),
            "serve.tokenize_cache.hit_ratio": hit_ratio(self.cache_stats),
            "loadgen.lag_p95_ms": percentile(self.nominal.lag_ms.tolist(), 95.0),
        }

    def describe(self) -> None:
        self.properties = {
            **inputs.window_properties(
                self.stream, self.model, ENGINE.max_batch_size
            ),
            "nominal_rps": self.NOMINAL_RPS,
            "ladder_rps": (f"{self.LADDER[0]:.0f}..{self.LADDER[-1]:.0f}"
                           f" x{1 + self.LADDER_STEP:g}"),
            "probes": [f"{rate:.1f}:{'ok' if ok else 'miss'}" for rate, ok in self.probes],
            "loadgen_lag_p50_ms": median(self.nominal.lag_ms.tolist()),
            "loadgen_lag_p95_ms": percentile(self.nominal.lag_ms.tolist(), 95.0),
        }


def hit_ratio(cache_stats: dict) -> float:
    lookups = cache_stats["hits"] + cache_stats["misses"]
    return cache_stats["hits"] / lookups if lookups else 0.0


WORKLOADS = {cls.name: cls for cls in (Reproduce, BulkDeberta, OnlineRoberta)}
