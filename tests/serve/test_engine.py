"""InferenceEngine: batching, caching, lifecycle, output integrity."""

import numpy as np
import pytest

from repro import perf
from repro.core.errors import ModelError
from repro.models import create_model
from repro.serve import EngineConfig, InferenceEngine, run_serve_bench


@pytest.fixture(scope="module")
def fitted_logreg(small_splits):
    model = create_model("logreg")
    model.fit(small_splits.train, small_splits.validation)
    return model


@pytest.fixture()
def engine(fitted_logreg):
    with InferenceEngine(fitted_logreg, EngineConfig(max_batch_size=8)) as eng:
        yield eng


def test_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(max_batch_size=0)
    with pytest.raises(ValueError):
        EngineConfig(max_wait_s=-1.0)


def test_requires_fitted_model():
    with pytest.raises(ModelError):
        InferenceEngine(create_model("logreg"))


def test_predict_many_matches_predict_proba(engine, fitted_logreg, small_splits):
    windows = small_splits.test
    direct = fitted_logreg.predict_proba(windows)
    batched = engine.predict_many(windows)
    np.testing.assert_allclose(batched, direct, atol=1e-12)
    np.testing.assert_array_equal(
        batched.argmax(axis=1), direct.argmax(axis=1)
    )


def test_predict_many_empty(engine):
    assert engine.predict_many([]).shape[0] == 0


def test_predict_labels(engine, fitted_logreg, small_splits):
    labels = engine.predict_labels(small_splits.test)
    expected = fitted_logreg.predict_proba(small_splits.test).argmax(axis=1)
    np.testing.assert_array_equal(labels, expected)


def test_async_submit_matches_direct(engine, fitted_logreg, small_splits):
    windows = small_splits.test[:6]
    futures = [engine.submit(w) for w in windows]
    rows = np.vstack([f.result(timeout=10.0) for f in futures])
    direct = fitted_logreg.predict_proba(windows)
    np.testing.assert_allclose(rows, direct, atol=1e-12)


def test_predict_one(engine, fitted_logreg, small_splits):
    window = small_splits.test[0]
    row = engine.predict_one(window, timeout=10.0)
    np.testing.assert_allclose(
        row, fitted_logreg.predict_proba([window])[0], atol=1e-12
    )


def test_micro_batching_coalesces(fitted_logreg, small_splits):
    windows = small_splits.test[:8]
    config = EngineConfig(max_batch_size=16, max_wait_s=0.05)
    with InferenceEngine(fitted_logreg, config) as eng:
        futures = [eng.submit(w) for w in windows]
        for future in futures:
            future.result(timeout=10.0)
        stats = eng.stats()
    assert stats["batched_items"] == len(windows)
    assert stats["batches"] < len(windows)  # some coalescing happened
    assert stats["mean_batch_size"] > 1.0


def test_stats_shape(engine, small_splits):
    engine.predict_many(small_splits.test[:4])
    stats = engine.stats()
    assert stats["batches"] >= 1
    assert stats["batched_items"] >= 4
    assert set(stats["tokenization_cache"]) >= {"hits", "misses", "size"}


def test_closed_engine_rejects_work(fitted_logreg, small_splits):
    eng = InferenceEngine(fitted_logreg)
    eng.close()
    with pytest.raises(RuntimeError):
        eng.predict_many(small_splits.test[:1])
    with pytest.raises(RuntimeError):
        eng.submit(small_splits.test[0])
    eng.close()  # idempotent


def test_error_propagates_to_futures(fitted_logreg):
    with InferenceEngine(fitted_logreg) as eng:
        future = eng.submit("not a window")
        with pytest.raises(Exception):
            future.result(timeout=10.0)


class TestTracing:
    def test_async_request_is_traced_with_lifecycle_events(
        self, fitted_logreg, small_splits
    ):
        from repro.perf.tracing import LIFECYCLE_EVENTS

        with InferenceEngine(fitted_logreg) as eng:
            future = eng.submit(small_splits.test[0])
            future.result(timeout=10.0)
            traces = eng.recent_traces()
        assert len(traces) == 1
        trace = traces[0]
        names = [e["name"] for e in trace["events"]]
        assert names == list(LIFECYCLE_EVENTS)
        times = [e["t_ms"] for e in trace["events"]]
        assert times == sorted(times)
        assert trace["total_ms"] > 0
        assert trace["metadata"]["batch_size"] == 1

    def test_slow_request_hits_ring_and_jsonl(
        self, fitted_logreg, small_splits, tmp_path, monkeypatch
    ):
        """A deliberately slow request must surface in the trace ring
        buffer AND the slow-request JSONL with all six lifecycle events
        in order."""
        import json
        import time as _time

        from repro.perf.tracing import LIFECYCLE_EVENTS

        real_predict = fitted_logreg.predict_proba

        def slow_predict(windows, **kwargs):
            _time.sleep(0.05)
            return real_predict(windows, **kwargs)

        monkeypatch.setattr(fitted_logreg, "predict_proba", slow_predict)
        log = tmp_path / "slow_requests.jsonl"
        config = EngineConfig(
            slow_threshold_s=0.02, slow_log_path=str(log)
        )
        with InferenceEngine(fitted_logreg, config) as eng:
            future = eng.submit(small_splits.test[0])
            future.result(timeout=10.0)
            ring = eng.recent_traces()
            stats = eng.stats()

        assert stats["traces"]["slow"] == 1
        assert len(ring) == 1
        entries = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(entries) == 1
        entry = entries[0]
        assert entry["trace_id"] == ring[0]["trace_id"]
        names = [e["name"] for e in entry["events"]]
        assert names == list(LIFECYCLE_EVENTS)
        times = [e["t_ms"] for e in entry["events"]]
        assert times == sorted(times)
        assert entry["total_ms"] >= 20.0

    def test_tracing_disabled_records_nothing(
        self, fitted_logreg, small_splits
    ):
        config = EngineConfig(tracing=False)
        with InferenceEngine(fitted_logreg, config) as eng:
            future = eng.submit(small_splits.test[0])
            future.result(timeout=10.0)
            assert eng.recent_traces() == []
            assert eng.stats()["traces"]["finished"] == 0

    def test_latency_observations_feed_registry(
        self, fitted_logreg, small_splits
    ):
        perf.reset()
        with InferenceEngine(fitted_logreg) as eng:
            futures = [eng.submit(w) for w in small_splits.test[:4]]
            for f in futures:
                f.result(timeout=10.0)
        snap = perf.snapshot()
        lat = snap["observations"]["serve.request.latency_seconds"]
        assert lat["hist"]["count"] == 4
        assert "serve.request.queue_wait_seconds" in snap["observations"]
        assert "serve.queue_depth" in snap["gauges"]
        assert "serve.in_flight_batches" in snap["gauges"]
        perf.reset()

    def test_ring_buffer_is_bounded(self, fitted_logreg, small_splits):
        config = EngineConfig(trace_ring_size=4)
        with InferenceEngine(fitted_logreg, config) as eng:
            futures = [
                eng.submit(small_splits.test[i % len(small_splits.test)])
                for i in range(10)
            ]
            for f in futures:
                f.result(timeout=10.0)
            traces = eng.recent_traces()
            stats = eng.stats()
        assert len(traces) == 4
        assert stats["traces"]["finished"] == 10


@pytest.fixture(scope="module")
def tiny_roberta(small_splits, small_dataset):
    from repro.models.neural_common import TrainerConfig
    from repro.models.plm import PLMConfig
    from repro.models.roberta import RobertaRiskModel

    model = RobertaRiskModel(
        config=PLMConfig(dim=16, num_layers=1, num_heads=2, ffn_hidden=32,
                         max_len=64),
        trainer=TrainerConfig(epochs=1, batch_size=8, patience=2, seed=0),
        pretrain_texts=small_dataset.pretrain_texts[:200],
        pretrain_steps=1,
        seed=0,
    )
    return model.fit(small_splits.train, small_splits.validation)


class TestTokenizationCache:
    def test_engine_never_patches_the_model(self, tiny_roberta, small_splits):
        pipeline = tiny_roberta.pipeline
        with InferenceEngine(tiny_roberta) as eng:
            assert "encode_post" not in pipeline.__dict__
            eng.predict_many(small_splits.test)
            eng.predict_many(small_splits.test)  # second pass hits the cache
            eng.submit(small_splits.test[0]).result(timeout=30.0)
            assert "encode_post" not in pipeline.__dict__
            cache = eng.stats()["tokenization_cache"]
        assert cache["hits"] > 0
        assert "encode_post" not in pipeline.__dict__

    def test_two_engines_on_one_model_keep_their_caches(
        self, tiny_roberta, small_splits
    ):
        first = InferenceEngine(tiny_roberta)
        second = InferenceEngine(tiny_roberta)
        try:
            first.close()
            second.predict_many(small_splits.test)
            second.predict_many(small_splits.test)
            cache = second.tokenization_cache.stats()
        finally:
            second.close()
        assert cache["misses"] > 0
        assert cache["hits"] >= cache["misses"]

    @pytest.mark.filterwarnings("ignore::ResourceWarning")
    def test_pool_next_to_open_engine_matches_engine(
        self, tiny_roberta, small_splits
    ):
        from repro.serve import PoolConfig, WorkerPool

        config = PoolConfig(num_workers=1)
        windows = list(small_splits.test)
        with InferenceEngine(tiny_roberta, config.engine) as eng:
            single = eng.predict_many(windows)
            with WorkerPool(tiny_roberta, config) as pool:
                pooled = pool.predict_many(windows, timeout=120.0)
        np.testing.assert_array_equal(pooled, single)

    @pytest.mark.parametrize("tracing", [True, False])
    def test_one_encode_per_batch_traced_or_not(
        self, tiny_roberta, small_splits, monkeypatch, tracing
    ):
        from repro.models.neural_common import TextPipeline

        calls = []
        real_encode = TextPipeline.encode

        def counting_encode(self, windows, *args, **kwargs):
            calls.append(len(windows))
            return real_encode(self, windows, *args, **kwargs)

        monkeypatch.setattr(TextPipeline, "encode", counting_encode)
        windows = small_splits.test[:6]
        config = EngineConfig(max_batch_size=4, tracing=tracing)
        with InferenceEngine(tiny_roberta, config) as eng:
            for f in [eng.submit(w) for w in windows]:
                f.result(timeout=30.0)
            batches = eng.stats()["batches"]
        assert len(calls) == batches
        assert sum(calls) == len(windows)


@pytest.mark.perf_smoke
def test_engine_throughput_beats_per_window(fitted_logreg, small_splits):
    # Best of three: single-shot wall-clock ratios flake under CPU
    # contention; the batching advantage itself is stable.
    results = [
        run_serve_bench(
            fitted_logreg,
            small_splits.test,
            requests=128,
            config=EngineConfig(max_batch_size=32),
        )
        for _ in range(3)
    ]
    assert all(r.labels_identical for r in results)
    assert all(r.max_prob_diff < 1e-9 for r in results)
    assert max(r.speedup for r in results) > 1.2


def test_serve_bench_latency_from_histogram(
    fitted_logreg, small_splits, monkeypatch
):
    """Latency quantiles cover every request and track numpy's within
    one histogram bucket width (~12%)."""
    seen = []
    real_recent = InferenceEngine.recent_traces

    def capture(self, limit=None):
        traces = real_recent(self, limit)
        seen.extend(traces)
        return traces

    monkeypatch.setattr(InferenceEngine, "recent_traces", capture)
    requests = 96
    result = run_serve_bench(
        fitted_logreg, small_splits.test, requests=requests,
        config=EngineConfig(max_batch_size=8),
    )
    assert result.latency["count"] == requests
    assert result.queue_wait["count"] == requests
    expected = float(np.percentile([t["total_ms"] for t in seen], 50))
    assert result.latency["p50_ms"] == pytest.approx(expected, rel=0.12)


def test_serve_bench_empty_latency_has_no_quantiles(
    fitted_logreg, small_splits
):
    result = run_serve_bench(
        fitted_logreg, small_splits.test, requests=8,
        config=EngineConfig(tracing=False),
    )
    assert result.latency == {
        "count": 0, "p50_ms": None, "p90_ms": None, "p99_ms": None,
        "max_ms": None,
    }


@pytest.mark.perf_smoke
def test_serve_counters_flow_through_perf(fitted_logreg, small_splits):
    windows = small_splits.test[:8]
    perf.reset()
    with InferenceEngine(fitted_logreg) as eng:
        eng.predict_many(windows)
    report = perf.report()

    def total(counter):
        return sum(
            stat["count"] for path, stat in report.items()
            if path.rsplit("/", 1)[-1] == counter
        )

    assert total("serve.requests") == len(windows)
    assert total("serve.batches") >= 1
    assert any(path.endswith("serve.predict_many") for path in report)


def test_threaded_workers_keep_dropout_off(small_splits, small_dataset):
    """A caller-thread ``predict_many`` running while the batch thread
    serves ``submit`` traffic on one PLM with dropout must agree with
    ``predict_proba`` bitwise: neither thread may switch the module back
    to train mode while the other is mid-forward."""
    import threading

    from repro.models.deberta import DebertaRiskModel
    from repro.models.neural_common import TrainerConfig
    from repro.models.plm import PLMConfig

    model = DebertaRiskModel(
        config=PLMConfig(dim=16, num_layers=1, num_heads=2, ffn_hidden=32,
                         max_len=64, dropout=0.1),
        trainer=TrainerConfig(epochs=1, batch_size=8, patience=2, seed=0),
        pretrain_texts=small_dataset.pretrain_texts[:300],
        pretrain_steps=2,
        seed=0,
    )
    model.fit(small_splits.train, small_splits.validation)
    windows = small_splits.train[:32]
    direct = model.predict_proba(windows)
    config = EngineConfig(max_batch_size=4)
    with InferenceEngine(model, config) as eng:
        bulk: list[np.ndarray] = []
        caller = threading.Thread(
            target=lambda: bulk.extend(eng.predict_many(windows) for _ in range(3))
        )
        caller.start()
        for _ in range(3):
            futures = [eng.submit(w) for w in windows]
            rows = np.vstack([f.result(timeout=30.0) for f in futures])
            np.testing.assert_array_equal(rows, direct)
        caller.join(timeout=60.0)
    assert len(bulk) == 3
    for rows in bulk:
        np.testing.assert_array_equal(rows, direct)
