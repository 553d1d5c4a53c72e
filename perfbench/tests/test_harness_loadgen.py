import threading
import time
from concurrent.futures import Future

import numpy as np

import loadgen


def test_schedule_is_seed_deterministic():
    a = loadgen.schedule(50.0, 200, [3, 0])
    b = loadgen.schedule(50.0, 200, [3, 0])
    c = loadgen.schedule(50.0, 200, [4, 0])
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a[0] == 0.0 and np.all(np.diff(a) >= 0)
    # Poisson arrivals at 50/s: mean gap near 20 ms.
    assert 0.015 < np.mean(np.diff(a)) < 0.025


def immediate(window):
    future = Future()
    future.set_result(np.array([0.25] * 4))
    return future


def test_latency_is_timed_from_due_time():
    # The first request stalls the generator for 100 ms; the second was
    # due 10 ms after the first, so its latency must include the ~90 ms
    # it waited to be sent, not just its (instant) service time.
    def stalling(window):
        if window == 0:
            time.sleep(0.1)
        return immediate(window)

    phase = loadgen.run_phase(stalling, [0, 1], 100.0, np.array([0.0, 0.01]))
    latency = phase.latencies_ms
    assert latency[1] >= 85.0
    assert phase.lag_ms[1] >= 85.0
    assert np.all(phase.resolutions == 1)


def test_every_request_resolves_exactly_once():
    def later(window):
        future = Future()
        threading.Timer(0.005, future.set_result, args=([window],)).start()
        return future

    due = loadgen.schedule(500.0, 50, [0])
    phase = loadgen.run_phase(later, list(range(50)), 500.0, due)
    assert phase.attempted == 50
    assert np.all(phase.resolutions == 1)
    assert not phase.failed.any()
    assert [r[0] for r in phase.results] == list(range(50))


def failing_every(k):
    def submit(window):
        future = Future()
        if window % k == 0:
            future.set_exception(RuntimeError("engine closed"))
        else:
            future.set_result(np.array([0.25] * 4))
        return future

    return submit


def test_failed_requests_count_as_misses():
    n = 200  # the limit applies to p95 here: 10 samples beyond it
    due = loadgen.schedule(2000.0, n, [1])
    ok = loadgen.run_phase(failing_every(n + 1), list(range(1, n + 1)), 2000.0, due)
    assert loadgen.meets_limit(ok)
    # One request in ten fails: fast as the rest are, the phase misses.
    bad = loadgen.run_phase(failing_every(10), list(range(1, n + 1)), 2000.0, due)
    assert bad.failed.sum() == n // 10
    assert np.isinf(np.array(bad.latencies_ms)[bad.failed]).all()
    assert not loadgen.meets_limit(bad)


def test_refused_request_is_a_failure():
    def refusing(window):
        raise RuntimeError("queue full")

    phase = loadgen.run_phase(refusing, [0, 1], 100.0, np.array([0.0, 0.001]))
    assert phase.failed.all() and np.all(phase.resolutions == 1)
    assert not loadgen.meets_limit(phase)


def test_max_rate_search_counts_failures_as_misses():
    ladder = loadgen.rate_ladder(40.0, 400.0, 0.04)
    assert all(b / a <= 1.0401 for a, b in zip(ladder, ladder[1:]))

    def probe(rate):
        # Every rung above 150/s fails one request in ten.
        k = 10 if rate > 150 else 10**9
        n = 200
        due = loadgen.schedule(2000.0, n, [int(rate)])
        phase = loadgen.run_phase(failing_every(k), list(range(1, n + 1)), rate, due)
        return loadgen.meets_limit(phase)

    best, probes = loadgen.max_rate(ladder, probe)
    assert best == max(r for r in ladder if r <= 150)
    # Each miss is probed twice before the search moves down.
    misses = [rate for rate, ok in probes if not ok]
    assert all(misses.count(rate) == 2 for rate in misses)


def test_max_rate_retries_a_miss_once():
    outcomes = iter([False, True, True])  # rung 20 misses, then passes
    best, probes = loadgen.max_rate([10.0, 20.0, 30.0], lambda rate: next(outcomes))
    assert best == 30.0
    assert probes == [(20.0, False), (20.0, True), (30.0, True)]


def test_max_rate_is_zero_when_nothing_passes():
    best, probes = loadgen.max_rate([10.0, 20.0, 30.0], lambda rate: False)
    assert best == 0.0 and [r for r, _ in probes] == [20.0, 20.0, 10.0, 10.0]
