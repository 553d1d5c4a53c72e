"""Open-loop load generation and the max-rate search.

Requests arrive as a Poisson process at a fixed rate, independent of how
fast the engine answers, so a slow engine builds a queue. Each request is
timed from the moment it was due to be sent, which charges a stall to
every request scheduled behind it; how late the generator actually sent
is reported separately as its lag.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from stats import tail

#: Latency limit on the tail percentile, for the max-rate search.
LATENCY_LIMIT_MS = 100.0


def schedule(rate: float, count: int, seed) -> np.ndarray:
    """Due times (s, from 0) of ``count`` Poisson arrivals at ``rate``/s."""
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate, size=count)
    return np.cumsum(gaps) - gaps[0]


@dataclass
class PhaseResult:
    """Timestamps of one open-loop phase, all on the ``perf_counter`` clock."""

    rate: float
    due: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    failed: np.ndarray
    resolutions: np.ndarray
    backlog_max: int = 0
    backlog_end: int = 0
    results: list = field(default_factory=list)
    aborted: bool = False
    #: Request id of the first request, when the traced run numbers them.
    first_rid: int = 0

    @property
    def attempted(self) -> int:
        return len(self.due)

    @property
    def latencies_ms(self) -> list[float]:
        """Latency from due time; a failed or unresolved request is
        counted as infinitely late, so it misses any limit."""
        lat = (self.done - self.due) * 1e3
        lat[self.failed | np.isnan(lat)] = np.inf
        return lat.tolist()

    @property
    def lag_ms(self) -> np.ndarray:
        return (self.sent - self.due) * 1e3


def run_phase(
    submit, windows, rate, due_offsets,
    on_sent=None, max_backlog=None, timeout_s=30.0,
):
    """Send ``windows[i]`` at ``start + due_offsets[i]`` through ``submit``.

    ``submit(window)`` returns a Future. The calling thread is the load
    generator; completions are stamped by the Futures' callbacks. Sending
    stops early once more than ``max_backlog`` requests are outstanding
    (the phase is then ``aborted``). Returns once every sent request has
    resolved or ``timeout_s`` has passed since the last send.
    """
    n = len(due_offsets)
    due = np.empty(n)
    sent = np.empty(n)
    done = np.full(n, np.nan)
    failed = np.zeros(n, dtype=bool)
    resolutions = np.zeros(n, dtype=np.int64)
    results: list = [None] * n
    outstanding = threading.Semaphore(0)
    clock = time.perf_counter
    in_flight = 0
    backlog_max = 0
    aborted = False

    def stamp(i):
        def callback(future):
            done[i] = clock()
            resolutions[i] += 1
            if future.exception() is not None:
                failed[i] = True
            else:
                results[i] = future.result()
            outstanding.release()

        return callback

    start = clock() + 0.01
    for i in range(n):
        if max_backlog is not None and in_flight > max_backlog:
            aborted = True
            n = i
            break
        due[i] = start + due_offsets[i]
        wait = due[i] - clock()
        if wait > 0:
            time.sleep(wait)
        sent[i] = clock()
        if on_sent is not None:
            on_sent(i, windows[i])
        try:
            future = submit(windows[i])
        except Exception:
            # A refused request is a failure, resolved on the spot.
            done[i] = clock()
            failed[i] = True
            resolutions[i] += 1
            outstanding.release()
            continue
        future.add_done_callback(stamp(i))
        in_flight = i + 1 - int(np.count_nonzero(resolutions[: i + 1]))
        backlog_max = max(backlog_max, in_flight)
    backlog_end = in_flight
    deadline = clock() + timeout_s
    for _ in range(n):
        if not outstanding.acquire(timeout=max(0.0, deadline - clock())):
            break
    return PhaseResult(
        rate=rate, due=due[:n], sent=sent[:n], done=done[:n],
        failed=failed[:n], resolutions=resolutions[:n],
        backlog_max=backlog_max, backlog_end=backlog_end,
        results=results[:n], aborted=aborted,
    )


def run_closed(submit, windows, clients: int, timeout_s=60.0) -> PhaseResult:
    """Closed loop: ``clients`` requests outstanding until every window is
    sent; each completion lets the next request go. Measures capacity,
    which unlike the open loop's tail depends on no single stall."""
    n = len(windows)
    sent = np.empty(n)
    done = np.full(n, np.nan)
    failed = np.zeros(n, dtype=bool)
    resolutions = np.zeros(n, dtype=np.int64)
    slots = threading.Semaphore(clients)
    clock = time.perf_counter

    def stamp(i):
        def callback(future):
            done[i] = clock()
            resolutions[i] += 1
            failed[i] = future.exception() is not None
            slots.release()

        return callback

    for i in range(n):
        slots.acquire()
        sent[i] = clock()
        try:
            future = submit(windows[i])
        except Exception:
            # A refused request is a failure, resolved on the spot.
            done[i] = clock()
            failed[i] = True
            resolutions[i] += 1
            slots.release()
            continue
        future.add_done_callback(stamp(i))
    deadline = clock() + timeout_s
    for _ in range(clients):
        if not slots.acquire(timeout=max(0.0, deadline - clock())):
            break
    return PhaseResult(
        rate=0.0, due=sent, sent=sent, done=done, failed=failed,
        resolutions=resolutions,
    )


def completion_rate(phase: PhaseResult) -> float:
    """Requests completed per second, first send to last completion."""
    return phase.attempted / (np.nanmax(phase.done) - phase.sent[0])


def meets_limit(phase: PhaseResult) -> bool:
    """Tail latency from due time within the limit, and no growing backlog.

    The tail is the highest percentile with ten samples beyond it: p99
    from 1,000 requests, p95 from 200 to 999; below 20 requests, the
    slowest one. Failed requests count as
    infinitely late. No growing backlog means that when the last request
    was sent, no more were outstanding than the engine can answer within
    the limit at the offered rate.
    """
    if phase.aborted:
        return False
    latencies = phase.latencies_ms
    worst = tail(latencies)["value"] if len(latencies) >= 20 else max(latencies)
    tail_ok = worst <= LATENCY_LIMIT_MS
    backlog_ok = phase.backlog_end <= phase.rate * LATENCY_LIMIT_MS / 1e3
    return tail_ok and backlog_ok


def rate_ladder(low: float, high: float, step: float) -> list[float]:
    """Geometric ladder from ``low`` to ``high``; adjacent rungs differ by
    the factor ``1 + step``."""
    rungs = [low]
    while rungs[-1] * (1 + step) <= high * (1 + 1e-9):
        rungs.append(rungs[-1] * (1 + step))
    return rungs


def max_rate(
    ladder: list[float], probe, attempts: int = 2
) -> tuple[float, list[tuple[float, bool]]]:
    """Highest rung for which ``probe(rate)`` passes, by bisection.

    Assumes a rung passes whenever a higher one does. A rung passes when
    any of ``attempts`` probes passes: a host stall can fail one short
    probe, while a rate above what the engine sustains fails every time.
    Returns the rate (0 when even the lowest rung fails) and the probes
    made, in order.
    """
    lo, hi = -1, len(ladder)
    probes = []
    while hi - lo > 1:
        mid = (lo + hi) // 2
        ok = False
        for _ in range(attempts):
            ok = probe(ladder[mid])
            probes.append((ladder[mid], ok))
            if ok:
                break
        if ok:
            lo = mid
        else:
            hi = mid
    return (ladder[lo] if lo >= 0 else 0.0), probes
