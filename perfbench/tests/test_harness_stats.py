import numpy as np
import pytest

from spans import Tracer
from stats import percentile, tail, union_length


@pytest.mark.parametrize(
    "n, expected",
    [(2000, 99.0), (1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0),
     (100, 90.0), (99, 75.0), (40, 75.0), (39, 50.0), (20, 50.0), (19, None)],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, expected):
    samples = list(range(n))
    result = tail(samples)
    assert result["p"] == expected
    assert result["count"] == n
    if expected is not None:
        assert n * (100 - expected) / 100 >= 10
        assert result["value"] == pytest.approx(np.percentile(samples, expected))


def test_percentile_matches_numpy_and_keeps_infinite_samples():
    rng = np.random.default_rng(0)
    samples = rng.exponential(size=537).tolist()
    for q in (50, 90, 95, 99):
        assert percentile(samples, q) == pytest.approx(np.percentile(samples, q))
    # A failed request is infinitely late; it must not turn into NaN.
    assert percentile([1.0, 2.0, float("inf")], 100) == float("inf")
    assert percentile([1.0, 2.0, 3.0, float("inf")], 50) == 2.5


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_span_self_time_on_synthetic_tree():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    events = [
        (0.0, "open", "root"), (1.0, "open", "a"), (2.0, "open", "b"),
        (3.0, "close", "b"), (4.0, "close", "a"), (5.0, "open", "c"),
        (9.0, "close", "c"), (10.0, "close", "root"),
    ]
    frames = []
    for when, kind, name in events:
        clock.now = when
        if kind == "open":
            frames.append(tracer.open(name, rid=7 if name == "root" else None))
        else:
            tracer.close(frames.pop())
    assert tracer.self_s("root") == pytest.approx(3.0)  # 10 - (a 3) - (c 4)
    assert tracer.self_s("a") == pytest.approx(2.0)     # 3 - (b 1)
    assert tracer.self_s("b") == pytest.approx(1.0)
    assert tracer.self_s("c") == pytest.approx(4.0)
    assert tracer.total_s("root") == pytest.approx(10.0)
    records = {r[2]: r for r in tracer.records}
    assert records["b"][1] == records["a"][0]          # parent of b is a
    assert records["root"][1] is None
    assert {r[5] for r in tracer.records} == {7}       # request id inherited
    assert tracer.roots == [(0.0, 10.0)]


def test_span_cap_keeps_totals_exact():
    clock = FakeClock()
    tracer = Tracer(clock=clock, keep=2)
    for i in range(5):
        clock.now = float(i)
        frame = tracer.open("x")
        clock.now = i + 0.5
        tracer.close(frame)
    assert len(tracer.records) == 2 and tracer.dropped == 3
    assert tracer.calls("x") == 5
    assert tracer.total_s("x") == pytest.approx(2.5)


def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.8)]) == pytest.approx(4.0)
    assert union_length([]) == 0.0
