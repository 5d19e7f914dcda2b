"""Arithmetic of the benchmark: percentiles, schedule, spans, patches."""

import numpy as np
import pytest

from perfbench.measure import (
    Patches, Tracer, median, percentile, poisson_schedule, summarize_spans,
    wait_for_quiet_host,
)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile(values, 0.5) == 1
    assert percentile([7.0], 99) == 7.0
    # order of the input does not matter
    assert percentile(values[::-1], 95) == 95
    # p99 of 1000 values leaves exactly ten above it
    thousand = list(range(1000))
    assert sum(v > percentile(thousand, 99) for v in thousand) == 10


@pytest.mark.parametrize("bad", [0, -1, 101])
def test_percentile_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        percentile([1.0, 2.0], bad)


def test_percentile_and_median_reject_empty():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        median([])


def test_median_odd_and_even():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5


def test_poisson_schedule_is_seeded_and_in_range():
    a = poisson_schedule(2000, 3.0, np.random.default_rng(5))
    b = poisson_schedule(2000, 3.0, np.random.default_rng(5))
    c = poisson_schedule(2000, 3.0, np.random.default_rng(6))
    assert np.array_equal(a, b)
    assert not np.array_equal(a[:100], c[:100])
    assert np.all(np.diff(a) > 0)
    assert a[0] >= 0 and a[-1] < 3.0
    # count within five standard deviations of rate * duration
    assert abs(len(a) - 6000) < 5 * np.sqrt(6000)
    assert np.mean(np.diff(a)) == pytest.approx(1 / 2000, rel=0.05)


def test_poisson_schedule_tops_up_short_draws():
    # one arrival per second on average over a long step
    times = poisson_schedule(1.0, 400.0, np.random.default_rng(0))
    assert times[-1] < 400.0 and len(times) > 300


def test_self_time_subtracts_children():
    spans = [
        ("tick", 0.0, 10.0, -1),
        ("train", 1.0, 5.0, 0),
        ("fit", 2.0, 4.0, 1),
        ("score", 6.0, 7.0, 0),
    ]
    out = summarize_spans(spans)
    assert out["tick"] == {"calls": 1, "busy_s": 10.0, "self_s": 5.0}
    assert out["train"] == {"calls": 1, "busy_s": 4.0, "self_s": 2.0}
    assert out["fit"]["self_s"] == 2.0
    assert out["score"]["self_s"] == 1.0
    # self times add up to the root's duration
    assert sum(r["self_s"] for r in out.values()) == 10.0


def test_reentrant_span_busy_counted_once():
    spans = [("a", 0.0, 4.0, -1), ("a", 1.0, 3.0, 0), ("b", 5.0, 6.0, -1)]
    out = summarize_spans(spans)
    assert out["a"]["calls"] == 2
    assert out["a"]["busy_s"] == 4.0
    assert out["a"]["self_s"] == 4.0


def test_tracer_links_parents_and_counts():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap(
        "inner", inner,
        lambda t, args, result: t.counts.update({"inner.sum": result}))

    def outer(x):
        return traced_inner(x) * 2

    assert tracer.wrap("outer", outer)(3) == 8
    assert [s[0] for s in tracer.spans] == ["outer", "inner"]
    assert tracer.spans[1][3] == 0 and tracer.spans[0][3] == -1
    assert tracer.counts["inner.sum"] == 4
    summary = tracer.summary()
    # outer: clock 0..3, inner: 1..2
    assert summary["outer"]["self_s"] == 2.0
    assert summary["inner"]["busy_s"] == 1.0


def test_tracer_closes_span_on_error():
    tracer = Tracer()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.wrap("boom", boom)()
    assert tracer.spans[0][2] >= tracer.spans[0][1]
    tracer.wrap("after", lambda: None)()
    assert tracer.spans[1][3] == -1   # the stack was unwound


def test_patches_restore_own_and_inherited_attributes():
    class Base:
        def f(self):
            return "base"

    class Child(Base):
        def g(self):
            return "child"

    with Patches() as patches:
        patches.replace(Child, "f", lambda fn: lambda self: "patched-f")
        patches.replace(Child, "g", lambda fn: lambda self: "patched-g")
        assert Child().f() == "patched-f" and Child().g() == "patched-g"
    assert Child().f() == "base" and Child().g() == "child"
    assert "f" not in vars(Child)


def test_quiet_host_wait_is_bounded():
    out = wait_for_quiet_host(threshold=1.1, probe_s=0.01)
    assert 0.01 <= out["waited_s"] < 1.0
    assert 0.0 <= out["steal_share"] <= 1.0
    # a threshold nothing meets: gives up after the longest wait
    out = wait_for_quiet_host(threshold=-1.0, probe_s=0.01, max_wait_s=0.03)
    assert 0.03 <= out["waited_s"] < 1.0
