"""Self-time arithmetic of the benchmark tracer, on a scripted clock."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracer import Tracer, percentile  # noqa: E402


class ScriptedClock:
    def __init__(self, *ticks: float):
        self.ticks = list(ticks)

    def __call__(self) -> float:
        return self.ticks.pop(0)


def test_self_time_subtracts_children_once():
    # outer [0, 10] holds child_a [1, 4] and child_b [5, 9]; child_b holds leaf [6, 7]
    tracer = Tracer(clock=ScriptedClock(0, 1, 4, 5, 6, 7, 9, 10))
    outer, a, b, leaf = (tracer.aggregate(n) for n in ("outer", "a", "b", "leaf"))
    s_outer = tracer.enter()
    s_a = tracer.enter()
    tracer.exit(a, s_a)
    s_b = tracer.enter()
    s_leaf = tracer.enter()
    tracer.exit(leaf, s_leaf)
    tracer.exit(b, s_b)
    tracer.exit(outer, s_outer)

    assert (outer.total_s, outer.self_s) == (10, 3)  # 10 - (3 + 4)
    assert (a.total_s, a.self_s) == (3, 3)
    assert (b.total_s, b.self_s) == (4, 3)  # leaf's 1 s belongs to leaf only
    assert (leaf.total_s, leaf.self_s) == (1, 1)
    assert sum(x.self_s for x in (outer, a, b, leaf)) == outer.total_s


def test_wrapped_calls_nest_and_count():
    tracer = Tracer(clock=ScriptedClock(0, 2, 5, 6, 8, 20))
    inner = tracer.wrap(lambda x: x + 1, "inner")
    outer = tracer.wrap(lambda x: inner(inner(x)), "outer")
    assert outer(1) == 3
    assert tracer.calls("inner") == 2 and tracer.total_s("inner") == 3 + 2
    assert tracer.calls("outer") == 1 and tracer.self_s("outer") == 20 - 5


def test_generator_resumes_are_timed_and_counted():
    tracer = Tracer(clock=ScriptedClock(0, 1, 10, 12, 20, 21))
    gen = tracer.wrap_generator(lambda: iter("ab"), "gen")
    assert list(gen()) == ["a", "b"]
    assert tracer.calls("gen") == 2  # the final StopIteration is timed, not counted
    assert tracer.total_s("gen") == 1 + 2 + 1


def test_exception_still_closes_the_span():
    tracer = Tracer(clock=ScriptedClock(0, 4))

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    assert tracer.calls("boom") == 1 and tracer.self_s("boom") == 4
    assert tracer._children == []


def test_percentile_nearest_rank():
    assert percentile([], 99) == 0.0
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([3.0], 99) == 3.0
