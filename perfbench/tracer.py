"""In-memory span tracer that wraps the program's functions from outside.

Each wrapped name keeps an aggregate: calls, total time and self time, where
self time is a span's duration minus the time covered by the wrapped calls
made inside it. Individual spans are kept only where the caller asks for
them, at low-rate boundaries (window closes, slides, evidence items).

Wrapping replaces a function at every place it is bound: every attribute of
every loaded ``driftstream`` module that refers to the original object. That
covers ``from x import f`` call sites without naming them one by one.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable, Optional


class Aggregate:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.aggregates: dict[str, Aggregate] = {}
        self.counts: Counter = Counter()
        self.spans: list[dict] = []
        self.missing: list[str] = []
        # One entry per open span: time covered by its finished child spans.
        self._children: list[float] = []

    def aggregate(self, name: str) -> Aggregate:
        agg = self.aggregates.get(name)
        if agg is None:
            agg = self.aggregates[name] = Aggregate()
        return agg

    def enter(self) -> float:
        self._children.append(0.0)
        return self.clock()

    def exit(self, agg: Aggregate, start: float, calls: int = 1) -> float:
        """Close the innermost open span; returns its duration."""
        duration = self.clock() - start
        child = self._children.pop()
        agg.calls += calls
        agg.total_s += duration
        agg.self_s += duration - child
        if self._children:
            self._children[-1] += duration
        return duration

    def span(self, name: str, start: float, duration: float, **attrs) -> None:
        self.spans.append({"name": name, "start": start, "duration_s": duration, **attrs})

    # -- wrapping --------------------------------------------------------------

    def wrap(self, fn: Callable, name: str, on_result: Optional[Callable] = None) -> Callable:
        agg = self.aggregate(name)
        enter, exit_ = self.enter, self.exit

        def traced(*args, **kwargs):
            start = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = exit_(agg, start)
            if on_result is not None:
                on_result(result, args, start, duration)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn: Callable, name: str) -> Callable:
        """Time every resume of the generator ``fn`` returns; one call per item."""
        agg = self.aggregate(name)
        enter, exit_ = self.enter, self.exit

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                start = enter()
                try:
                    item = next(gen)
                except StopIteration:
                    exit_(agg, start, calls=0)
                    return
                except BaseException:
                    exit_(agg, start, calls=0)
                    raise
                exit_(agg, start)
                yield item

        traced.__wrapped__ = fn
        return traced

    def hook(self, module: str, attr: str, name: str, on_result=None, generator=False) -> None:
        """Wrap ``module.attr`` (``attr`` may be ``Class.method``) everywhere it is bound.

        A target that does not exist is recorded in ``missing``, so a renamed
        function shows up instead of failing the run.
        """
        owner = sys.modules.get(module)
        parts = attr.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        original = getattr(owner, parts[-1], None) if owner is not None else None
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapped = (
            self.wrap_generator(original, name) if generator else self.wrap(original, name, on_result)
        )
        if len(parts) > 1:
            setattr(owner, parts[-1], wrapped)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "driftstream" or mod_name.startswith("driftstream.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    def self_s(self, name: str) -> float:
        agg = self.aggregates.get(name)
        return agg.self_s if agg else 0.0

    def total_s(self, name: str) -> float:
        agg = self.aggregates.get(name)
        return agg.total_s if agg else 0.0

    def calls(self, name: str) -> int:
        agg = self.aggregates.get(name)
        return agg.calls if agg else 0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 100))))
    return ordered[rank - 1]
