"""Lagged cross-correlation between the social signal and case counts.

Lag convention: a positive lag means the social series leads the physical
series — social activity on day d is compared with cases on day d+lag.
The best lag maximizes Pearson r over [-max_lag, +max_lag], ties broken
toward the smallest |lag| (positive preferred on an exact tie).

A series is a dict from day index ``int(t // DAY)`` to its count: the
runner counts posts and case reports by that index as they arrive, and
``TimeSeries.day_counts`` reads a series' points onto it. Day counts are
integers, so r is computed from exact integer sums and lags are compared
exactly: no float rounding can break a tie. Only the value that gets
written becomes a float. A day without a count is absent and counts as
zero in every sum, so each lag costs the days that hold a count, not the
span between a series' first day and its last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..timeutil import DAY

DEFAULT_MAX_LAG_DAYS = 21
MIN_POINTS = 3


@dataclass
class TimeSeries:
    region: str
    granularity: str = "day"  # the only one: lagged correlation pairs days
    points: list[tuple[float, int]] = field(default_factory=list)

    def __post_init__(self):
        if self.granularity != "day":
            raise ValueError(f"unknown granularity: {self.granularity!r}")
        starts = [p[0] for p in self.points]
        if any(prev >= nxt for prev, nxt in zip(starts, starts[1:])):
            raise ValueError("time series buckets must be strictly increasing")
        if any(not isinstance(c, int) for _, c in self.points):
            raise ValueError("counts must be integers")
        if any(c < 0 for _, c in self.points):
            raise ValueError("counts must be non-negative")

    def day_counts(self) -> dict[int, int]:
        """Count per day index ``t // DAY``. A day without a point is absent
        and counts as zero, so the dict's size follows the points, not the
        span between the first day and the last."""
        counts: dict[int, int] = {}
        for t, count in self.points:
            day = int(t // DAY)
            counts[day] = counts.get(day, 0) + count
        return counts


@dataclass
class CorrelationResult:
    region: str
    best_lag: Optional[int]
    r: Optional[float]
    n: int
    undefined_reason: Optional[str] = None

    def to_json_obj(self) -> dict:
        return {
            "region": self.region,
            "best_lag": self.best_lag,
            "r": None if self.r is None else round(self.r, 6),
            "n": self.n,
            "undefined_reason": self.undefined_reason,
        }


def _pearson_sums(n: int, x: dict[int, int], y: dict[int, int]) -> Optional[tuple[int, int, int]]:
    """``(Sxy, Sxx, Syy)`` over ``n`` paired days, each scaled by n², so
    r = Sxy / sqrt(Sxx·Syy); None when either series has zero variance.
    ``x`` and ``y`` map a day of the pairing to its count, an absent day
    counting as zero."""
    sx, sy = sum(x.values()), sum(y.values())
    sxx = n * sum(v * v for v in x.values()) - sx * sx
    syy = n * sum(v * v for v in y.values()) - sy * sy
    if sxx == 0 or syy == 0:
        return None
    return n * sum(v * y.get(day, 0) for day, v in x.items()) - sx * sy, sxx, syy


def _beats(a: tuple[int, int, int], b: tuple[int, int, int]) -> bool:
    """Whether r(a) > r(b), exactly: r·|r| = Sxy·|Sxy| / (Sxx·Syy) is
    monotone in r, and both denominators are positive."""
    return a[0] * abs(a[0]) * b[1] * b[2] > b[0] * abs(b[0]) * a[1] * a[2]


def _r(sums: tuple[int, int, int]) -> float:
    sxy, sxx, syy = sums
    return max(-1.0, min(1.0, sxy / math.sqrt(sxx * syy)))


def lagged_correlation(
    social: TimeSeries,
    cases: TimeSeries,
    max_lag: int = DEFAULT_MAX_LAG_DAYS,
) -> CorrelationResult:
    """Best-lag Pearson correlation between two daily series of one region."""
    if social.region != cases.region:
        raise ValueError(
            f"series regions differ: {social.region!r} vs {cases.region!r}"
        )
    return _best_lag(social.region, social.day_counts(), cases.day_counts(), max_lag)


def correlate_regions(
    social: dict[str, dict[int, int]],
    cases: dict[str, dict[int, int]],
    max_lag: int = DEFAULT_MAX_LAG_DAYS,
) -> list[CorrelationResult]:
    """Best-lag correlation of every region that both hold, by region; each
    maps a region to its counts by day index."""
    return [
        _best_lag(region, social[region], cases[region], max_lag)
        for region in sorted(social.keys() & cases.keys())
    ]


def _best_lag(region: str, s: dict[int, int], c: dict[int, int], max_lag: int) -> CorrelationResult:
    """Best-lag Pearson correlation of social counts ``s`` against case
    counts ``c``, both by day index."""
    if not s or not c:
        return CorrelationResult(region, None, None, 0, "insufficient_overlap")
    s_first, s_end = min(s), max(s) + 1
    c_first, c_end = min(c), max(c) + 1

    overlap = min(s_end, c_end) - max(s_first, c_first)
    if overlap < max_lag + MIN_POINTS:
        return CorrelationResult(region, None, None, max(overlap, 0), "insufficient_overlap")

    best: Optional[tuple[tuple[int, int, int], int, int]] = None  # (sums, lag, n)
    saw_zero_variance = False
    # Smallest |lag| first, positive before negative, so the first strict
    # maximum implements the tie-break rule.
    lags = sorted(range(-max_lag, max_lag + 1), key=lambda l: (abs(l), l < 0))
    for lag in lags:
        # pair social day d with cases day d+lag, for d in [lo, hi)
        lo = max(s_first, c_first - lag)
        hi = min(s_end, c_end - lag)
        n = hi - lo
        if n < MIN_POINTS:
            continue
        xs = {d: v for d, v in s.items() if lo <= d < hi}
        ys = {d - lag: v for d, v in c.items() if lo <= d - lag < hi}
        sums = _pearson_sums(n, xs, ys)
        if sums is None:
            saw_zero_variance = True
            continue
        if best is None or _beats(sums, best[0]):
            best = (sums, lag, n)

    if best is None:
        reason = "zero_variance" if saw_zero_variance else "insufficient_overlap"
        return CorrelationResult(region, None, None, 0, reason)
    sums, lag, n = best
    return CorrelationResult(region, lag, _r(sums), n)
