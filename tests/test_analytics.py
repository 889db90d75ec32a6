"""Count tables, report files, and lagged correlation."""

from __future__ import annotations

import json
import math
import random
import tempfile
from collections import Counter, defaultdict
from datetime import date, datetime, timezone
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftstream.analytics import correlation
from driftstream.analytics.correlation import (
    MIN_POINTS,
    CorrelationResult,
    TimeSeries,
    _beats,
    _r,
    correlate_regions,
    lagged_correlation,
)
from driftstream.analytics.tables import DIMENSIONS, TableCounts, emit_report, write_json
from driftstream.timeutil import DAY, END_EPOCH, FIRST_EPOCH, parse_timestamp

from conftest import make_enriched

T0 = parse_timestamp("2020-03-01T00:00:00Z")


# Sparse day counts by day index: days near the epoch, either side of it,
# and far off (year 1 is about day -719,000, year 9999 about day 2,900,000).
DAY_COUNTS = st.dictionaries(
    st.one_of(st.integers(-12, 12), st.integers(-719_200, 2_932_800)), st.integers(0, 5), max_size=10
)


def _series(region: str, counts: list[float], first_day: float = T0) -> TimeSeries:
    points = [(first_day + i * DAY, int(c)) for i, c in enumerate(counts)]
    return TimeSeries(region=region, granularity="day", points=points)


def _epidemic_curve(days: int, rng: random.Random | None = None) -> list[float]:
    # a smooth wave: rise, peak, decay
    curve = [1000.0 * math.exp(-((d - days / 2) ** 2) / (2 * (days / 6) ** 2)) for d in range(days)]
    if rng is not None:
        curve = [c * (1 + 0.1 * (rng.random() * 2 - 1)) for c in curve]
    return [max(c, 0.0) + 5 for c in curve]


def _count(posts) -> TableCounts:
    """Feed the accumulator one post at a time, as the runner does."""
    counts = TableCounts()
    for p in posts:
        counts.add(p.post, p.locations, p.topic_groups)
    return counts


def _recount(posts) -> dict[str, dict]:
    """Brute-force recount: every key derived afresh from each post."""
    tables: dict[str, Counter] = {name: Counter() for name in DIMENSIONS}
    for p in posts:
        utc = datetime.fromtimestamp(p.post.created_at, tz=timezone.utc)
        day = f"{utc.year:04d}-{utc.month:02d}-{utc.day:02d}"  # strftime leaves year 1 unpadded
        region = p.locations[0] if p.locations else "none"
        groups = "+".join(sorted(p.topic_groups)) or "none"
        tables["month"][day[:7]] += 1
        tables["language"][p.post.lang] += 1
        tables["region_day"][(region, day)] += 1
        tables["topic_region_day"][(groups, region, day)] += 1
    return {name: dict(table) for name, table in tables.items()}


class TestBucketCounts:
    """``TableCounts``, fed one post at a time, against a brute-force recount."""

    def test_empty_stream_empty_table(self):
        assert TableCounts().as_tables() == {name: {} for name in DIMENSIONS}

    def test_single_month(self):
        posts = [make_enriched(post_id=i, created_at=T0 + i * 60) for i in range(10)]
        assert _count(posts).as_tables(("month",)) == {"month": {"2020-03": 10}}

    def test_unknown_dimension_rejected(self):
        with pytest.raises(ValueError):
            TableCounts().as_tables(("month", "hour"))

    def test_counts_match_brute_force_recount(self, tmp_path):
        from driftstream.sources.archive import posts_from_archive
        from driftstream.sources.synthetic import SyntheticConfig, generate_synthetic

        corpus = generate_synthetic(
            SyntheticConfig(seed=41, duration_minutes=90, base_rate_per_minute=110),
            tmp_path,
        )
        rng = random.Random(41)
        posts = []
        for p in posts_from_archive(corpus.archive_path):
            post = make_enriched(post_id=p.id, text=p.text, created_at=p.created_at, lang=p.lang,
                                 locations=rng.choice([[], ["madrid"], ["hubei", "madrid"]]))
            post.topic_groups = set(rng.sample(["death", "positive", "hospitalization"], rng.randrange(3)))
            posts.append(post)
        tables = _count(posts).as_tables()
        assert tables == _recount(posts)
        for name, table in tables.items():
            assert sum(table.values()) == len(posts), name

    def test_conservation_across_every_dimension(self):
        rng = random.Random(2)
        posts = []
        for i in range(500):
            posts.append(
                make_enriched(
                    post_id=i,
                    created_at=T0 + rng.uniform(0, 40 * DAY),
                    lang=rng.choice(["en", "es", "fr"]),
                    locations=rng.choice([[], ["madrid"], ["hubei", "madrid"]]),
                )
            )
        tables = _count(posts).as_tables()
        assert tables == _recount(posts)
        for dimension in DIMENSIONS:
            assert sum(tables[dimension].values()) == 500, dimension

    def test_multi_location_post_counts_once_under_its_first_location(self):
        posts = [
            make_enriched(post_id=1, locations=["hubei", "madrid"]),
            make_enriched(post_id=2, locations=["madrid"]),
            make_enriched(post_id=3),
        ]
        posts[0].topic_groups = {"positive", "death"}
        tables = _count(posts).as_tables()
        assert tables["region_day"] == {("hubei", "2020-03-01"): 1, ("madrid", "2020-03-01"): 1,
                                        ("none", "2020-03-01"): 1}
        assert tables["topic_region_day"] == {("death+positive", "hubei", "2020-03-01"): 1,
                                              ("none", "madrid", "2020-03-01"): 1,
                                              ("none", "none", "2020-03-01"): 1}
        assert tables == _recount(posts)

    def test_posts_either_side_of_day_and_month_boundaries(self):
        april = parse_timestamp("2020-04-01T00:00:00Z")
        offsets = [-DAY - 0.5, -0.001, 0.0, 0.25, DAY - 0.001, DAY, -0.001, 2 * DAY, -DAY]
        posts = [make_enriched(post_id=i, created_at=april + o, locations=["madrid"])
                 for i, o in enumerate(offsets)]
        tables = _count(posts).as_tables()
        assert tables == _recount(posts)
        assert tables["month"] == {"2020-03": 4, "2020-04": 5}
        assert tables["region_day"] == {
            ("madrid", "2020-03-30"): 1,
            ("madrid", "2020-03-31"): 3,
            ("madrid", "2020-04-01"): 3,
            ("madrid", "2020-04-02"): 1,
            ("madrid", "2020-04-03"): 1,
        }

    @given(st.lists(st.tuples(
        st.one_of(  # quarter seconds either side of the epoch, and on the first and last days a bundle can date
            st.integers(-8 * DAY, 8 * DAY),
            st.integers(4 * FIRST_EPOCH, 4 * (FIRST_EPOCH + 2 * DAY)),
            st.integers(4 * (END_EPOCH - 2 * DAY), 4 * END_EPOCH - 1),
        ).map(lambda quarters: quarters / 4),
        st.lists(st.sampled_from(("hubei", "madrid", "sturgis")), max_size=3, unique=True).map(sorted),
        st.sets(st.sampled_from(("deaths_hospitalizations", "positive_tests", "symptomatic")), max_size=3),
        st.booleans(),  # social: relevant and untagged
        st.sampled_from(("en", "es")),
    ), max_size=30))
    def test_every_table_and_the_social_series_equal_a_recount(self, specs):
        """All four tables and ``social_days`` are summed from one count per
        post; each equals a recount of the posts themselves."""
        counts, posts = TableCounts(), []
        social = defaultdict(Counter)
        for i, (t, locations, groups, is_social, lang) in enumerate(specs):
            post = make_enriched(post_id=i, created_at=t, locations=locations, lang=lang)
            post.topic_groups = groups
            counts.add(post.post, post.locations, post.topic_groups, is_social)
            posts.append(post)
            if is_social:
                day = (datetime.fromtimestamp(t, tz=timezone.utc).date() - date(1970, 1, 1)).days
                for location in locations:
                    social[location][day] += 1
        assert counts.as_tables() == _recount(posts)
        assert counts.social_days() == social


class TestEmitReport:
    def _tables(self):
        return {
            "month": {"2020-03": 120, "2020-04": 80},
            "language": {"en": 126, "es": 40, "fr": 34},
        }

    def test_month_csv_header_and_rows(self, tmp_path):
        emit_report(self._tables(), [], tmp_path)
        lines = (tmp_path / "month.csv").read_text().splitlines()
        assert lines[0] == "month,count"
        assert lines[1:] == ["2020-03,120", "2020-04,80"]

    def test_language_table_sorted_desc_with_pct(self, tmp_path):
        emit_report(self._tables(), [], tmp_path)
        lines = (tmp_path / "languages.csv").read_text().splitlines()
        assert lines[0] == "language,count,pct"
        counts = [int(line.split(",")[1]) for line in lines[1:]]
        assert counts == sorted(counts, reverse=True)
        pcts = [float(line.split(",")[2]) for line in lines[1:]]
        assert sum(pcts) <= 100.0
        assert pcts[0] == 63.0  # floor(126/200*1000)/10

    def test_rerun_is_byte_identical(self, tmp_path):
        results = [CorrelationResult("madrid", 7, 0.93, 40)]
        emit_report(self._tables(), results, tmp_path / "a")
        emit_report(self._tables(), results, tmp_path / "b")
        for name in ("month.csv", "languages.csv", "correlation.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)


class TestBundleWriters:
    @given(JSON_VALUES)
    @example({"région": "Île-de-France", "terms": ["🦠", "máscara"], "r": -0.25, "lag": None})
    @example({"a": [], "b": {}, "c": [{}, [[]]], "d": {"e": {"f": [1.5e-7, 1e300, None]}}})
    @example([])
    def test_write_json_equals_json_dumps(self, obj):
        """Streamed with ``json.dump``, ``clusters.json`` and ``summary.json``
        keep the bytes of ``json.dumps`` plus a newline."""
        with tempfile.TemporaryDirectory() as tmp:
            written = write_json(Path(tmp) / "out.json", obj).read_bytes()
        assert written == (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


class TestLaggedCorrelation:
    def test_exact_shift_recovers_lag_and_unit_r(self):
        days = 60
        cases = _epidemic_curve(days)
        # social leads by 7: social[d] = cases[d+7]
        social = _series("madrid", cases[7:])
        cases_series = _series("madrid", cases)
        result = lagged_correlation(social, cases_series, max_lag=14)
        assert result.best_lag == 7
        assert result.r == pytest.approx(1.0)
        assert result.undefined_reason is None

    def test_shift_with_noise_stays_near_true_lag(self):
        rng = random.Random(100)
        days = 90
        cases = _epidemic_curve(days)
        noisy_social = [c * (1 + 0.1 * (rng.random() * 2 - 1)) for c in cases[7:]]
        result = lagged_correlation(
            _series("madrid", noisy_social), _series("madrid", cases), max_lag=21
        )
        assert result.best_lag in (6, 7, 8)
        assert result.r > 0.8

    def test_independent_series_have_low_correlation(self):
        rng = random.Random(1234)
        a = [rng.random() * 100 for _ in range(100)]
        b = [rng.random() * 100 for _ in range(100)]
        result = lagged_correlation(_series("x", a), _series("x", b), max_lag=5)
        assert abs(result.r) < 0.3

    def test_lag_convention_social_leading_is_positive(self):
        # cases respond 3 days after social: social[d] correlates cases[d+3]
        days = 40
        base = _epidemic_curve(days)
        social = _series("x", base)
        cases = _series("x", [0.0] * 3 + base[:-3], first_day=T0)
        result = lagged_correlation(social, cases, max_lag=10)
        assert result.best_lag == 3

    def test_swapping_series_negates_lag(self):
        days = 60
        cases = _epidemic_curve(days)
        social = _series("m", cases[7:])
        cases_series = _series("m", cases)
        forward = lagged_correlation(social, cases_series, max_lag=14)
        backward = lagged_correlation(cases_series, social, max_lag=14)
        assert backward.best_lag == -forward.best_lag

    def test_pearson_invariant_under_affine_transform(self):
        days = 50
        cases = _epidemic_curve(days)
        social = cases[5:]
        r1 = lagged_correlation(_series("m", social), _series("m", cases), max_lag=10)
        scaled = [3.5 * c + 200 for c in cases]
        r2 = lagged_correlation(_series("m", social), _series("m", scaled), max_lag=10)
        assert r1.best_lag == r2.best_lag
        assert r1.r == pytest.approx(r2.r)

    def test_zero_variance_flagged_not_nan(self):
        flat = _series("m", [5.0] * 40)
        wave = _series("m", _epidemic_curve(40))
        result = lagged_correlation(flat, wave, max_lag=5)
        assert result.r is None
        assert result.undefined_reason == "zero_variance"

    def test_insufficient_overlap_flagged(self):
        short = _series("m", [1, 5, 2])
        result = lagged_correlation(short, short, max_lag=7)
        assert result.undefined_reason == "insufficient_overlap"

    def test_region_mismatch_rejected(self):
        with pytest.raises(ValueError):
            lagged_correlation(_series("a", [1] * 30), _series("b", [1] * 30))

    def test_series_validation(self):
        with pytest.raises(ValueError):
            TimeSeries(region="x", points=[(10.0, 1), (10.0, 2)])
        with pytest.raises(ValueError):
            TimeSeries(region="x", points=[(10.0, -1)])
        with pytest.raises(ValueError):
            TimeSeries(region="x", granularity="week")
        with pytest.raises(ValueError, match="integers"):
            TimeSeries(region="x", points=[(10.0, 1.5)])

    @pytest.mark.parametrize("granularity", ["minute", "month"])
    def test_only_daily_series(self, granularity):
        """Lagged correlation pairs days, so a series has no other granularity."""
        with pytest.raises(ValueError, match="unknown granularity"):
            TimeSeries(region="x", granularity=granularity)

    def test_day_counts_fill_gaps_as_zero(self):
        series = TimeSeries("m", points=[(T0, 4), (T0 + 3 * DAY, 2), (T0 + 5 * DAY, 7)])
        first = int(T0 // DAY)
        assert series.day_counts() == {first: 4, first + 3: 2, first + 5: 7}
        assert all(type(count) is int for count in series.day_counts().values())
        # a gap day correlates exactly as a day whose count is 0
        cases = _series("m", [1, 5, 2, 8, 3, 9])
        assert lagged_correlation(series, cases, max_lag=1) == lagged_correlation(
            _series("m", [4, 0, 0, 2, 0, 7]), cases, max_lag=1
        )
        # and so do the day counts the runner hands correlate_regions
        assert correlate_regions({"m": series.day_counts()}, {"m": cases.day_counts()}, max_lag=1) == [
            lagged_correlation(series, cases, max_lag=1)
        ]

    def test_days_floor_before_the_epoch(self):
        """Half a second either side of the epoch is two days, 1969-12-31
        and 1970-01-01, both in a series' day counts and in the runner's
        day index; truncating toward zero made them one."""
        from driftstream.pipeline.config import PipelineConfig
        from driftstream.pipeline.runner import PipelineRunner

        assert TimeSeries(region="m", points=[(-0.5, 3), (0.5, 4)]).day_counts() == {-1: 3, 0: 4}
        runner = PipelineRunner(PipelineConfig(archive="unused.jsonl"))
        for i, t in enumerate([-0.5, -0.5, -0.5, 0.5, 0.5, 0.5, 0.5]):
            runner._minute_buffers.add(t, make_enriched(post_id=i, created_at=t, locations=["m"]))
        runner._flush_minute_windows(upto=None)
        assert runner.table_counts.social_days() == {"m": {-1: 3, 0: 4}}

    def test_exact_tie_goes_to_the_smallest_lag(self):
        """Lags 0 and -1 give exactly equal r here; the documented rule picks
        lag 0. Float noise in a numpy corrcoef picked -1."""
        social = [3, 1, 0, 3, 1, 0, 2, 0, 1, 1, 3, 3, 2, 3, 3, 3, 0, 2, 3, 1, 3, 2, 2]
        cases = [3, 1, 3, 3, 3, 0, 1, 0, 2, 0, 2, 2, 0, 3, 2, 3, 1]
        result = lagged_correlation(
            _series("m", social), _series("m", cases, first_day=T0 + 3 * DAY), max_lag=1
        )
        assert (result.best_lag, round(result.r, 6), result.n) == (0, -0.168843, 17)
        assert _reference(social, 0, cases, 3, 1).r_signed_square == _reference_at(
            social, 0, cases, 3, -1
        )

    @settings(max_examples=300, deadline=None)
    @given(
        social=st.lists(st.integers(0, 3), max_size=20),
        cases=st.lists(st.integers(0, 3), max_size=20),
        offset=st.integers(-4, 4),
        max_lag=st.integers(0, 4),
    )
    def test_matches_an_exact_fraction_reference(self, social, cases, offset, max_lag):
        result = lagged_correlation(
            _series("m", social), _series("m", cases, first_day=T0 + offset * DAY), max_lag
        )
        ref = _reference(social, 0, cases, offset, max_lag)
        assert (result.best_lag, result.n, result.undefined_reason) == (
            ref.best_lag, ref.n, ref.undefined_reason
        )
        if ref.r is None:
            assert result.r is None
        else:
            assert round(result.r - ref.r, 6) == 0

    @settings(max_examples=300, deadline=None)
    @given(
        social=st.lists(st.tuples(st.integers(-40, 40), st.floats(0, 0.999), st.integers(0, 4)), max_size=16),
        cases=st.lists(st.tuples(st.integers(-40, 40), st.floats(0, 0.999), st.integers(0, 4)), max_size=16),
        max_lag=st.integers(0, 25),
    )
    @example(social=[(-1, 0.5, 3), (0, 0.5, 4), (3, 0.0, 1)], cases=[(-1, 0.0, 2), (1, 0.25, 0), (2, 0.0, 5)], max_lag=0)
    def test_sparse_days_equal_the_dense_algorithm(self, social, cases, max_lag):
        """The result over sparse day counts equals the dense algorithm's,
        field for field: gaps, zero counts, several points in one day, and
        fractional and negative epochs, at lags 0-25."""

        def series(points):
            times = {}
            for day, fraction, count in points:
                times.setdefault((day + fraction) * DAY, count)
            return TimeSeries("m", points=sorted(times.items()))

        a, b = series(social), series(cases)
        for x in (a, b):
            first, dense = _dense_days(x)
            nonzero = {first + i: count for i, count in enumerate(dense) if count}
            assert {day: count for day, count in x.day_counts().items() if count} == nonzero
        assert lagged_correlation(a, b, max_lag) == _dense_lagged_correlation(a, b, max_lag)

    @settings(max_examples=200, deadline=None)
    @given(
        social=st.dictionaries(st.sampled_from("abc"), DAY_COUNTS, max_size=3),
        cases=st.dictionaries(st.sampled_from("bcd"), DAY_COUNTS, max_size=3),
        max_lag=st.integers(0, 6),
    )
    def test_correlate_regions_equals_lagged_correlation(self, social, cases, max_lag):
        """The runner's day counts, handed straight to correlate_regions,
        give what lagged_correlation gives on the equivalent TimeSeries for
        each region both hold, in region order: negative and far-off day
        indexes, zero counts, and regions only one side holds."""

        def series(region, counts):
            return TimeSeries(region, points=[(day * DAY, count) for day, count in sorted(counts.items())])

        expected = [
            lagged_correlation(series(region, social[region]), series(region, cases[region]), max_lag)
            for region in sorted(social.keys() & cases.keys())
        ]
        assert correlate_regions(social, cases, max_lag) == expected

    @pytest.mark.parametrize("years", [(2019, 2020, 2021), (1, 2020, 9999)])
    def test_work_follows_the_points_not_the_span(self, monkeypatch, years):
        """Series of three points dated years apart: the days each Pearson
        sum receives, and the memory the correlation peaks at, stay those of
        three points, even over the 3.65M days from year 1 to 9999."""
        import tracemalloc

        received = []
        pearson_sums = correlation._pearson_sums

        def counted(*args):
            received.append(max(len(arg) for arg in args if not isinstance(arg, int)))
            return pearson_sums(*args)

        monkeypatch.setattr(correlation, "_pearson_sums", counted)
        points = [(parse_timestamp(f"{year:04d}-03-01T00:00:00Z"), 1) for year in years]
        tracemalloc.start()
        try:
            result = lagged_correlation(TimeSeries("m", points=points), TimeSeries("m", points=points))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        span = int(points[-1][0] // DAY) - int(points[0][0] // DAY) + 1
        assert (result.best_lag, result.r, result.n) == (0, 1.0, span)
        assert len(received) == 2 * correlation.DEFAULT_MAX_LAG_DAYS + 1
        assert max(received) <= 3
        assert peak < 64 * 1024


def _dense_days(series: TimeSeries) -> tuple[int, list[int]]:
    """(first day index, daily counts from the first day to the last, a gap
    filled with 0)."""
    if not series.points:
        return 0, []
    days = [int(t // DAY) for t, _ in series.points]
    counts = [0] * (days[-1] - days[0] + 1)
    for day, (_, count) in zip(days, series.points):
        counts[day - days[0]] += count
    return days[0], counts


def _dense_lagged_correlation(social, cases, max_lag) -> CorrelationResult:
    """The dense algorithm: each series as ``_dense_days``, and for each lag
    the exact integer Pearson sums over the two overlapping slices. Its work
    grows with the span between the first day and the last."""
    (s_first, s), (c_first, c) = _dense_days(social), _dense_days(cases)
    if not s or not c:
        return CorrelationResult(social.region, None, None, 0, "insufficient_overlap")
    overlap = min(s_first + len(s), c_first + len(c)) - max(s_first, c_first)
    if overlap < max_lag + MIN_POINTS:
        return CorrelationResult(social.region, None, None, max(overlap, 0), "insufficient_overlap")
    best, saw_zero_variance = None, False
    for lag in sorted(range(-max_lag, max_lag + 1), key=lambda l: (abs(l), l < 0)):
        lo = max(s_first, c_first - lag)
        hi = min(s_first + len(s), c_first + len(c) - lag)
        n = hi - lo
        if n < MIN_POINTS:
            continue
        xs = s[lo - s_first : hi - s_first]
        ys = c[lo + lag - c_first : hi + lag - c_first]
        sx, sy = sum(xs), sum(ys)
        sxx = n * sum(v * v for v in xs) - sx * sx
        syy = n * sum(v * v for v in ys) - sy * sy
        if sxx == 0 or syy == 0:
            saw_zero_variance = True
            continue
        sums = (n * sum(a * b for a, b in zip(xs, ys)) - sx * sy, sxx, syy)
        if best is None or _beats(sums, best[0]):
            best = (sums, lag, n)
    if best is None:
        reason = "zero_variance" if saw_zero_variance else "insufficient_overlap"
        return CorrelationResult(social.region, None, None, 0, reason)
    sums, lag, n = best
    return CorrelationResult(social.region, lag, _r(sums), n)


class _Reference:
    def __init__(self, best_lag=None, r=None, n=0, undefined_reason=None, r_signed_square=None):
        self.best_lag, self.r, self.n = best_lag, r, n
        self.undefined_reason, self.r_signed_square = undefined_reason, r_signed_square


def _reference_at(social, s_first, cases, c_first, lag):
    """Signed square r·|r| of social day d against cases day d+lag, as an
    exact Fraction from centred sums; None if fewer than 3 pairs or a
    series is flat over them."""
    pairs = [
        (x, cases[d + lag - c_first])
        for d, x in enumerate(social, s_first)
        if 0 <= d + lag - c_first < len(cases)
    ]
    if len(pairs) < 3:
        return None
    mx = Fraction(sum(x for x, _ in pairs), len(pairs))
    my = Fraction(sum(y for _, y in pairs), len(pairs))
    cov = sum((x - mx) * (y - my) for x, y in pairs)
    var_x = sum((x - mx) ** 2 for x, _ in pairs)
    var_y = sum((y - my) ** 2 for _, y in pairs)
    if var_x == 0 or var_y == 0:
        return "flat"
    return cov * abs(cov) / (var_x * var_y)


def _reference(social, s_first, cases, c_first, max_lag) -> _Reference:
    """The module's documented rule, restated over exact Fractions: the
    largest r wins, ties go to the smallest |lag|, then the positive one."""
    if not social or not cases:
        return _Reference(undefined_reason="insufficient_overlap")
    overlap = min(s_first + len(social), c_first + len(cases)) - max(s_first, c_first)
    if overlap < max_lag + 3:
        return _Reference(n=max(overlap, 0), undefined_reason="insufficient_overlap")
    scored = []
    saw_flat = False
    for lag in range(-max_lag, max_lag + 1):
        value = _reference_at(social, s_first, cases, c_first, lag)
        if value == "flat":
            saw_flat = True
        elif value is not None:
            scored.append((value, -abs(lag), lag > 0, lag))
    if not scored:
        reason = "zero_variance" if saw_flat else "insufficient_overlap"
        return _Reference(undefined_reason=reason)
    value, _, _, lag = max(scored)
    n = sum(1 for d in range(s_first, s_first + len(social)) if 0 <= d + lag - c_first < len(cases))
    r = math.copysign(math.sqrt(abs(value)), value)
    return _Reference(lag, r, n, None, value)
