"""Dataset statistics tables and deterministic report files.

Every file of the report bundle is written here, by one of three writers
(``write_csv``, ``write_jsonl``, ``write_json``): UTF-8, newline-terminated
lines, sorted JSON keys and a trailing newline.

The month and language tables mirror the shape of the collection-summary
tables the report bundle is compared against: month/count, and
language/count/pct with the percentage floored to one decimal so the
column never sums past 100.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter, defaultdict
from pathlib import Path
from typing import Iterable, Sequence

from ..sources.posts import Post
from ..timeutil import DAY, day_key

DIMENSIONS = ("month", "language", "region_day", "topic_region_day")


class TableCounts:
    """The count tables, fed one post at a time by ``run`` and ``report``.

    A post is counted once by language and once by its topic groups,
    locations, day index ``t // DAY`` and whether it is social (relevant and
    untagged). The other tables and the social series are rolled up from
    that count when read, as in a data cube (Gray et al., 1997).

    Every post counts once in every table, so each table sums to the number
    of posts added. A post with several locations counts under its first
    (sorted) one, and a post with no location or topic group under "none".
    """

    def __init__(self):
        self.language: Counter = Counter()
        self.posts: Counter = Counter()  # (topic groups, locations, day index, social) -> posts

    def add(self, post: Post, locations: Sequence[str] = (), topic_groups: Iterable[str] = (), social=False) -> None:
        self.language[post.lang] += 1
        self.posts[(frozenset(topic_groups), tuple(locations), post.created_at // DAY, social)] += 1

    def as_tables(self, names: Iterable[str] = DIMENSIONS) -> dict[str, dict]:
        """The named tables as plain dicts, in the form ``emit_report`` takes."""
        tables = {"month": Counter(), "language": self.language, "region_day": Counter(), "topic_region_day": Counter()}
        days, groups = {}, {}  # each day index and topic-group set, rendered once
        for (topic_groups, locations, day_index, _), count in self.posts.items():
            if day_index not in days:
                days[day_index] = day_key(day_index * DAY)
            if topic_groups not in groups:
                groups[topic_groups] = "+".join(sorted(topic_groups)) or "none"
            day, region = days[day_index], locations[0] if locations else "none"
            tables["month"][day[:7]] += count
            tables["region_day"][(region, day)] += count
            tables["topic_region_day"][(groups[topic_groups], region, day)] += count
        try:
            return {name: dict(tables[name]) for name in names}
        except KeyError as exc:
            raise ValueError(f"unknown dimension {exc.args[0]!r}, expected one of {DIMENSIONS}") from None

    def social_days(self) -> dict[str, Counter]:
        """Social posts by region and day index ``int(t // DAY)``, under each
        of a post's locations: the series ``correlate_regions`` pairs with
        the case counts."""
        days: dict[str, Counter] = defaultdict(Counter)
        for (_, locations, day, social), count in self.posts.items():
            if social:
                for location in locations:
                    days[location][int(day)] += count
        return dict(days)


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """``header`` and then ``rows``, one CSV line each. A lone surrogate,
    which a JSON ``\\u`` escape can put in a post's ``lang``, is written as
    its backslash escape, since UTF-8 cannot encode it."""
    with open(path, "w", encoding="utf-8", errors="backslashreplace", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_jsonl(path: Path, objects: Iterable) -> Path:
    """One key-sorted JSON object per line."""
    with open(path, "w", encoding="utf-8") as f:
        for obj in objects:
            f.write(json.dumps(obj, sort_keys=True) + "\n")
    return path


def write_json(path: Path, obj) -> Path:
    """``obj`` as key-sorted JSON indented by 2, then a newline.

    Streamed to the file, with the bytes of ``json.dumps``: with ``indent``
    set, both run the same pure-Python encoder, but no whole string is built.
    """
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def emit_report(tables: dict[str, dict], results: list, out_dir: str | Path) -> list[Path]:
    """Write the stats tables and correlation results; returns the paths.

    Output is byte-deterministic: fixed orderings, fixed float formatting,
    nothing derived from wall-clock time.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    if "month" in tables:
        written.append(write_csv(out / "month.csv", ["month", "count"], sorted(tables["month"].items())))

    if "language" in tables:
        total = sum(tables["language"].values())
        ranked = sorted(tables["language"].items(), key=lambda kv: (-kv[1], kv[0]))
        rows = []
        for lang, count in ranked:
            pct = math.floor(count * 1000.0 / total) / 10.0 if total else 0.0
            rows.append([lang, count, f"{pct:.1f}"])
        written.append(write_csv(out / "languages.csv", ["language", "count", "pct"], rows))

    if "region_day" in tables:
        rows = ((r, d, c) for (r, d), c in sorted(tables["region_day"].items()))
        written.append(write_csv(out / "region_day.csv", ["region", "day", "count"], rows))

    if "topic_region_day" in tables:
        rows = ((g, r, d, c) for (g, r, d), c in sorted(tables["topic_region_day"].items()))
        written.append(
            write_csv(out / "topic_region_day.csv", ["topic_groups", "region", "day", "count"], rows)
        )

    if results:
        objects = (result.to_json_obj() for result in results)
        written.append(write_jsonl(out / "correlation.jsonl", objects))

    return written
