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
from collections import Counter
from pathlib import Path
from typing import Iterable, Sequence

from ..sources.posts import Post
from ..timeutil import DAY, day_key, month_key

DIMENSIONS = ("month", "language", "region_day", "topic_region_day")


class TableCounts:
    """The count tables, fed one post at a time by ``run`` and ``report``.

    Every post counts once in every table, so each table sums to the number
    of posts added. A post with several locations counts under its first
    (sorted) one, and a post with no location or topic group under "none".
    Day and month keys are derived once per UTC day and cached.
    """

    def __init__(self):
        self._day_keys: dict[float, tuple[str, str]] = {}  # epoch // DAY -> (day, month)
        self.month: Counter = Counter()
        self.language: Counter = Counter()
        self.region_day: Counter = Counter()
        self.topic_region_day: Counter = Counter()

    def add(self, post: Post, locations: Sequence[str] = (), topic_groups: Iterable[str] = ()) -> None:
        created = post.created_at
        keys = self._day_keys.get(created // DAY)
        if keys is None:
            keys = self._day_keys[created // DAY] = (day_key(created), month_key(created))
        day, month = keys
        self.month[month] += 1
        self.language[post.lang] += 1
        region = locations[0] if locations else "none"
        self.region_day[(region, day)] += 1
        groups = "+".join(sorted(topic_groups)) if topic_groups else "none"
        self.topic_region_day[(groups, region, day)] += 1

    def as_tables(self, names: Iterable[str] = DIMENSIONS) -> dict[str, dict]:
        """The named tables as plain dicts, in the form ``emit_report`` takes."""
        tables = {}
        for name in names:
            if name not in DIMENSIONS:
                raise ValueError(f"unknown dimension {name!r}, expected one of {DIMENSIONS}")
            tables[name] = dict(getattr(self, name))
        return tables


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
