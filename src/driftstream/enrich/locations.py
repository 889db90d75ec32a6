"""Location extraction: gazetteer lookup plus the regions reporting cases.

The gazetteer handles the names known up front. Authoritative case reports
name regions, each live for a TTL after its latest report, so places
currently reporting cases are recognized in posts even before the
gazetteer knows them. The case feed is read before the stream, so those
regions are fixed ``(region, last_seen)`` entries built once, beside the
gazetteer. A post's locations are its gazetteer hits plus the regions
live at its event time (``Lexicons.locations``).

Each location is normalized once, where it enters: gazetteer names,
case-report regions, evidence and event clusters.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from ..sources.feeds import feed_field, read_feed, text
from ..timeutil import parse_timestamp

_WHITESPACE = re.compile(r"\s+")


def normalize_location(name: str) -> str:
    """Lowercase, trim, collapse internal whitespace."""
    return _WHITESPACE.sub(" ", name.strip().lower())


class Gazetteer:
    def __init__(self, names: Iterable[str] = ()):
        unique: dict[str, None] = {}
        for name in names:
            normalized = normalize_location(name)
            if not normalized:
                raise ValueError("gazetteer names must be non-empty")
            unique[normalized] = None
        self.names: tuple[str, ...] = tuple(unique)


@dataclass
class CaseReport:
    date: float  # UTC epoch seconds of the report day
    region: str
    new_cases: int
    source: str = ""

    def __post_init__(self):
        self.region = normalize_location(self.region)


def case_regions(reports: Iterable[CaseReport]) -> tuple[tuple[str, float], ...]:
    """One ``(region, last_seen)`` entry per region the ``reports`` name,
    ``last_seen`` being its latest report date; a report with an empty
    region names none."""
    last_seen: dict[str, float] = {}
    for report in reports:
        if report.region:
            last_seen[report.region] = max(report.date, last_seen.get(report.region, report.date))
    return tuple(last_seen.items())


def load_case_reports(path: str | Path) -> list[CaseReport]:
    """Every report in a case feed; a malformed line raises a FeedError
    naming the file, line and field."""
    return read_feed(path, _case_report)


def _case_report(obj: dict, number: int) -> CaseReport:
    return CaseReport(
        date=feed_field(obj, "date", parse_timestamp),
        region=feed_field(obj, "region", text, ""),
        new_cases=feed_field(obj, "new_cases", _case_count, 0),
        source=feed_field(obj, "source", text, ""),
    )


def _case_count(value) -> int:
    # a JSON integer >= 0: nothing downstream checks it, and the correlation would read it as is
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"expected a whole number of cases >= 0, got {value!r}")
    return value
