"""Location extraction: gazetteer lookup plus a short-term location cache.

The gazetteer handles the names known up front. Authoritative case reports
feed their regions into the cache, where each stays live for a TTL after
its latest report, so places currently reporting cases are recognized in
posts even before the gazetteer knows them. Extraction only reads the
cache: it does not remember gazetteer hits, which the gazetteer matches
anyway.

Each location is normalized once, where it enters: gazetteer names, cache
inserts, case-report regions, evidence and event clusters.
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from ..timeutil import DAY, parse_timestamp

_WHITESPACE = re.compile(r"\s+")

DEFAULT_CACHE_TTL = 7 * DAY  # "short-term": one simulated week


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

    def lookup(self, lowered: str) -> set[str]:
        """Names found in ``lowered``, a post text already lowercased."""
        return {name for name in self.names if name in lowered}

    def __len__(self) -> int:
        return len(self.names)


class LocationCache:
    """Case-report regions with TTL expiry: ``location -> last_seen``.

    An entry stops matching once unseen for longer than ``ttl``. An entry
    whose last_seen is in the future (a case report dated ahead of the
    stream) does not match yet.
    """

    def __init__(self, ttl: float = DEFAULT_CACHE_TTL):
        self.ttl = ttl
        self._lock = threading.Lock()
        self._entries: dict[str, float] = {}

    def insert(self, location: str, now: float) -> None:
        normalized = normalize_location(location)
        if not normalized:
            return
        with self._lock:
            self._entries[normalized] = max(now, self._entries.get(normalized, now))

    def match(self, lowered: str, now: float) -> set[str]:
        """Live entries found in ``lowered``, a post text already lowercased."""
        ttl = self.ttl
        with self._lock:
            return {
                loc
                for loc, last_seen in self._entries.items()
                if loc in lowered and last_seen <= now and now - last_seen <= ttl
            }

    def __len__(self) -> int:
        return len(self._entries)


def extract_locations(
    lowered: str,
    gazetteer: Gazetteer,
    cache: LocationCache,
    now: float,
) -> list[str]:
    """Locations mentioned in ``lowered`` (a post text already lowercased):
    gazetteer hits plus live cache hits. Writes nothing."""
    return sorted(gazetteer.lookup(lowered) | cache.match(lowered, now))


@dataclass
class CaseReport:
    date: float  # UTC epoch seconds of the report day
    region: str
    new_cases: int
    source: str = ""

    def __post_init__(self):
        self.region = normalize_location(self.region)

    @classmethod
    def from_json_line(cls, line: str) -> "CaseReport":
        obj = json.loads(line)
        return cls(
            date=parse_timestamp(obj["date"]),
            region=obj.get("region", ""),
            new_cases=int(obj.get("new_cases", 0)),
            source=obj.get("source", ""),
        )


def absorb_authoritative_locations(report: CaseReport, cache: LocationCache) -> bool:
    """Feed a case report's region into the cache. False if region empty."""
    if not report.region:
        return False
    cache.insert(report.region, report.date)
    return True


def load_case_reports(path: str | Path) -> list[CaseReport]:
    reports = []
    with open(Path(path), "r", encoding="utf-8") as f:
        for line in f:
            if line.strip():
                reports.append(CaseReport.from_json_line(line))
    return reports
