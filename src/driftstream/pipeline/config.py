"""Pipeline configuration: one declarative file wiring every stage.

YAML or JSON, with environment-variable overrides for scalar fields
(DRIFTSTREAM_SEED, DRIFTSTREAM_ARCHIVE, DRIFTSTREAM_OUT_DIR,
DRIFTSTREAM_SPEED). Validation reports every broken field at once, by name,
instead of dying on the first.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from ..keywords import DEFAULT_SEED_KEYWORDS
from ..misinfo.keywords import DEFAULT_MISINFO_SEEDS
from ..sources.archive import parse_speed
from ..sources.feeds import timestamp
from ..timeutil import DAY, HOUR, MINUTE

DEFAULT_AUTHORITATIVE_SOURCES = (
    "who.int",
    "cdc.gov",
    "jhu.edu",
    "nytimes.com",
    "cnn.com",
)

class ConfigError(ValueError):
    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("; ".join(errors))


@dataclass
class KeywordConfig:
    seeds: tuple[str, ...] = DEFAULT_SEED_KEYWORDS
    match_mode: str = "substring"
    tracked_phrases: tuple[str, ...] = ()
    retweet_ttl: float = 24 * HOUR


@dataclass
class DriftConfig:
    enabled: bool = True
    window: float = 60 * MINUTE
    slide: float = 10 * MINUTE
    min_count: int = 25
    min_score: float = 0.7
    scorer: str = "pmi"
    trending_k: int = 10


@dataclass
class EnrichmentConfig:
    gazetteer: tuple[str, ...] = ()
    gazetteer_file: Optional[str] = None
    sentiment_lexicon_file: Optional[str] = None
    group_lexicons_file: Optional[str] = None
    location_cache_ttl: float = 7 * DAY


@dataclass
class MisinfoConfig:
    seeds: tuple[str, ...] = DEFAULT_MISINFO_SEEDS
    sources: tuple[dict, ...] = ()
    refresh_interval: float = 60 * MINUTE
    window: float = MINUTE
    piggyback_threshold: float = 0.7
    tombstones: tuple[str, ...] = ()


@dataclass
class ClusterConfig:
    window: float = 60 * MINUTE
    min_size: int = 3
    lag_tolerance: float = 14 * DAY
    eta: float = 0.5


@dataclass
class PipelineConfig:
    seed: int
    archive: str
    out_dir: str = "reports"
    speed: Any = "max"
    until: Optional[float] = None
    keywords: KeywordConfig = field(default_factory=KeywordConfig)
    drift: DriftConfig = field(default_factory=DriftConfig)
    enrichment: EnrichmentConfig = field(default_factory=EnrichmentConfig)
    misinfo: MisinfoConfig = field(default_factory=MisinfoConfig)
    clusters: ClusterConfig = field(default_factory=ClusterConfig)
    authoritative: tuple[str, ...] = DEFAULT_AUTHORITATIVE_SOURCES
    evidence_feed: Optional[str] = None
    case_feed: Optional[str] = None
    max_lag_days: int = 21


def _get(data: dict, key: str, default):
    value = data.get(key)
    return default if value is None else value


class _Fractional(ValueError):
    """A number where an integer is required."""


def _integer(value) -> int:
    """``value`` as an int: an int, an integral float, or a string of either.

    A fraction raises ``_Fractional``; anything else that is not a number
    raises ``TypeError`` or ``ValueError`` from the conversion.
    """
    if isinstance(value, int):
        return int(value)
    number = float(value)
    if not number.is_integer():
        raise _Fractional(value)
    return int(number)


def parse_config(data: dict, base_dir: Optional[Path] = None) -> PipelineConfig:
    """Build and validate a PipelineConfig from parsed file data."""
    errors: list[str] = []
    base = base_dir or Path.cwd()

    def resolve(p: Optional[str]) -> Optional[str]:
        if p is None:
            return None
        path = Path(p)
        return str(path if path.is_absolute() else base / path)

    def number(section: dict, name: str, default, convert=float):
        """``convert`` of the field ``name`` (``default`` when unset); a value
        that does not convert is reported by name and ``default`` stands in."""
        value = _get(section, name.rpartition(".")[2], default)
        try:
            return convert(value)
        except _Fractional:
            errors.append(f"{name}: must be an integer, got {value!r}")
        except (TypeError, ValueError):
            errors.append(f"{name}: must be a number, got {value!r}")
        return default

    def strings(section: dict, name: str, default: tuple[str, ...]) -> tuple[str, ...]:
        """The field ``name`` as a tuple (``default`` when unset); a value
        that is not a list of non-blank strings is reported by name and
        ``default`` stands in."""
        value = _get(section, name.rpartition(".")[2], default)
        if isinstance(value, (list, tuple)) and all(isinstance(v, str) and v.strip() for v in value):
            return tuple(value)
        errors.append(f"{name}: must be a list of non-blank strings, got {value!r}")
        return default

    env = os.environ
    seed = env.get("DRIFTSTREAM_SEED", data.get("seed"))
    if seed is None:
        errors.append("seed: required for reproducible runs")
        seed = 0
    else:
        try:
            seed = int(seed)
        except (TypeError, ValueError):
            errors.append(f"seed: must be an integer, got {seed!r}")
            seed = 0

    archive = env.get("DRIFTSTREAM_ARCHIVE", data.get("archive"))
    if not archive:
        errors.append("archive: required")
        archive = ""
    else:
        archive = resolve(str(archive))
        if not Path(archive).is_file():
            errors.append(f"archive: file not found: {archive}")

    out_dir = env.get("DRIFTSTREAM_OUT_DIR", _get(data, "out_dir", "reports"))
    try:
        speed = parse_speed(env.get("DRIFTSTREAM_SPEED", _get(data, "speed", "max")))
    except ValueError as exc:
        errors.append(f"speed: {exc}")
        speed = "max"

    kw = data.get("keywords", {}) or {}
    keywords = KeywordConfig(
        seeds=strings(kw, "keywords.seeds", DEFAULT_SEED_KEYWORDS),
        match_mode=_get(kw, "match_mode", "substring"),
        tracked_phrases=strings(kw, "keywords.tracked_phrases", ()),
        retweet_ttl=number(kw, "keywords.retweet_ttl_hours", 24) * HOUR,
    )
    if keywords.match_mode not in ("substring", "token"):
        errors.append(f"keywords.match_mode: must be substring or token, got {keywords.match_mode!r}")
    if not keywords.seeds:
        errors.append("keywords.seeds: must be non-empty")
    if not keywords.retweet_ttl > 0:  # also rejects NaN
        errors.append("keywords.retweet_ttl_hours: must be > 0")

    dr = data.get("drift", {}) or {}
    drift = DriftConfig(
        enabled=bool(_get(dr, "enabled", True)),
        window=number(dr, "drift.window_minutes", 60) * MINUTE,
        slide=number(dr, "drift.slide_minutes", 10) * MINUTE,
        min_count=number(dr, "drift.min_count", 25, _integer),
        min_score=number(dr, "drift.min_score", 0.7),
        scorer=_get(dr, "scorer", "pmi"),
        trending_k=number(dr, "drift.trending_k", 10, _integer),
    )
    if drift.scorer not in ("pmi", "jaccard"):
        errors.append(f"drift.scorer: must be pmi or jaccard, got {drift.scorer!r}")
    if drift.window <= 0 or drift.slide <= 0 or drift.window % drift.slide != 0:
        errors.append("drift: window_minutes must be a positive multiple of slide_minutes")
    if drift.min_count < 1:
        errors.append("drift.min_count: must be >= 1")
    if not drift.min_score > 0:  # also rejects NaN
        errors.append("drift.min_score: must be > 0")

    en = data.get("enrichment", {}) or {}
    enrichment = EnrichmentConfig(
        gazetteer=strings(en, "enrichment.gazetteer", ()),
        gazetteer_file=resolve(en.get("gazetteer_file")),
        sentiment_lexicon_file=resolve(en.get("sentiment_lexicon_file")),
        group_lexicons_file=resolve(en.get("group_lexicons_file")),
        location_cache_ttl=number(en, "enrichment.location_cache_ttl_days", 7) * DAY,
    )
    if not enrichment.location_cache_ttl >= 0:  # also rejects NaN
        errors.append("enrichment.location_cache_ttl_days: must be >= 0")
    for name in ("gazetteer_file", "sentiment_lexicon_file", "group_lexicons_file"):
        path = getattr(enrichment, name)
        if path is not None and not Path(path).is_file():
            errors.append(f"enrichment.{name}: file not found: {path}")

    mi = data.get("misinfo", {}) or {}
    sources = _get(mi, "sources", [])
    if not isinstance(sources, (list, tuple)):
        errors.append(f"misinfo.sources: must be a list of mappings, got {sources!r}")
        sources = []
    descriptors = []
    for i, src in enumerate(sources):
        name = f"misinfo.sources[{i}]"
        if not isinstance(src, dict):
            errors.append(f"{name}: must be a mapping, got {src!r}")
            continue
        kind = src.get("kind", "terms_file")
        if kind not in ("terms_file", "headlines"):
            errors.append(f"{name}.kind: must be terms_file or headlines, got {kind!r}")
        path = resolve(src.get("path"))
        if not path:
            errors.append(f"{name}.path: required")
        elif not Path(path).is_file():
            errors.append(f"{name}.path: file not found: {path}")
        src = {**src, "path": path}
        if "sections" in src:
            src["sections"] = strings(src, f"{name}.sections", ("conspiracy",))
        descriptors.append(src)
    misinfo = MisinfoConfig(
        seeds=strings(mi, "misinfo.seeds", DEFAULT_MISINFO_SEEDS),
        sources=tuple(descriptors),
        refresh_interval=number(mi, "misinfo.refresh_interval_minutes", 60) * MINUTE,
        window=number(mi, "misinfo.window_seconds", 60),
        piggyback_threshold=number(mi, "misinfo.piggyback_threshold", 0.7),
        tombstones=strings(mi, "misinfo.tombstones", ()),
    )
    if not misinfo.window > 0:  # also rejects NaN
        errors.append("misinfo.window_seconds: must be > 0")
    if not misinfo.refresh_interval > 0:  # also rejects NaN
        errors.append("misinfo.refresh_interval_minutes: must be > 0")
    if not misinfo.piggyback_threshold > 0:  # also rejects NaN; every score is >= 0
        errors.append("misinfo.piggyback_threshold: must be > 0")

    cl = data.get("clusters", {}) or {}
    clusters = ClusterConfig(
        window=number(cl, "clusters.window_minutes", 60) * MINUTE,
        min_size=number(cl, "clusters.min_size", 3, _integer),
        lag_tolerance=number(cl, "clusters.lag_tolerance_days", 14) * DAY,
        eta=number(cl, "clusters.eta", 0.5),
    )
    if clusters.min_size < 1:
        errors.append("clusters.min_size: must be >= 1")
    if not clusters.lag_tolerance >= 0:  # also rejects NaN
        errors.append("clusters.lag_tolerance_days: must be >= 0")
    if not clusters.eta > 0:  # also rejects NaN
        errors.append("clusters.eta: must be > 0")

    authoritative = strings(data, "authoritative", DEFAULT_AUTHORITATIVE_SOURCES)
    if not authoritative:
        errors.append("authoritative: must be non-empty")

    evidence_feed = resolve(data.get("evidence_feed"))
    if evidence_feed is not None and not Path(evidence_feed).is_file():
        errors.append(f"evidence_feed: file not found: {evidence_feed}")
    case_feed = resolve(data.get("case_feed"))
    if case_feed is not None and not Path(case_feed).is_file():
        errors.append(f"case_feed: file not found: {case_feed}")

    until = data.get("until")
    if until is not None:
        try:
            until = timestamp(until)
        except (TypeError, ValueError) as exc:
            errors.append(f"until: {exc}")
            until = None

    max_lag_days = number(data, "max_lag_days", 21, _integer)

    if errors:
        raise ConfigError(errors)

    return PipelineConfig(
        seed=seed,
        archive=archive,
        out_dir=str(out_dir),
        speed=speed,
        until=until,
        keywords=keywords,
        drift=drift,
        enrichment=enrichment,
        misinfo=misinfo,
        clusters=clusters,
        authoritative=authoritative,
        evidence_feed=evidence_feed,
        case_feed=case_feed,
        max_lag_days=max_lag_days,
    )


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError([f"config: unreadable: {exc}"]) from exc
    if path.suffix == ".json":
        data = json.loads(text)
    else:
        import yaml  # here, so that a JSON config never loads it

        data = yaml.safe_load(text)
    if not isinstance(data, dict):
        raise ConfigError(["config: top level must be a mapping"])
    return parse_config(data, base_dir=path.parent)
