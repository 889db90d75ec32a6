"""Pipeline configuration: one declarative file wiring every stage.

Each setting is declared once, on its dataclass field below: its key in the
file, its default in file units, the unit it is scaled by, its converter
and its range. ``parse_config`` reads every setting through that
declaration. YAML or JSON; DRIFTSTREAM_ARCHIVE and DRIFTSTREAM_OUT_DIR
override the file, and the command-line flags override both, before
anything is checked, so every value passes the same checks. Validation
reports every broken setting at once, by name, instead of dying on the
first. Keys the file sets that no setting declares, such as the retired
``speed``, are ignored.

Every input file of a run is such a setting: the required ``archive``, the
two feeds, and each entry of ``misinfo.sources``, a ``MisinfoSource``
record whose fields are declared the same way.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Optional

from ..keywords import DEFAULT_SEED_KEYWORDS, TOKEN_RE, normalize_term
from ..misinfo.keywords import DEFAULT_MISINFO_SEEDS
from ..sources.feeds import timestamp
from ..timeutil import DAY, HOUR, MINUTE

DEFAULT_AUTHORITATIVE_SOURCES = (
    "who.int",
    "cdc.gov",
    "jhu.edu",
    "nytimes.com",
    "cnn.com",
)

# Top-level keys that a DRIFTSTREAM_<KEY> environment variable overrides.
_ENV_KEYS = ("archive", "out_dir")


class ConfigError(ValueError):
    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("; ".join(errors))


# -- converters: each takes a file value and returns the setting's value, or
# raises ValueError saying what is wrong with it ------------------------------


def _number(value) -> float:
    try:
        if isinstance(value, bool):  # true and YAML's yes would read as 1
            raise TypeError
        return float(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int beyond every float
        raise ValueError(f"must be a number, got {value!r}") from None


def _finite(value) -> float:
    """A number other than ±inf, for a length that must end; JSON's 1e400
    loads as inf. (NaN is left to the range check.)"""
    number = _number(value)
    if math.isinf(number):
        raise ValueError(f"must be finite, got {value!r}")
    return number


def _whole(value) -> int:
    """An int, an integral float, or a string of either; not a bool."""
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    number = _number(value)
    if not number.is_integer():
        raise ValueError(f"must be an integer, got {value!r}")
    return int(number)


def _flag(value) -> bool:
    if not isinstance(value, bool):  # a string "false" would read as true
        raise ValueError(f"must be true or false, got {value!r}")
    return value


def _strings(value) -> tuple[str, ...]:
    """A list of non-blank strings; a scalar is not split into characters."""
    if isinstance(value, (list, tuple)) and all(isinstance(v, str) and v.strip() for v in value):
        return tuple(value)
    raise ValueError(f"must be a list of non-blank strings, got {value!r}")


def _terms(value) -> tuple[str, ...]:
    """A list of non-blank strings, each as ``normalize_term`` writes it,
    the spelling the lowered post text is searched for."""
    return tuple(map(normalize_term, _strings(value)))


def _nonempty_strings(value) -> tuple[str, ...]:
    strings = _strings(value)
    if not strings:
        raise ValueError("must be non-empty")
    return strings


def _one_of(*choices: str) -> Callable[[Any], str]:
    def choice(value) -> str:
        if value not in choices:
            raise ValueError(f"must be {' or '.join(choices)}, got {value!r}")
        return value

    return choice


def _file(value) -> str:
    """A file path: ``parse_config`` resolves it against the config file's
    directory and requires the file to exist."""
    return str(value)


def _setting(
    key: str,
    default: Any = MISSING,
    convert: Callable[[Any], Any] = str,
    unit: Optional[float] = None,
    gt: Optional[float] = None,
    ge: Optional[float] = None,
):
    """The one declaration of a setting: its ``key`` in the file, its
    ``default`` in file units (none: the setting is required, and an unset
    or empty value is refused), the ``unit`` (seconds) a file value is
    scaled by, the converter of a file value, and its range (``> gt``,
    ``>= ge``). A dataclass as the converter makes the setting a list of
    mappings, each read into one such record."""
    return field(
        default=default if unit is None else default * unit,
        metadata={"key": key, "convert": convert, "unit": unit, "gt": gt, "ge": ge},
    )


def _value(spec, value):
    """``value`` as ``spec`` declares it: converted, range-checked, scaled."""
    value = spec["convert"](value)
    if spec["gt"] is not None and not value > spec["gt"]:  # also rejects NaN
        raise ValueError(f"must be > {spec['gt']}")
    if spec["ge"] is not None and not value >= spec["ge"]:
        raise ValueError(f"must be >= {spec['ge']}")
    return value if spec["unit"] is None else value * spec["unit"]


@dataclass
class KeywordConfig:
    seeds: tuple[str, ...] = _setting("seeds", DEFAULT_SEED_KEYWORDS, _nonempty_strings)
    match_mode: str = _setting("match_mode", "substring", _one_of("substring", "token"))
    tracked_phrases: tuple[str, ...] = _setting("tracked_phrases", (), _terms)
    retweet_ttl: float = _setting("retweet_ttl_hours", 24, _number, HOUR, gt=0)


@dataclass
class DriftConfig:
    enabled: bool = _setting("enabled", True, _flag)
    # window and slide: parse_config checks that window is a positive multiple of slide
    window: float = _setting("window_minutes", 60, _number, MINUTE)
    slide: float = _setting("slide_minutes", 10, _number, MINUTE)
    min_count: int = _setting("min_count", 25, _whole, ge=1)
    min_score: float = _setting("min_score", 0.7, _number, gt=0)
    scorer: str = _setting("scorer", "pmi", _one_of("pmi", "jaccard"))
    trending_k: int = _setting("trending_k", 10, _whole, ge=0)


@dataclass
class EnrichmentConfig:
    gazetteer: tuple[str, ...] = _setting("gazetteer", (), _strings)
    location_cache_ttl: float = _setting("location_cache_ttl_days", 7, _number, DAY, ge=0)


@dataclass
class MisinfoSource:
    """One file of misinformation terms: a JSON ``{"terms": [...]}``, or a
    document whose headlines in ``sections`` are distilled into phrases."""

    path: str = _setting("path", convert=_file)
    kind: str = _setting("kind", "terms_file", _one_of("terms_file", "headlines"))
    sections: tuple[str, ...] = _setting("sections", ("conspiracy",), _strings)


@dataclass
class MisinfoConfig:
    seeds: tuple[str, ...] = _setting("seeds", DEFAULT_MISINFO_SEEDS, _strings)
    sources: tuple[MisinfoSource, ...] = _setting("sources", (), MisinfoSource)
    window: float = _setting("window_seconds", 60.0, _finite, gt=0)
    # every score is >= 0, so a threshold <= 0 would flag every trending term
    piggyback_threshold: float = _setting("piggyback_threshold", 0.7, _number, gt=0)
    tombstones: tuple[str, ...] = _setting("tombstones", (), _strings)


@dataclass
class ClusterConfig:
    window: float = _setting("window_minutes", 60, _finite, MINUTE, gt=0)
    min_size: int = _setting("min_size", 3, _whole, ge=1)
    lag_tolerance: float = _setting("lag_tolerance_days", 14, _number, DAY, ge=0)
    eta: float = _setting("eta", 0.5, _number, gt=0)


@dataclass
class PipelineConfig:
    archive: str = _setting("archive", convert=_file)
    out_dir: str = _setting("out_dir", "reports")
    until: Optional[float] = _setting("until", None, timestamp)
    keywords: KeywordConfig = field(default_factory=KeywordConfig)
    drift: DriftConfig = field(default_factory=DriftConfig)
    enrichment: EnrichmentConfig = field(default_factory=EnrichmentConfig)
    misinfo: MisinfoConfig = field(default_factory=MisinfoConfig)
    clusters: ClusterConfig = field(default_factory=ClusterConfig)
    authoritative: tuple[str, ...] = _setting("authoritative", DEFAULT_AUTHORITATIVE_SOURCES, _nonempty_strings)
    evidence_feed: Optional[str] = _setting("evidence_feed", None, _file)
    case_feed: Optional[str] = _setting("case_feed", None, _file)
    max_lag_days: int = _setting("max_lag_days", 21, _whole, ge=0)


def parse_config(
    data: dict, base_dir: Optional[Path] = None, overrides: Optional[dict] = None
) -> PipelineConfig:
    """Build and validate a PipelineConfig from parsed file data, overlaid
    first by the DRIFTSTREAM_* environment and then by ``overrides`` (the
    command-line flags; a None value is unset). A None anywhere means the
    setting is unset and its default stands."""
    env = {key: os.environ.get(f"DRIFTSTREAM_{key.upper()}") for key in _ENV_KEYS}
    for layer in (env, overrides or {}):
        data = {**data, **{key: value for key, value in layer.items() if value is not None}}
    base = base_dir or Path.cwd()
    errors: list[str] = []

    def checked(name: str, convert: Callable[[Any], Any], value):
        """``convert(value)``; None, with the failure reported by name, when it fails."""
        try:
            return convert(value)
        except (TypeError, ValueError) as exc:
            errors.append(f"{name}: {exc}")
            return None

    def existing(value) -> str:
        path = base / str(value)  # an absolute value replaces base
        try:
            found = path.is_file()
        except OSError as exc:  # a name the OS refuses, such as one too long
            raise ValueError(f"unusable path ({exc.strerror}): {str(path)!r}") from None
        if not found:
            raise ValueError(f"file not found: {str(path)!r}")
        return str(path)

    def records(cls, name: str, items) -> tuple:
        """Each mapping of the list ``items`` read into a ``cls``; a broken
        one is reported by its index."""
        if not isinstance(items, (list, tuple)):
            raise ValueError(f"must be a list of mappings, got {items!r}")
        read_items = []
        for i, item in enumerate(items):
            if not isinstance(item, dict):
                errors.append(f"{name}[{i}]: must be a mapping, got {item!r}")
                continue
            values = read(cls, item, f"{name}[{i}].")
            if not errors:  # else parse_config raises, and builds no record
                read_items.append(cls(**values))
        return tuple(read_items)

    def read(cls, raw: dict, prefix: str = "") -> dict:
        """The declared settings of ``cls`` that ``raw`` sets, each read as
        declared; a section is read into its own dataclass. A broken
        setting is reported by name and its default stands; a required one
        that is unset or empty is reported as required."""
        values = {}
        for f in fields(cls):
            if is_dataclass(f.default_factory):
                section = raw.get(f.name) or {}
                if not isinstance(section, dict):
                    errors.append(f"{f.name}: must be a mapping, got {section!r}")
                    section = {}
                values[f.name] = f.default_factory(**read(f.default_factory, section, f"{f.name}."))
            elif "key" in f.metadata:
                spec = f.metadata
                name, value = prefix + spec["key"], raw.get(spec["key"])
                if f.default is MISSING and not value:
                    errors.append(f"{name}: required")
                elif value is not None:
                    if spec["convert"] is _file:
                        reader = existing
                    elif is_dataclass(spec["convert"]):
                        reader = partial(records, spec["convert"], name)
                    else:
                        reader = partial(_value, spec)
                    value = checked(name, reader, value)
                    if value is not None:
                        values[f.name] = value
        return values

    values = read(PipelineConfig, data)

    keywords = values["keywords"]
    if keywords.match_mode == "token":
        # a term matches when each of its words is a whole token; a tracked
        # phrase is a term once drift promotes it
        for key in ("seeds", "tracked_phrases"):
            for term in getattr(keywords, key):
                if not all(TOKEN_RE.fullmatch(word) for word in term.lower().split()):
                    errors.append(
                        f"keywords.{key}: {term!r} never matches under match_mode token:"
                        " each word must be a whole token of ASCII letters, digits, _ and inner hyphens"
                    )

    drift = values["drift"]
    if not (drift.window > 0 and drift.slide > 0 and drift.window % drift.slide == 0):  # also rejects NaN
        errors.append("drift: window_minutes must be a positive multiple of slide_minutes")

    if errors:
        raise ConfigError(errors)
    return PipelineConfig(**values)


def read_document(path: Path):
    """The document in the YAML file ``path``, or the JSON one when its
    suffix is ``.json``. A file that cannot be read, is not UTF-8 or does
    not parse raises ``ValueError`` with one line that says why."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"unreadable: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"not UTF-8: {exc}") from exc
    if path.suffix == ".json":
        parse, unparseable = json.loads, ValueError
    else:
        import yaml  # here, so that a JSON config never loads it

        parse, unparseable = yaml.safe_load, yaml.YAMLError
    try:
        return parse(text)
    except unparseable as exc:
        # PyYAML's text spans lines (a context, a caret snippet), so keep
        # its problem and where it is: one error, one line
        problem, mark = getattr(exc, "problem", None), getattr(exc, "problem_mark", None)
        if problem and mark:
            reason = f"{problem} (line {mark.line + 1}, column {mark.column + 1})"
        else:
            reason = str(exc).partition("\n")[0]
        raise ValueError(f"unparseable: {reason}") from exc


def load_config(path: str | Path, overrides: Optional[dict] = None) -> PipelineConfig:
    """The config in the YAML or JSON file ``path``, overridden as
    ``parse_config`` describes; relative paths in it are resolved against
    its directory."""
    path = Path(path)
    try:
        data = read_document(path)
    except ValueError as exc:
        raise ConfigError([f"config: {exc}"]) from exc
    if not isinstance(data, dict):
        raise ConfigError(["config: top level must be a mapping"])
    return parse_config(data, base_dir=path.parent, overrides=overrides)
