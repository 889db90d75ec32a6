"""Timestamp parsing and formatting.

All timestamps inside the pipeline are UTC epoch seconds (float). Archive
files may carry either the legacy social format ("Sat Feb 29 18:59:56
+0000 2020") or ISO-8601; both normalize to epoch seconds on parse.
"""

from __future__ import annotations

import re
from datetime import datetime, timezone

LEGACY_FORMAT = "%a %b %d %H:%M:%S %z %Y"

# The canonical spelling of LEGACY_FORMAT ("Sat Feb 29 18:59:56 +0000
# 2020"), parsed by parse_timestamp without datetime. Any other spelling
# that strptime accepts (lowercase names, a one-digit day, a colon in the
# offset) takes strptime.
_MONTHS = {name: number for number, name in enumerate(
    "Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split(), 1
)}
_LEGACY_RE = re.compile(
    r"(?:Mon|Tue|Wed|Thu|Fri|Sat|Sun) "
    rf"({'|'.join(_MONTHS)}) ([0-9]{{2}}) "
    r"([0-9]{2}):([0-9]{2}):([0-9]{2}) ([+-])([0-9]{2})([0-5][0-9]) ([0-9]{4})"
)
_MONTH_DAYS = (0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)  # February of a common year
_DAYS_BEFORE_MONTH = tuple(sum(_MONTH_DAYS[1:m]) for m in range(13))
_EPOCH_ORDINAL = 719163  # datetime(1970, 1, 1).toordinal()

# The instants format_timestamp can render: 0001-01-01 up to, not
# including, 10000-01-01 UTC. parse_timestamp reaches past them only where
# an offset moves a year-1 or year-9999 time across the edge.
FIRST_EPOCH = -62135596800.0
END_EPOCH = 253402300800.0

MINUTE = 60.0
HOUR = 3600.0
DAY = 86400.0


class TimestampError(ValueError):
    pass


# The last string parse_timestamp parsed and its epoch. Archives are in
# near time order, so consecutive posts often share a timestamp string. The
# mapping is pure and the pair is replaced whole, so every caller may share it.
_last_parsed: tuple[object, float] = (None, 0.0)

# The minutes of recent canonical timestamps, "2020-02-29T18:59:56Z" and
# "Sat Feb 29 18:59:56 +0000 2020": each maps the string without its
# seconds digits (characters 17 and 18 in both forms) to the epoch of its
# second 0. A string equal to one but for those digits, 00 to 59, is that
# epoch plus its seconds, with no regex or datetime. At about a post a
# second, consecutive timestamps rarely share their string but mostly share
# their minute. Pure like _last_parsed, and emptied when full.
_minute_epochs: dict[str, float] = {}
_MINUTES_KEPT = 8


def parse_timestamp(value: str) -> float:
    """Parse a legacy or ISO-8601 timestamp string to UTC epoch seconds."""
    global _last_parsed
    if type(value) is str:
        last = _last_parsed
        if value == last[0]:
            return last[1]
        minute = _minute_epochs.get(value[:17] + value[19:])
        # a hit has the remembered string's length, so [17] and [18] exist
        if minute is not None and "0" <= value[17] <= "5" and "0" <= value[18] <= "9":
            epoch = minute + int(value[17:19])
            _last_parsed = (value, epoch)
            return epoch
    if not isinstance(value, str) or not value.strip():
        raise TimestampError(f"empty or non-string timestamp: {value!r}")
    text = value.strip()
    # No string is both legacy and ISO, so the order of the tries changes no
    # result. ISO starts with its year's digits and goes straight to
    # fromisoformat (C); a legacy string starts with its weekday's name.
    match = _LEGACY_RE.fullmatch(text) if text[0] > "9" else None
    epoch = None if match is None else _legacy_epoch(*match.groups())
    canonical = epoch is not None
    if epoch is None:
        iso = text[:-1] + "+00:00" if text.endswith("Z") else text
        try:
            dt = datetime.fromisoformat(iso)
        except ValueError:
            try:
                dt = parse_legacy(text)
            except ValueError:
                raise TimestampError(f"unparseable timestamp: {value!r}") from None
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        epoch = dt.timestamp()
        # 20 characters that fromisoformat took, with "T" and two colons
        # here, are "YYYY-MM-DDTHH:MM:SSZ" (or a week date): seconds at 17
        canonical = len(text) == 20 and text[10] == "T" and text[13] == text[16] == ":" and text[19] == "Z"
    if type(value) is str:
        _last_parsed = (value, epoch)
        if canonical and len(text) == len(value):
            if len(_minute_epochs) >= _MINUTES_KEPT:
                _minute_epochs.clear()
            _minute_epochs[value[:17] + value[19:]] = epoch - int(value[17:19])
    return epoch


def _legacy_epoch(month, day, hour, minute, second, sign, off_hours, off_minutes, year) -> float | None:
    """Epoch seconds of the fields of a ``_LEGACY_RE`` match, by integer
    days-from-civil arithmetic; ``None`` where ``datetime`` would refuse a
    field (a day its month lacks, hour 24, minute or second 60, a 24-hour
    offset, year 0), so that strptime decides those."""
    y, m, d = int(year), _MONTHS[month], int(day)
    h, mi, s, oh = int(hour), int(minute), int(second), int(off_hours)
    leap = y % 4 == 0 and (y % 100 != 0 or y % 400 == 0)
    if not (y and 0 < d <= _MONTH_DAYS[m] + (m == 2 and leap) and h < 24 and mi < 60 and s < 60 and oh < 24):
        return None
    y -= 1
    days = y * 365 + y // 4 - y // 100 + y // 400 + _DAYS_BEFORE_MONTH[m] + (m > 2 and leap) + d - _EPOCH_ORDINAL
    offset = oh * 3600 + int(off_minutes) * 60
    return float(days * 86400 + h * 3600 + mi * 60 + s + (offset if sign == "-" else -offset))


def parse_legacy(text: str) -> datetime:
    """``datetime.strptime(text, LEGACY_FORMAT)``; like strptime, it ignores
    the weekday name."""
    return datetime.strptime(text, LEGACY_FORMAT)


# The last day format_timestamp rendered, as (days since the epoch, its
# "YYYY-MM-DDT" prefix); replaced whole, like _last_parsed. Only a new
# minute reads it, and consecutive records mostly fall on one day, so
# datetime runs about once a day.
_last_day: tuple[int, str] = (0, "1970-01-01T")

# The last minute format_timestamp rendered, as (minutes since the epoch,
# its "YYYY-MM-DDTHH:MM:" prefix); replaced whole, like _last_day.
# Consecutive records mostly share a minute, so most calls only append
# that second's "SSZ". A day_key call renders its day's first second, so
# one between two records of a minute makes the later record miss, never
# read a wrong prefix: each memo is keyed by its whole epoch minute or day.
_last_minute: tuple[int, str] = (0, "1970-01-01T00:00:")
_SECOND_SUFFIX = tuple(f"{second:02d}Z" for second in range(60))


def format_timestamp(epoch: float) -> str:
    """Render epoch seconds as an ISO-8601 UTC string (second resolution)."""
    global _last_day, _last_minute
    minute, second = divmod(int(epoch), 60)
    last = _last_minute
    if minute != last[0]:
        day, clock = divmod(minute, 1440)
        date = _last_day
        if day != date[0]:
            moment = datetime.fromtimestamp(day * 86400, tz=timezone.utc)
            # not strftime: glibc writes year 999 as "999", which nothing parses
            date = _last_day = (day, f"{moment.year:04d}-{moment.month:02d}-{moment.day:02d}T")
        hours, minutes = divmod(clock, 60)
        last = _last_minute = (minute, f"{date[1]}{hours:02d}:{minutes:02d}:")
    return last[1] + _SECOND_SUFFIX[second]


def day_key(epoch: float) -> str:
    """The UTC day of ``epoch`` as "YYYY-MM-DD", the year zero-padded."""
    return format_timestamp(epoch // DAY * DAY)[:10]

