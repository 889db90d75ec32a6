"""Timestamp parsing and formatting.

All timestamps inside the pipeline are UTC epoch seconds (float). Archive
files may carry either the legacy social format ("Sat Feb 29 18:59:56
+0000 2020") or ISO-8601; both normalize to epoch seconds on parse.
"""

from __future__ import annotations

import re
from datetime import datetime, timedelta, timezone

LEGACY_FORMAT = "%a %b %d %H:%M:%S %z %Y"

# The canonical spelling of LEGACY_FORMAT ("Sat Feb 29 18:59:56 +0000
# 2020"), parsed without strptime. Any other spelling that strptime accepts
# (lowercase names, a one-digit day, a colon in the offset) takes strptime.
_MONTHS = {name: number for number, name in enumerate(
    "Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split(), 1
)}
_LEGACY_RE = re.compile(
    r"(?:Mon|Tue|Wed|Thu|Fri|Sat|Sun) "
    rf"({'|'.join(_MONTHS)}) ([0-9]{{2}}) "
    r"([0-9]{2}):([0-9]{2}):([0-9]{2}) ([+-])([0-9]{2})([0-5][0-9]) ([0-9]{4})"
)

MINUTE = 60.0
HOUR = 3600.0
DAY = 86400.0


class TimestampError(ValueError):
    pass


# The last string parse_timestamp parsed and its epoch. Archives are in
# near time order, so consecutive posts often share a timestamp string. The
# mapping is pure and the pair is replaced whole, so every caller may share it.
_last_parsed: tuple[object, float] = (None, 0.0)


def parse_timestamp(value: str) -> float:
    """Parse a legacy or ISO-8601 timestamp string to UTC epoch seconds."""
    global _last_parsed
    last = _last_parsed
    if type(value) is str and value == last[0]:
        return last[1]
    if not isinstance(value, str) or not value.strip():
        raise TimestampError(f"empty or non-string timestamp: {value!r}")
    text = value.strip()
    # ISO-8601 first: it is the fast path (C implementation) and the format
    # the synthetic generator emits.
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
    if type(value) is str:
        _last_parsed = (value, epoch)
    return epoch


def parse_legacy(text: str) -> datetime:
    """``datetime.strptime(text, LEGACY_FORMAT)``, without strptime for the
    canonical spelling. Like strptime, it ignores the weekday name."""
    match = _LEGACY_RE.fullmatch(text)
    if match is not None:
        month, day, hour, minute, second, sign, off_hours, off_minutes, year = match.groups()
        offset = timedelta(hours=int(off_hours), minutes=int(off_minutes))
        try:
            return datetime(
                int(year), _MONTHS[month], int(day), int(hour), int(minute), int(second),
                tzinfo=timezone(-offset if sign == "-" else offset),
            )
        except ValueError:
            pass  # strptime raises its own error for the same string
    return datetime.strptime(text, LEGACY_FORMAT)


def format_timestamp(epoch: float) -> str:
    """Render epoch seconds as an ISO-8601 UTC string (second resolution)."""
    return datetime.fromtimestamp(int(epoch), tz=timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    )


def month_key(epoch: float) -> str:
    return datetime.fromtimestamp(epoch, tz=timezone.utc).strftime("%Y-%m")


def day_key(epoch: float) -> str:
    return datetime.fromtimestamp(epoch, tz=timezone.utc).strftime("%Y-%m-%d")


def day_start(epoch: float) -> float:
    """Epoch seconds of the UTC midnight containing ``epoch``."""
    return float(int(epoch) // int(DAY) * int(DAY))
