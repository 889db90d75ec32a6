"""Side feeds (case reports, evidence): JSON lines, one object per line.

Unlike the post archive, where a bad line is counted and skipped, a feed
line that cannot be read stops the load: the error names the file, the
1-based line number and the field, so the feed can be fixed at its source.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Callable, TypeVar

from ..timeutil import parse_timestamp

T = TypeVar("T")

_REQUIRED = object()


class FeedError(ValueError):
    pass


def read_feed(path: str | Path, build: Callable[[dict, int], T]) -> list[T]:
    """``build(obj, line_number)`` for every non-blank line of ``path``.

    A line that is not UTF-8, not a JSON object or nested past the
    recursion limit, or that ``build`` rejects with a ValueError, raises a
    FeedError naming the path and the line. Each line is decoded on its
    own, so a bad byte is named by its line; as in the post archive, a
    line ends at a newline byte.
    """
    items = []
    with open(Path(path), "rb") as f:
        for number, raw in enumerate(f, 1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ValueError("not a JSON object")
                items.append(build(obj, number))
            except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
                raise FeedError(f"{path}, line {number}: {exc}") from None
    return items


def feed_field(obj: dict, name: str, convert: Callable[[Any], T], default: Any = _REQUIRED) -> T:
    """``convert`` applied to field ``name`` of ``obj``, or to ``default``
    when the field is absent. A missing required field, or a value that
    ``convert`` rejects, raises a ValueError that names the field."""
    if name not in obj and default is _REQUIRED:
        raise ValueError(f"field {name!r}: missing")
    value = obj.get(name, default)
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"field {name!r}: {exc}") from None


def text(value: Any) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def timestamp(value: Any) -> float:
    """A timestamp string, or epoch seconds as a finite number."""
    if isinstance(value, str):
        return parse_timestamp(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a timestamp, got {value!r}")
    try:
        epoch = float(value)
    except OverflowError:  # an int beyond every float
        epoch = math.inf
    if not math.isfinite(epoch):
        raise ValueError(f"expected a finite timestamp, got {value!r}")
    return epoch
