"""Replaying archived post streams at controlled speed."""

from __future__ import annotations

import time
from collections import Counter
from pathlib import Path
from typing import Any, Iterator, Optional, Union

from .posts import Post, Rejection, parse_post

Speed = Union[float, str]  # multiplier, or "max" for as-fast-as-consumed


def parse_speed(value: Any) -> Speed:
    """``"max"`` or a positive float; ``ValueError`` for anything else."""
    if value == "max":
        return value
    try:
        speed = float(value)
    except (TypeError, ValueError):
        speed = 0.0
    if not speed > 0:  # also rejects NaN
        raise ValueError(f"must be a positive number or 'max', got {value!r}")
    return speed


def posts_from_archive(
    path: str | Path,
    rejections: Optional[Counter] = None,
    speed: Speed = "max",
) -> Iterator[Post]:
    """The valid posts of an archive file, in file order.

    Rejected lines are skipped and, when ``rejections`` is given, counted
    there by reason. At a numeric speed, the pause before each post is its
    event-time gap from the previous post divided by the speed; at "max"
    the file is drained as fast as the consumer accepts.
    """
    speed = parse_speed(speed)
    paced = speed != "max"
    previous_event: Optional[float] = None
    with open(path, "rb") as f:
        for line in f:
            parsed = parse_post(line.rstrip(b"\n"))
            if isinstance(parsed, Rejection):
                if rejections is not None:
                    rejections[parsed.reason] += 1
                continue
            if paced and previous_event is not None:
                gap = (parsed.created_at - previous_event) / speed
                if gap > 0:
                    time.sleep(gap)
            previous_event = parsed.created_at
            yield parsed
