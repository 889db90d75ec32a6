"""Reading archived post streams."""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Iterator, Optional

from .posts import Post, Rejection, parse_post


def posts_from_archive(path: str | Path, rejections: Optional[Counter] = None) -> Iterator[Post]:
    """The valid posts of an archive file, in file order.

    Rejected lines are skipped and, when ``rejections`` is given, counted
    there by reason.
    """
    with open(path, "rb") as f:
        for line in f:
            parsed = parse_post(line.rstrip(b"\n"))
            if isinstance(parsed, Rejection):
                if rejections is not None:
                    rejections[parsed.reason] += 1
                continue
            yield parsed
