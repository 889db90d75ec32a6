"""Post records and archive-line parsing."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Union

from ..timeutil import TimestampError, format_timestamp, parse_timestamp


@dataclass(slots=True)
class Post:
    id: int
    created_at: float  # UTC epoch seconds
    text: str
    lang: str = "und"
    channel: str = "twitter"
    is_retweet_of: Optional[int] = None

    def to_payload(self) -> dict:
        payload = {
            "id": self.id,
            "created_at": format_timestamp(self.created_at),
            "text": self.text,
            "lang": self.lang,
            "channel": self.channel,
        }
        if self.is_retweet_of is not None:
            payload["retweeted_id"] = self.is_retweet_of
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "Post":
        return cls(
            id=payload["id"],
            created_at=parse_timestamp(payload["created_at"]),
            text=payload["text"],
            lang=payload.get("lang", "und"),
            channel=payload.get("channel", "twitter"),
            is_retweet_of=payload.get("retweeted_id"),
        )


@dataclass(frozen=True)
class Rejection:
    """Why an archive line did not become a Post."""

    reason: str  # empty | bad_utf8 | bad_json | missing_field | bad_id | bad_timestamp
    detail: str = ""


def parse_post(line: Union[str, bytes]) -> Union[Post, Rejection]:
    """Parse one archive line (JSON object) into a Post.

    Accepts both timestamp formats of the archive contract. Malformed input
    yields a typed Rejection rather than raising, so a replay can count and
    skip bad lines without stopping.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            return Rejection("bad_utf8", str(exc))
    if not line.strip():
        return Rejection("empty")
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        return Rejection("bad_json", str(exc))
    if not isinstance(obj, dict):
        return Rejection("bad_json", "line is not a JSON object")

    for field_name in ("id", "text", "created_at"):
        if field_name not in obj or obj[field_name] in (None, ""):
            return Rejection("missing_field", field_name)

    try:
        post_id = int(obj["id"])
    except (TypeError, ValueError):
        return Rejection("bad_id", repr(obj["id"]))

    text = obj["text"]
    if not isinstance(text, str):
        return Rejection("missing_field", "text")

    try:
        created = parse_timestamp(obj["created_at"])
    except TimestampError as exc:
        return Rejection("bad_timestamp", str(exc))

    retweeted = obj.get("retweeted_id")
    if retweeted is not None:
        try:
            retweeted = int(retweeted)
        except (TypeError, ValueError):
            retweeted = None

    # positional, in field order: keywords cost twice the call
    return Post(post_id, created, text, obj.get("lang", "und"), obj.get("channel", "twitter"), retweeted)
