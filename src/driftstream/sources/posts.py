"""Post records and archive-line parsing.

Each line is decoded by ``core.records.decode_json``: one call into the
C scanner of ``json.JSONDecoder.raw_decode`` when the line is exactly one
JSON document, which is every well-formed line the archive reader passes
(it strips the newline). Any other line, with surrounding whitespace, a
BOM, a CR, trailing data or a malformed document, is decoded again by
``json.loads``. The fast path thus changes no outcome: a line decodes to
the object ``json.loads`` gives, or is rejected where it raises. A
line is tested for blankness only once it has failed to decode.

Field types have one rule. ``id`` is a JSON integer or a string that
``int()`` accepts; anything else, a bool or a float included, is
``bad_id``. ``text`` is a non-empty string. ``created_at`` is a timestamp
string whose instant falls in years 1-9999 UTC, where every bundle date
and log record can render it (``bad_timestamp`` otherwise).
``retweeted_id`` follows ``id``'s rule and is ignored where it breaks it.
``lang`` and ``channel`` take their defaults where they are absent or not
strings. A number past Python's int-digit limit and nesting past the
recursion limit are ``bad_json``, as ``json.loads`` raises on both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..core.records import decode_json
from ..timeutil import END_EPOCH, FIRST_EPOCH, TimestampError, format_timestamp, parse_timestamp


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


def parse_post(line: Union[str, bytes]) -> Union[Post, Rejection]:
    """Parse one archive line (JSON object) into a Post.

    Accepts both timestamp formats of the archive contract. Malformed input
    yields a typed Rejection rather than raising, so a replay can count and
    skip bad lines without stopping.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError:
            return Rejection("bad_utf8")
    try:
        obj = decode_json(line)
    except (ValueError, RecursionError):
        return Rejection("bad_json") if line.strip() else Rejection("empty")
    if not isinstance(obj, dict):
        return Rejection("bad_json")

    post_id = obj.get("id")
    if post_id is None or post_id == "":
        return Rejection("missing_field")
    text = obj.get("text")
    if text is None or text == "":
        return Rejection("missing_field")
    created_at = obj.get("created_at")
    if created_at is None or created_at == "":
        return Rejection("missing_field")

    if type(post_id) is str:
        try:
            post_id = int(post_id)
        except ValueError:
            return Rejection("bad_id")
    elif type(post_id) is not int:  # a bool, a float, an array or an object
        return Rejection("bad_id")

    if not isinstance(text, str):
        return Rejection("missing_field")

    try:
        created = parse_timestamp(created_at)
    except TimestampError:
        return Rejection("bad_timestamp")
    if not FIRST_EPOCH <= created < END_EPOCH:  # no date to write it under
        return Rejection("bad_timestamp")

    retweeted = obj.get("retweeted_id")
    if retweeted is not None and type(retweeted) is not int:
        try:
            retweeted = int(retweeted) if type(retweeted) is str else None
        except ValueError:
            retweeted = None

    lang = obj.get("lang")
    channel = obj.get("channel")
    # positional, in field order: keywords cost twice the call
    return Post(
        post_id,
        created,
        text,
        lang if type(lang) is str else "und",
        channel if type(channel) is str else "twitter",
        retweeted,
    )
