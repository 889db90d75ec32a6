"""The record envelope stored in the durable log.

A record body is compact JSON with sorted keys. ``StreamRecord.to_bytes``
encodes any payload with ``json.JSONEncoder``; ``encode_post_record`` writes
the same bytes for a post's record with one string format, without building
the payload, the envelope or the encoder's state, and is what ``replay
--out`` appends.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Any, Optional

from ..timeutil import format_timestamp

if TYPE_CHECKING:
    from ..sources.posts import Post

# The general encoder: json.dumps with these arguments builds a new
# JSONEncoder per call, with the same bytes.
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)

# The body of StreamRecord(post.to_payload(), None, post.created_at,
# ingest_time), keys in sorted order as _ENCODER writes them; the second
# form holds the payload's retweeted_id.
_POST_RECORD = (
    '{"event_time":%r,"ingest_time":%r,"key":null,"payload":'
    '{"channel":%s,"created_at":"%s","id":%d,"lang":%s,"text":%s}}'
)
_RETWEET_RECORD = _POST_RECORD.replace('"text"', '"retweeted_id":%d,"text"')

# The decoder's documented one-document scan: one call into the C scanner,
# without json.loads's wrapper and its two whitespace regex matches.
_raw_decode = json.JSONDecoder().raw_decode


def decode_json(text: str) -> Any:
    """``json.loads(text)``, by one scanner call when ``text`` is exactly one
    JSON document. Any other text (surrounding whitespace, a BOM, trailing
    data, a malformed document) is decoded again by ``json.loads``, so every
    result and every exception is the one ``json.loads`` gives."""
    try:
        obj, end = _raw_decode(text)
    except ValueError:
        return json.loads(text)
    return obj if end == len(text) else json.loads(text)


@dataclass(slots=True)
class StreamRecord:
    """One record of the durable log.

    ``payload`` is any JSON-serializable structure; ``offset`` is assigned
    by the durable log on append (-1 until then).
    """

    payload: Any
    key: Optional[str] = None
    event_time: float = 0.0
    ingest_time: float = 0.0
    offset: int = field(default=-1, compare=False)

    def to_bytes(self) -> bytes:
        body = {
            "payload": self.payload,
            "key": self.key,
            "event_time": self.event_time,
            "ingest_time": self.ingest_time,
        }
        return _ENCODER.encode(body).encode("utf-8")

    @classmethod
    def from_bytes(cls, data: bytes, offset: int = -1) -> "StreamRecord":
        body = decode_json(data.decode("utf-8"))
        return cls(body["payload"], body["key"], body["event_time"], body["ingest_time"], offset)


def encode_post_record(post: Post, ingest_time: float) -> bytes:
    """The bytes of ``StreamRecord(post.to_payload(), None, post.created_at,
    ingest_time).to_bytes()`` for a ``sources.posts.Post`` whose times are
    finite floats, as ``parse_post`` returns.

    Each value is written as the JSON encoder writes it: a float by its
    ``repr``, an int by ``%d``, a string by ``encode_basestring_ascii`` (the
    encoder's own escaping under ``ensure_ascii``), and ``created_at`` by
    ``format_timestamp``, whose characters need no escaping.
    """
    created_at = post.created_at
    retweeted = post.is_retweet_of
    if retweeted is None:
        body = _POST_RECORD % (
            created_at, ingest_time, encode_basestring_ascii(post.channel), format_timestamp(created_at),
            post.id, encode_basestring_ascii(post.lang), encode_basestring_ascii(post.text),
        )
    else:
        body = _RETWEET_RECORD % (
            created_at, ingest_time, encode_basestring_ascii(post.channel), format_timestamp(created_at),
            post.id, encode_basestring_ascii(post.lang), retweeted, encode_basestring_ascii(post.text),
        )
    return body.encode("ascii")
