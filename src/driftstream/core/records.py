"""The record envelope stored in the durable log."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

# The one encoder of every log record: json.dumps with these arguments
# builds a new JSONEncoder per call, with the same bytes.
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)

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
