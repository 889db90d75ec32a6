"""Single-node durable append-only log with offset replay.

Stands in for an external durable message broker at desk scale: ``replay
--out`` appends the archive's posts and any consumer can replay from an
arbitrary offset. Records are length-prefixed and checksummed; recovery
truncates a torn tail back to the last valid record, so a replay never
surfaces a corrupt or partial record.

Appends are group-committed: ``append_many`` packs a batch's frames into
one buffer per segment they land in, writes each buffer in one write,
flushes and fsyncs each such segment once, and only then returns the
batch's offsets. The returned offsets are the ack. The crash contract:

- acknowledged records always survive;
- of an unacknowledged batch, at most an in-order prefix of complete frames
  survives. A crash can leave any prefix of the batch's bytes, or a region
  the file grew by but whose data never landed (zeros); recovery stops at
  the first frame that is incomplete, fails its checksum or is empty;
- ``append`` is the batch of one, so a single in-flight record either
  survives whole or not at all.

A batch that fills a segment fsyncs it before opening the next, so every
offset a call returns is durable; the directory is fsynced whenever a
segment file is created, so the new segment's name survives too.

Layout: one directory per log, holding only segments named
``{base_offset:020d}.seg``. Opening the log scans every segment to rebuild
the in-memory frame positions that replay seeks by; there is no index file.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from pathlib import Path
from typing import Iterable, Iterator

from .records import StreamRecord

FRAME_HEADER = struct.Struct("<II")  # body length, crc32(body)
SEGMENT_SUFFIX = ".seg"
DEFAULT_SEGMENT_BYTES = 64 * 1024 * 1024


class LogAppendError(IOError):
    pass


class DurableLog:
    """Append-only record log. Single writer, any number of readers."""

    def __init__(
        self,
        path: str | Path,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        sync: bool = True,
    ):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = segment_bytes
        self.sync = sync
        self.truncated_bytes = 0  # torn tail dropped during last recovery
        # Set by a failed append: the failed batch's frames may be in the
        # segment unindexed, so a later ack would name an offset that a
        # reopened log gives to one of them.
        self._failed = False
        self._lock = threading.Lock()
        # base offset -> frame position of each record in that segment
        self._segments: dict[int, list[int]] = {}
        self._recover()
        bases = sorted(self._segments)
        self._active_base = bases[-1] if bases else 0
        self._writer = open(self._segment_path(self._active_base), "ab")
        self._position = self._writer.tell()  # the active segment's size, kept by adding frame lengths
        if not bases:
            self._segments[0] = []
            self._sync_dir()

    # -- recovery ----------------------------------------------------------

    def _segment_path(self, base: int) -> Path:
        return self.path / f"{base:020d}{SEGMENT_SUFFIX}"

    def _recover(self) -> None:
        bases = sorted(
            int(p.stem) for p in self.path.glob(f"*{SEGMENT_SUFFIX}")
        )
        for i, base in enumerate(bases):
            last = i == len(bases) - 1
            positions, valid_end = self._scan_segment(self._segment_path(base))
            if last:
                size = self._segment_path(base).stat().st_size
                if valid_end < size:
                    self.truncated_bytes = size - valid_end
                    with open(self._segment_path(base), "r+b") as f:
                        f.truncate(valid_end)
            self._segments[base] = positions

    def _scan_segment(self, seg_path: Path) -> tuple[list[int], int]:
        """Frame positions of all valid records and the end of the valid prefix."""
        positions: list[int] = []
        pos = 0
        with open(seg_path, "rb") as f:
            data = f.read()
        size = len(data)
        while pos + FRAME_HEADER.size <= size:
            length, crc = FRAME_HEADER.unpack_from(data, pos)
            body_start = pos + FRAME_HEADER.size
            body_end = body_start + length
            if length == 0 or body_end > size:
                break  # torn write: zero-filled (no record encodes empty) or body incomplete
            body = data[body_start:body_end]
            if zlib.crc32(body) != crc:
                break  # torn write inside the header or body
            positions.append(pos)
            pos = body_end
        return positions, pos

    # -- append ------------------------------------------------------------

    @property
    def next_offset(self) -> int:
        return sum(len(positions) for positions in self._segments.values())

    def append(self, record: StreamRecord) -> int:
        """Append one record and make it durable; the returned offset is the ack."""
        return self.append_many([record])[0]

    def append_many(self, records: Iterable[StreamRecord | bytes]) -> range:
        """Append ``records`` in order and make them durable; returns their offsets.

        Every body is checked first. The frames are then packed into one
        buffer per segment they land in, each buffer is written in one
        write, and each such segment is flushed and fsynced (when ``sync``)
        once, before the offsets are returned, so the returned range is the
        ack. An empty batch appends nothing and returns the empty range at
        ``next_offset``. Any I/O failure raises ``LogAppendError``, and so
        does every later append, until the log is reopened and recovery has
        rescanned what reached disk.

        A record is a ``StreamRecord`` or its body already encoded: the bytes
        its ``to_bytes`` gives, which ``records.encode_post_record`` writes
        for a post. An empty body, which recovery would read as a torn
        write, raises ``ValueError`` before anything is written.
        """
        bodies = [record if isinstance(record, bytes) else record.to_bytes() for record in records]
        if not all(bodies):
            raise ValueError("an empty record body cannot be told from a torn write")
        with self._lock:
            if self._failed:
                raise LogAppendError(f"append to {self.path} refused: an earlier append failed")
            first = self.next_offset
            if not bodies:
                return range(first, first)
            buffer = bytearray()  # the frames of the active segment's run
            positions: list[int] = []  # of the frames in that run
            try:
                for body in bodies:
                    if self._position and self._position >= self.segment_bytes:  # never roll an empty segment
                        self._commit(buffer, positions)
                        buffer, positions = bytearray(), []
                        self._roll()
                    positions.append(self._position)
                    buffer += FRAME_HEADER.pack(len(body), zlib.crc32(body))
                    buffer += body
                    self._position += FRAME_HEADER.size + len(body)
                self._commit(buffer, positions)
            except OSError as exc:
                self._failed = True
                raise LogAppendError(f"append to {self.path} failed: {exc}") from exc
            return range(first, first + len(bodies))

    def _commit(self, frames: bytearray, positions: list[int]) -> None:
        """Write ``frames`` to the active segment in one write, make it
        durable, then index the frames at ``positions``."""
        self._writer.write(frames)
        self._writer.flush()
        if self.sync:
            os.fsync(self._writer.fileno())
        self._segments[self._active_base].extend(positions)

    def _roll(self) -> None:
        self._writer.close()
        new_base = self.next_offset
        self._active_base = new_base
        self._segments[new_base] = []
        self._writer = open(self._segment_path(new_base), "ab")
        self._position = 0
        self._sync_dir()

    def _sync_dir(self) -> None:
        """Make a newly created segment's directory entry durable."""
        if not self.sync:
            return
        fd = os.open(self.path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # -- replay ------------------------------------------------------------

    def replay_from(self, offset: int = 0) -> Iterator[StreamRecord]:
        """Records ``offset .. next_offset-1`` in order; empty beyond the end."""
        if offset < 0:
            raise ValueError(f"offset must be non-negative, got {offset}")
        for base in sorted(self._segments):
            positions = self._segments[base]
            count = len(positions)
            if count == 0 or base + count <= offset:
                continue
            start = max(offset - base, 0)
            with open(self._segment_path(base), "rb") as f:
                for i in range(start, count):
                    f.seek(positions[i])
                    header = f.read(FRAME_HEADER.size)
                    length, crc = FRAME_HEADER.unpack(header)
                    body = f.read(length)
                    if len(body) != length or zlib.crc32(body) != crc:
                        return  # tail truncated under our feet; stop cleanly
                    yield StreamRecord.from_bytes(body, offset=base + i)

    def close(self) -> None:
        with self._lock:
            if not self._writer.closed:
                self._writer.flush()
                self._writer.close()

    def __enter__(self) -> "DurableLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
