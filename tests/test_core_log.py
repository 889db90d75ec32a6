"""Durable log: append/replay semantics, group commit and torn-write recovery.

The crash harness constructs the exact byte state a crash mid-append would
leave behind (a valid prefix plus a partial frame or batch, possibly followed
by zeros) instead of killing real processes; recovery must hand back every
acknowledged record and nothing corrupt.
"""

from __future__ import annotations

import errno
import json
import math
import os
import random
import stat
import struct
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftstream.core import log as log_module
from driftstream.core.log import DEFAULT_SEGMENT_BYTES, FRAME_HEADER, DurableLog, LogAppendError
from driftstream.core.records import StreamRecord, encode_post_record
from driftstream.sources.posts import Post
from driftstream.timeutil import END_EPOCH, FIRST_EPOCH


def _record(i: int) -> StreamRecord:
    return StreamRecord(payload={"i": i, "text": f"record-{i}"}, event_time=float(i))


def _frame_bytes(record: StreamRecord | bytes) -> bytes:
    # independent framing oracle: length + crc32 header, then the body
    body = record if isinstance(record, bytes) else record.to_bytes()
    return struct.pack("<II", len(body), zlib.crc32(body)) + body


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=12,
)


@given(
    payload=JSON_VALUES,
    key=st.none() | st.text(),
    event_time=st.floats(),
    ingest_time=st.floats(),
)
@example(payload={"text": "s\u00fcd \u75c5\u6bd2 \U0001f637", "n": [1.5, None]}, key=None, event_time=2.0, ingest_time=3.0)
def test_to_bytes_equals_json_dumps(payload, key, event_time, ingest_time):
    """The shared encoder writes what json.dumps wrote: non-ASCII text, nested
    values, any float and a null key."""
    body = {"payload": payload, "key": key, "event_time": event_time, "ingest_time": ingest_time}
    expected = json.dumps(body, separators=(",", ":"), sort_keys=True).encode()
    assert StreamRecord(payload, key, event_time, ingest_time).to_bytes() == expected


# Ids as parse_post returns them: ints of up to 4,300 digits, the default
# int-digit limit past which both int() and the JSON decoder refuse a number.
POST_IDS = st.integers(min_value=-(10**4300 - 1), max_value=10**4300 - 1)
# Any code point, lone surrogates included, with the characters JSON escapes
# drawn often.
POST_STRINGS = st.text(st.integers(0, 0x10FFFF).map(chr) | st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800\udfff\U0001f637'))


@given(
    post_id=POST_IDS,
    created_at=st.floats(min_value=FIRST_EPOCH, max_value=END_EPOCH, exclude_max=True),
    text=POST_STRINGS.filter(bool),
    lang=POST_STRINGS,
    channel=POST_STRINGS,
    retweeted=st.none() | POST_IDS,
    ingest_time=st.floats(allow_nan=False, allow_infinity=False),
)
@example(post_id=10**4300 - 1, created_at=FIRST_EPOCH, text='"\\\ud800', lang="\udfff", channel="\x00",
         retweeted=-(10**4300 - 1), ingest_time=-0.0)
@example(post_id=-1, created_at=math.nextafter(END_EPOCH, 0), text="s\u00fcd \U0001f637", lang="und", channel="twitter",
         retweeted=None, ingest_time=1.7e9 + 1 / 3)
def test_encode_post_record_equals_the_general_codec(post_id, created_at, text, lang, channel, retweeted, ingest_time):
    """The post encoder writes the general codec's bytes for every Post shape
    that parse_post returns: ids of any sign and up to the digit limit, with
    and without a retweet, any string, created_at from year 1 to year 9999
    and any finite ingest time."""
    post = Post(post_id, created_at, text, lang, channel, retweeted)
    expected = StreamRecord(post.to_payload(), None, post.created_at, ingest_time).to_bytes()
    assert encode_post_record(post, ingest_time) == expected


def test_encoded_bodies_append_as_their_records(tmp_path):
    """append_many takes encoded bodies beside records and frames them alike;
    an empty body, which recovery would drop as a torn write, is refused
    before anything is written."""
    path = tmp_path / "log"
    records = [_record(i) for i in range(4)]
    with DurableLog(path, sync=False) as log:
        assert log.append_many([records[0].to_bytes(), records[1]]) == range(0, 2)
        assert log.append_many([r.to_bytes() for r in records[2:]]) == range(2, 4)
        with pytest.raises(ValueError):
            log.append_many([records[0], b""])
        assert log.next_offset == 4
    files = {p.name: p.read_bytes() for p in path.iterdir()}
    assert files == _segments_oracle([_frame_bytes(r) for r in records], 1 << 20)
    with DurableLog(path) as log:
        assert list(log.replay_from(0)) == records


def test_first_append_gets_offset_zero(tmp_path):
    log = DurableLog(tmp_path / "log", sync=False)
    assert log.append(_record(0)) == 0
    log.close()


def test_offsets_are_consecutive(tmp_path):
    log = DurableLog(tmp_path / "log", sync=False)
    offsets = [log.append(_record(i)) for i in range(3)]
    assert offsets == [0, 1, 2]
    log.close()


def test_replay_from_end_is_empty(tmp_path):
    log = DurableLog(tmp_path / "log", sync=False)
    for i in range(3):
        log.append(_record(i))
    assert list(log.replay_from(log.next_offset)) == []
    assert list(log.replay_from(99)) == []
    log.close()


def test_replay_from_middle(tmp_path):
    log = DurableLog(tmp_path / "log", sync=False)
    for i in range(3):
        log.append(_record(i))
    replayed = list(log.replay_from(1))
    assert [r.payload["i"] for r in replayed] == [1, 2]
    assert [r.offset for r in replayed] == [1, 2]
    log.close()


def test_double_replay_is_byte_identical(tmp_path):
    log = DurableLog(tmp_path / "log", sync=False)
    for i in range(20):
        log.append(_record(i))
    first = [r.to_bytes() for r in log.replay_from(0)]
    second = [r.to_bytes() for r in log.replay_from(0)]
    assert first == second
    log.close()


def test_reopen_preserves_all_records(tmp_path):
    path = tmp_path / "log"
    log = DurableLog(path, sync=True)
    for i in range(5):
        log.append(_record(i))
    log.close()
    reopened = DurableLog(path, sync=False)
    assert reopened.next_offset == 5
    assert [r.payload["i"] for r in reopened.replay_from(0)] == list(range(5))
    reopened.close()


def test_appends_continue_after_reopen(tmp_path):
    path = tmp_path / "log"
    with DurableLog(path, sync=False) as log:
        log.append(_record(0))
    with DurableLog(path, sync=False) as log:
        assert log.append(_record(1)) == 1
        assert [r.payload["i"] for r in log.replay_from(0)] == [0, 1]


def test_segment_roll_keeps_replay_contiguous(tmp_path):
    log = DurableLog(tmp_path / "log", segment_bytes=256, sync=False)
    for i in range(50):
        log.append(_record(i))
    assert len(list((tmp_path / "log").glob("*.seg"))) > 1
    assert [r.payload["i"] for r in log.replay_from(0)] == list(range(50))
    assert [r.payload["i"] for r in log.replay_from(37)] == list(range(37, 50))
    log.close()


def _segments_oracle(frames: list[bytes], segment_bytes: int) -> dict[str, bytes]:
    """The segment files that appending ``frames`` in order leaves: a frame
    opens a new segment, based at its offset, once the active segment holds
    at least ``segment_bytes`` (an empty one is never rolled)."""
    segments = {0: b""}
    base = 0
    for offset, frame in enumerate(frames):
        if segments[base] and len(segments[base]) >= segment_bytes:
            base = offset
            segments[base] = b""
        segments[base] += frame
    return {f"{b:020d}.seg": data for b, data in segments.items()}


@pytest.mark.parametrize("segment_bytes", [1, 100, 300])
def test_rolls_inside_batches_and_across_a_reopen_match_the_layout_oracle(tmp_path, segment_bytes):
    """The writer keeps its position by adding frame lengths, from the
    segment's size at open and from zero at each roll: segments roll where
    the file sizes say, inside one batch and after a reopen."""
    path = tmp_path / "log"
    records = [_record(i) for i in range(40)]
    log = DurableLog(path, segment_bytes=segment_bytes, sync=False)
    assert log.append_many(records[:17]) == range(0, 17)
    log.close()
    log = DurableLog(path, segment_bytes=segment_bytes, sync=False)
    assert log.append_many(records[17:18]) == range(17, 18)
    assert log.append_many(records[18:]) == range(18, 40)
    files = {p.name: p.read_bytes() for p in path.iterdir()}
    assert files == _segments_oracle([_frame_bytes(r) for r in records], segment_bytes)
    assert len(files) >= 5
    assert [(r.offset, r.payload) for r in log.replay_from(0)] == [(i, r.payload) for i, r in enumerate(records)]
    log.close()
    with DurableLog(path, segment_bytes=segment_bytes, sync=False) as reopened:
        assert (reopened.truncated_bytes, reopened.next_offset) == (0, 40)
        assert [(r.offset, r.payload) for r in reopened.replay_from(0)] == [
            (i, r.payload) for i, r in enumerate(records)
        ]
        assert [r.offset for r in reopened.replay_from(23)] == list(range(23, 40))


def test_torn_tail_is_truncated(tmp_path):
    path = tmp_path / "log"
    log = DurableLog(path, sync=False)
    for i in range(4):
        log.append(_record(i))
    log.close()
    seg = next(path.glob("*.seg"))
    data = seg.read_bytes()
    seg.write_bytes(data + b"\x37\x13")  # torn header fragment
    recovered = DurableLog(path, sync=False)
    assert recovered.truncated_bytes == 2
    assert [r.payload["i"] for r in recovered.replay_from(0)] == [0, 1, 2, 3]
    recovered.close()


def test_corrupt_crc_truncates_at_last_valid(tmp_path):
    path = tmp_path / "log"
    log = DurableLog(path, sync=False)
    for i in range(3):
        log.append(_record(i))
    log.close()
    seg = next(path.glob("*.seg"))
    data = bytearray(seg.read_bytes())
    data[-1] ^= 0xFF  # flip a byte inside the last record's body
    seg.write_bytes(bytes(data))
    recovered = DurableLog(path, sync=False)
    assert [r.payload["i"] for r in recovered.replay_from(0)] == [0, 1]
    assert recovered.next_offset == 2
    recovered.close()


def test_negative_offset_rejected(tmp_path):
    log = DurableLog(tmp_path / "log", sync=False)
    with pytest.raises(ValueError):
        list(log.replay_from(-1))
    log.close()


def _crash_trial(tmp_path, rng: random.Random, trial: int) -> None:
    """One simulated kill between append and ack.

    Records 0..n-2 were acknowledged; record n-1 was being written when the
    process died, leaving a random prefix of its frame on disk. Recovery
    must yield all acknowledged records in order with no duplicates; the
    in-flight record may survive only if its frame completed.
    """
    path = tmp_path / f"trial-{trial}"
    n = rng.randint(1, 6)
    records = [_record(i) for i in range(n)]
    acked = records[:-1]

    log = DurableLog(path, sync=False)
    for record in acked:
        log.append(record)
    log.close()

    seg = next(path.glob("*.seg"))
    base = seg.read_bytes()
    in_flight = _frame_bytes(records[-1])
    cut = rng.randint(0, len(in_flight))
    seg.write_bytes(base + in_flight[:cut])

    recovered = DurableLog(path, sync=False)
    replayed = list(recovered.replay_from(0))
    recovered.close()

    offsets = [r.offset for r in replayed]
    assert offsets == sorted(set(offsets)), "duplicate or disordered offsets"
    assert len(replayed) >= len(acked), "acknowledged record lost"
    for i, record in enumerate(acked):
        assert replayed[i].to_bytes() == record.to_bytes()
    if len(replayed) > len(acked):
        assert len(replayed) == len(acked) + 1
        assert cut == len(in_flight)
        assert replayed[-1].to_bytes() == records[-1].to_bytes()


def test_crash_injection_sample(tmp_path):
    rng = random.Random(0xC4A5)
    for trial in range(50):
        _crash_trial(tmp_path, rng, trial)


def test_zero_filled_tail_is_truncated(tmp_path):
    """A crash after the file grew but before its data landed leaves zeros.
    An all-zero header has a valid checksum (crc32 of nothing is 0), but no
    record encodes to an empty body, so recovery stops there."""
    path = tmp_path / "log"
    log = DurableLog(path, sync=False)
    for i in range(3):
        log.append(_record(i))
    log.close()
    seg = next(path.glob("*.seg"))
    seg.write_bytes(seg.read_bytes() + bytes(64))
    recovered = DurableLog(path, sync=False)
    assert recovered.truncated_bytes == 64
    assert recovered.next_offset == 3
    assert [r.payload["i"] for r in recovered.replay_from(0)] == [0, 1, 2]
    recovered.close()


@settings(max_examples=60, deadline=None)
@given(
    acked_sizes=st.lists(st.integers(1, 5), max_size=4),
    torn_size=st.integers(1, 6),
    cut_fraction=st.floats(0.0, 1.0),
    zeros=st.integers(0, 300),
    segment_bytes=st.sampled_from([200, 64 * 1024 * 1024]),
)
def test_batch_crash_trial(tmp_path_factory, acked_sizes, torn_size, cut_fraction, zeros, segment_bytes):
    """A kill while a batch was being written, after the earlier batches were
    acknowledged: the torn batch left a prefix of its bytes, then maybe a
    zero-filled region. Recovery keeps every acknowledged batch and exactly
    the complete frames of the torn batch's prefix."""
    path = tmp_path_factory.mktemp("batch") / "log"
    acked: list[StreamRecord] = []
    log = DurableLog(path, segment_bytes=segment_bytes, sync=False)
    for size in acked_sizes:
        batch = [_record(len(acked) + i) for i in range(size)]
        assert log.append_many(batch) == range(len(acked), len(acked) + size)
        acked.extend(batch)
    log.close()

    torn = [_record(len(acked) + i) for i in range(torn_size)]
    frames = [_frame_bytes(r) for r in torn]
    written = b"".join(frames)
    cut = round(cut_fraction * len(written))
    complete = 0
    while complete < len(frames) and sum(map(len, frames[: complete + 1])) <= cut:
        complete += 1
    last = max(path.glob("*.seg"))
    last.write_bytes(last.read_bytes() + written[:cut] + bytes(zeros))

    recovered = DurableLog(path, segment_bytes=segment_bytes, sync=False)
    replayed = list(recovered.replay_from(0))
    assert [r.offset for r in replayed] == list(range(len(acked) + complete))
    assert [r.to_bytes() for r in replayed] == [r.to_bytes() for r in acked + torn[:complete]]
    assert recovered.truncated_bytes == cut - sum(map(len, frames[:complete])) + zeros
    assert recovered.append(_record(-1)) == len(acked) + complete
    recovered.close()


class _FsyncCounter:
    """Counts ``os.fsync`` calls on regular files and on directories."""

    def __init__(self, monkeypatch):
        self.files: list[int] = []  # inode of each fsynced file, in call order
        self.dirs = 0
        real = os.fsync

        def fsync(fd):
            info = os.fstat(fd)
            if stat.S_ISDIR(info.st_mode):
                self.dirs += 1
            else:
                self.files.append(info.st_ino)
            real(fd)

        monkeypatch.setattr(os, "fsync", fsync)


def test_one_fsync_per_batch(tmp_path, monkeypatch):
    fsyncs = _FsyncCounter(monkeypatch)
    log = DurableLog(tmp_path / "log", sync=True)
    assert (len(fsyncs.files), fsyncs.dirs) == (0, 1)  # the new segment's directory entry
    assert log.append_many([_record(i) for i in range(10)]) == range(0, 10)
    assert len(fsyncs.files) == 1
    assert log.append_many([_record(10)]) == range(10, 11)
    assert log.append(_record(11)) == 11
    assert (len(fsyncs.files), fsyncs.dirs) == (3, 1)
    log.close()
    with DurableLog(tmp_path / "log", sync=True) as reopened:  # no segment created
        assert reopened.next_offset == 12
    assert (len(fsyncs.files), fsyncs.dirs) == (3, 1)


def test_appends_refused_after_a_failed_batch_until_reopened(tmp_path, monkeypatch):
    """A batch whose fsync fails may leave its frames in the segment, so no
    later append may be acked until a reopen has rescanned the segment: the
    ack would name an offset that the reopened log gives to another record."""
    import errno

    from driftstream.core.log import LogAppendError

    path = tmp_path / "log"
    log = DurableLog(path, sync=True)
    assert log.append_many([_record(i) for i in range(3)]) == range(0, 3)
    real_fsync, failures = os.fsync, [OSError(errno.EIO, "Input/output error")]

    def fsync_failing_once(fd):
        if failures:
            raise failures.pop()
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync_failing_once)
    with pytest.raises(LogAppendError, match="Input/output error"):
        log.append_many([_record(3), _record(4)])
    assert not failures  # the next fsync would succeed
    for append in (lambda: log.append(_record(5)), lambda: log.append_many([_record(5)]),
                   lambda: log.append_many([])):
        with pytest.raises(LogAppendError, match="refused"):
            append()
    log.close()

    with DurableLog(path, sync=True) as reopened:
        # the failed batch's frames reached the file, so recovery keeps them
        assert [r.payload["i"] for r in reopened.replay_from(0)] == [0, 1, 2, 3, 4]
        offset = reopened.append(_record(5))
        assert offset == 5
    with DurableLog(path, sync=False) as again:
        assert [(r.offset, r.payload["i"]) for r in again.replay_from(5)] == [(5, 5)]


def test_batch_spanning_a_roll_syncs_the_closed_segment(tmp_path, monkeypatch):
    fsyncs = _FsyncCounter(monkeypatch)
    path = tmp_path / "log"
    log = DurableLog(path, segment_bytes=256, sync=True)
    assert log.append_many([_record(i) for i in range(50)]) == range(0, 50)
    segments = sorted(path.glob("*.seg"))
    assert len(segments) > 1
    # each segment fsynced once, in order, and each one's directory entry
    assert fsyncs.files == [seg.stat().st_ino for seg in segments]
    assert fsyncs.dirs == len(segments)
    assert [r.payload["i"] for r in log.replay_from(0)] == list(range(50))
    assert [r.offset for r in log.replay_from(37)] == list(range(37, 50))
    log.close()
    with DurableLog(path, segment_bytes=256, sync=False) as reopened:
        assert [r.payload["i"] for r in reopened.replay_from(0)] == list(range(50))


def test_empty_batch_appends_nothing(tmp_path, monkeypatch):
    path = tmp_path / "log"
    log = DurableLog(path, sync=True)
    log.append_many([_record(0), _record(1)])
    size = next(path.glob("*.seg")).stat().st_size
    fsyncs = _FsyncCounter(monkeypatch)
    assert log.append_many([]) == range(2, 2)
    assert log.next_offset == 2
    assert (fsyncs.files, fsyncs.dirs) == ([], 0)
    log.close()
    assert next(path.glob("*.seg")).stat().st_size == size


@pytest.mark.parametrize("records_per_batch", [None, 64, 7])
def test_replay_out_makes_one_fsync_per_byte_budget(tmp_path, monkeypatch, records_per_batch):
    """``replay --out`` commits once its batch holds ``REPLAY_BATCH_BYTES``
    of bodies: bodies of B bytes in all make ceil(B / REPLAY_BATCH_BYTES)
    segment fsyncs, and the new log's directory one. Every body here has
    the same length, and a budget of a whole number of bodies closes each
    batch at exactly the budget; None keeps the default budget, which the
    archive does not fill."""
    import time

    import driftstream.cli as cli
    from driftstream.timeutil import format_timestamp

    archive = tmp_path / "archive.jsonl"
    archive.write_text("".join(
        json.dumps({"id": 100000 + i, "text": "corona news", "created_at": format_timestamp(1583020800 + i)}) + "\n"
        for i in range(200)
    ))
    monkeypatch.setattr(time, "time", lambda: 1583020800.625)
    body_bytes = len(encode_post_record(Post(100000, 1583020800.0, "corona news"), time.time()))
    if records_per_batch:
        monkeypatch.setattr(cli, "REPLAY_BATCH_BYTES", records_per_batch * body_bytes)
    fsyncs = _FsyncCounter(monkeypatch)
    out = tmp_path / "log"
    assert cli.main(["replay", "--archive", str(archive), "--out", str(out)]) == 0
    with DurableLog(out, sync=False) as log:
        bodies = [r.to_bytes() for r in log.replay_from(0)]
    assert {len(body) for body in bodies} == {body_bytes} and len(bodies) == 200
    total = sum(map(len, bodies))
    assert total == next(out.glob("*.seg")).stat().st_size - FRAME_HEADER.size * len(bodies)
    expected = -(-total // cli.REPLAY_BATCH_BYTES)
    assert expected == (1 if records_per_batch is None else -(-200 // records_per_batch))
    assert (len(fsyncs.files), fsyncs.dirs) == (expected, 1)


@settings(max_examples=60, deadline=None)
@given(
    batches=st.lists(st.lists(st.text(max_size=120), max_size=10), min_size=1, max_size=5),
    segment_bytes=st.integers(1, 1500),
    empty_at=st.integers(0, 10),
)
def test_packed_batches_write_the_old_framing(tmp_path_factory, batches, segment_bytes, empty_at):
    """``append_many`` packs a batch's frames into one buffer per segment
    run: the segment files are byte-equal to the frames ``header + body``
    laid out as before, however the bodies are batched and wherever a
    segment rolls mid-batch; every offset reads back its body; and a batch
    with an empty body anywhere is refused with no byte written."""
    path = tmp_path_factory.mktemp("log")
    bodies = [[StreamRecord({"text": text}, None, float(len(text))).to_bytes() for text in batch] for batch in batches]
    flat = [body for batch in bodies for body in batch]
    log = DurableLog(path, segment_bytes=segment_bytes, sync=False)
    first = 0
    for batch in bodies:
        assert log.append_many(batch) == range(first, first + len(batch))
        first += len(batch)
    files = {p.name: p.read_bytes() for p in path.iterdir()}
    assert files == _segments_oracle([_frame_bytes(body) for body in flat], segment_bytes)
    for offset, body in enumerate(flat):
        records = log.replay_from(offset)
        record = next(records)
        records.close()
        assert (record.offset, record.to_bytes()) == (offset, body)
    refused = list(bodies[-1])
    refused.insert(min(empty_at, len(refused)), b"")
    with pytest.raises(ValueError):
        log.append_many(refused)
    assert log.next_offset == len(flat)
    log.close()
    assert {p.name: p.read_bytes() for p in path.iterdir()} == files


@settings(max_examples=30, deadline=None)
@given(acked=st.lists(st.integers(1, 5), max_size=3), cut=st.floats(0, 1, exclude_max=True))
def test_a_torn_write_inside_one_large_batch_keeps_an_in_order_prefix(tmp_path_factory, acked, cut):
    """A crash inside a batch as large as ``replay --out`` commits, with
    the segment cut at any byte of that batch: recovery keeps every record
    acked before it, then the batch's complete frames in order, and drops
    the rest."""
    from driftstream.cli import REPLAY_BATCH_BYTES

    path = tmp_path_factory.mktemp("large") / "log"
    bodies, held = [], 0
    while held < REPLAY_BATCH_BYTES:
        i = len(bodies)
        bodies.append(encode_post_record(Post(i, 1583020800.0 + i, f"corona news {'x' * (i % 97)}"), 1583020800.625))
        held += len(bodies[-1])
    records_acked = [_record(i) for i in range(sum(acked))]
    with DurableLog(path, sync=False) as log:
        first = 0
        for size in acked:
            log.append_many(records_acked[first:first + size])
            first += size
        segment = next(path.glob("*.seg"))
        batch_start = segment.stat().st_size
        assert log.append_many(bodies) == range(first, first + len(bodies))
    data = segment.read_bytes()
    torn_at = batch_start + int(cut * (len(data) - batch_start))
    segment.write_bytes(data[:torn_at])
    complete, end = 0, batch_start
    while complete < len(bodies) and end + FRAME_HEADER.size + len(bodies[complete]) <= torn_at:
        end += FRAME_HEADER.size + len(bodies[complete])
        complete += 1
    with DurableLog(path, sync=False) as recovered:
        replayed = list(recovered.replay_from(0))
        assert recovered.truncated_bytes == torn_at - end
    assert [r.offset for r in replayed] == list(range(len(records_acked) + complete))
    assert [r.to_bytes() for r in replayed] == [r.to_bytes() for r in records_acked] + bodies[:complete]


class _CountedFile:
    """A segment writer that records the size of each write. Once a (bytes
    that land, error) pair is put in ``failure``, the next write lands only
    that many bytes and raises the error."""

    def __init__(self, file, sizes: list[int], failure: list):
        self._file, self._sizes, self._failure = file, sizes, failure

    def write(self, data):
        if self._failure:
            torn, error = self._failure.pop()
            self._file.write(data[:torn])
            raise error
        self._sizes.append(len(data))
        return self._file.write(data)

    def __getattr__(self, name):
        return getattr(self._file, name)


class _WriteCounter:
    """Wraps every file ``DurableLog`` opens to append to in a ``_CountedFile``."""

    def __init__(self, monkeypatch):
        self.sizes: list[int] = []  # of each write, in call order
        self.failure: list = []  # (bytes that land, the error) for the next write

        def opener(path, mode="r"):
            file = open(path, mode)
            return _CountedFile(file, self.sizes, self.failure) if mode == "ab" else file

        monkeypatch.setattr(log_module, "open", opener, raising=False)


@pytest.mark.parametrize(
    "segment_bytes, writes",
    [
        (DEFAULT_SEGMENT_BYTES, [1, 1, 1, 1, 1, 1]),
        (1, [5, 1, 4, 7, 1, 12]),  # a segment per frame
        # three 91- or 94-byte frames fill a segment; the 4-record batch
        # finds segment 3 full and 6..9 land in segments 6 and 9
        (200, [2, 1, 2, 3, 1, 4]),
    ],
)
def test_one_write_per_segment_a_batch_lands_in(tmp_path, monkeypatch, segment_bytes, writes):
    """Each batch's frames reach each segment in one write, and each segment
    it touches is committed once: every write, empty where a batch finds the
    active segment already full, is followed by that segment's fsync."""
    batches = [5, 1, 4, 7, 1, 12]
    records = [_record(i) for i in range(sum(batches))]
    frames = [_frame_bytes(r) for r in records]
    layout = _segments_oracle(frames, segment_bytes)
    bases = sorted(int(name.split(".")[0]) for name in layout)
    counter = _WriteCounter(monkeypatch)
    fsyncs = _FsyncCounter(monkeypatch)
    log = DurableLog(tmp_path / "log", segment_bytes=segment_bytes, sync=True)
    first, found = 0, []
    for size in batches:
        before = len(counter.sizes)
        assert log.append_many(records[first:first + size]) == range(first, first + size)
        sizes = [n for n in counter.sizes[before:] if n]
        landed = {max(b for b in bases if b <= offset) for offset in range(first, first + size)}
        assert len(sizes) == len(landed)  # the segments the oracle puts this batch's frames in
        assert sum(sizes) == sum(map(len, frames[first:first + size]))
        found.append(len(sizes))
        first += size
    assert found == writes
    assert len(fsyncs.files) == len(counter.sizes)
    log.close()
    assert {p.name: p.read_bytes() for p in (tmp_path / "log").iterdir()} == layout


@settings(max_examples=40, deadline=None)
@given(
    batches=st.lists(st.integers(0, 9), min_size=1, max_size=8),
    segment_bytes=st.sampled_from((1, 100, 200, 300, 1000)),
    reopens=st.sets(st.integers(0, 7)),
)
def test_any_batching_writes_the_segments_of_the_layout_oracle(tmp_path_factory, batches, segment_bytes, reopens):
    """Segment files depend on the frames alone: not on how they are
    batched, nor on reopens between batches."""
    path = tmp_path_factory.mktemp("log")
    records = [_record(i) for i in range(sum(batches))]
    log = DurableLog(path, segment_bytes=segment_bytes, sync=False)
    first = 0
    for k, size in enumerate(batches):
        if k in reopens:
            log.close()
            log = DurableLog(path, segment_bytes=segment_bytes, sync=False)
        assert log.append_many(records[first:first + size]) == range(first, first + size)
        first += size
    log.close()
    files = {p.name: p.read_bytes() for p in path.iterdir()}
    assert files == _segments_oracle([_frame_bytes(r) for r in records], segment_bytes)


def test_a_write_failing_mid_batch_refuses_appends_and_recovers_the_acked_prefix(tmp_path, monkeypatch):
    """The disk fills partway through a batch's first frame: the batch
    raises, no later append is acked, and a reopen truncates the torn frame
    back to the records acked before it."""
    counter = _WriteCounter(monkeypatch)
    path = tmp_path / "log"
    log = DurableLog(path, sync=True)
    assert log.append_many([_record(i) for i in range(3)]) == range(0, 3)
    torn = FRAME_HEADER.size + 5
    counter.failure.append((torn, OSError(errno.ENOSPC, "No space left on device")))
    with pytest.raises(LogAppendError, match="No space left on device"):
        log.append_many([_record(i) for i in range(3, 8)])
    assert not counter.failure
    for append in (lambda: log.append(_record(8)), lambda: log.append_many([_record(8)]),
                   lambda: log.append_many([])):
        with pytest.raises(LogAppendError, match="refused"):
            append()
    log.close()  # flushes the torn bytes to the segment

    with DurableLog(path, sync=True) as reopened:
        assert reopened.truncated_bytes == torn
        assert [(r.offset, r.payload["i"]) for r in reopened.replay_from(0)] == [(0, 0), (1, 1), (2, 2)]
        assert reopened.append(_record(3)) == 3
    assert next(path.glob("*.seg")).read_bytes() == b"".join(_frame_bytes(_record(i)) for i in range(4))
