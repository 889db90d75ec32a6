"""Parsing, archive replay, and the synthetic generator."""

from __future__ import annotations

import json
from collections import Counter

from datetime import datetime, timezone

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from driftstream.cli import main
from driftstream.core.log import DurableLog
from driftstream.core.records import decode_json
from driftstream.sources import archive as archive_module
from driftstream.sources.posts import Post, Rejection, parse_post
from driftstream.sources.archive import posts_from_archive
from driftstream.sources.synthetic import (
    DriftTermSchedule,
    SyntheticConfig,
    SyntheticConfigError,
    generate_synthetic,
    load_ground_truth,
)
from driftstream.timeutil import (
    LEGACY_FORMAT,
    TimestampError,
    day_key,
    format_timestamp,
    parse_legacy,
    parse_timestamp,
)


SAMPLE_LINE = json.dumps(
    {
        "created_at": "Sat Feb 29 18:59:56 +0000 2020",
        "id": 1233829273691049984,
        "text": "Coronavirus will spread in California, health officials say: "
        "'It's already out of the bag'",
    }
)


class TestParsePost:
    def test_legacy_timestamp_line_parses(self):
        post = parse_post(SAMPLE_LINE)
        assert isinstance(post, Post)
        assert post.id == 1233829273691049984
        assert post.created_at == parse_timestamp("2020-02-29T18:59:56Z")

    def test_iso_timestamp_line_parses(self):
        line = json.dumps({"created_at": "2020-03-01T00:00:00Z", "id": 5, "text": "hi virus"})
        post = parse_post(line)
        assert isinstance(post, Post)
        assert post.created_at == parse_timestamp("2020-03-01T00:00:00Z")

    def test_empty_line_rejected(self):
        rejection = parse_post("")
        assert isinstance(rejection, Rejection)
        assert rejection.reason == "empty"

    def test_missing_text_rejected(self):
        line = json.dumps({"created_at": "2020-03-01T00:00:00Z", "id": 5})
        rejection = parse_post(line)
        assert rejection == Rejection("missing_field")

    def test_missing_id_rejected(self):
        line = json.dumps({"created_at": "2020-03-01T00:00:00Z", "text": "x"})
        assert parse_post(line).reason == "missing_field"

    def test_bad_json_rejected(self):
        assert parse_post("{not json").reason == "bad_json"
        assert parse_post('"just a string"').reason == "bad_json"

    def test_bad_timestamp_rejected(self):
        line = json.dumps({"created_at": "yesterday-ish", "id": 5, "text": "x"})
        assert parse_post(line).reason == "bad_timestamp"

    def test_invalid_utf8_rejected(self):
        assert parse_post(b'{"id": 1, "text": "\xff\xfe"}').reason == "bad_utf8"

    def test_non_numeric_id_rejected(self):
        line = json.dumps({"created_at": "2020-03-01T00:00:00Z", "id": "abc", "text": "x"})
        assert parse_post(line).reason == "bad_id"

    def test_retweeted_id_round_trips(self):
        line = json.dumps(
            {"created_at": "2020-03-01T00:00:00Z", "id": 9, "text": "rt", "retweeted_id": 7}
        )
        post = parse_post(line)
        assert post.is_retweet_of == 7


# Any JSON value; floats include NaN and the infinities, which json.dumps
# writes as NaN, Infinity and -Infinity.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)

# Ways a document becomes a line json.loads treats differently from a bare
# document; k picks a cut point.
MUTATIONS = {
    "as is": lambda doc, k: doc,
    "leading space": lambda doc, k: " " + doc,
    "trailing space": lambda doc, k: doc + " ",
    "leading tab": lambda doc, k: "\t" + doc,
    "trailing tab": lambda doc, k: doc + "\t",
    "leading CR": lambda doc, k: "\r" + doc,
    "trailing CR": lambda doc, k: doc + "\r",
    "BOM": lambda doc, k: "\ufeff" + doc,
    "trailing garbage": lambda doc, k: doc + "x",
    "truncated": lambda doc, k: doc[: k % max(len(doc), 1)],
    "two documents": lambda doc, k: doc + doc,
    "two documents, spaced": lambda doc, k: doc + " " + doc,
    "NaN and Infinity": lambda doc, k: f"[{doc}, NaN, Infinity, -Infinity]",
}


def _outcome(decode, text):
    """What ``decode(text)`` gives: the object's repr (NaN equals itself, and
    1, 1.0 and True differ), or the exception's type and message."""
    try:
        return "ok", repr(decode(text))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


class TestDecodeJson:
    """``decode_json`` is ``json.loads`` by a faster path: every outcome,
    object or exception, must be the same."""

    @given(JSON_VALUES, st.booleans(), st.sampled_from(sorted(MUTATIONS)), st.integers(0, 10**6))
    def test_equals_json_loads_on_documents_and_mutations(self, value, ascii_only, mutation, k):
        text = MUTATIONS[mutation](json.dumps(value, ensure_ascii=ascii_only), k)
        assert _outcome(decode_json, text) == _outcome(json.loads, text)

    @given(st.text())
    @example("")
    @example(" \t\r\n")
    @example('{"a": 1} {"b": 2}')
    @example("\ufeff{}")
    @example("7" * 4301)
    @example("[" * 100_000 + "]" * 100_000)
    def test_equals_json_loads_on_any_text(self, text):
        assert _outcome(decode_json, text) == _outcome(json.loads, text)


# A valid line's other fields, for lines that break one field.
REST = '"text": "corona news", "created_at": "2020-03-01T00:00:05Z"'

# Each malformed shape and the reason it is counted under. Before the field
# rule, the digit limit, the nesting, id 1e400 and both timestamps stopped a
# run or a replay, and ids true, 1.9 and 1.0 became a post.
MALFORMED_SHAPES = {
    "int past the 4,300-digit limit": ('{"id": %s, %s}' % ("7" * 4301, REST), "bad_json"),
    "nesting past the recursion limit": ("[" * 100_000 + "]" * 100_000, "bad_json"),
    "id 1e400": ('{"id": 1e400, %s}' % REST, "bad_id"),
    "id string past the digit limit": ('{"id": "%s", %s}' % ("7" * 4301, REST), "bad_id"),
    "id true": ('{"id": true, %s}' % REST, "bad_id"),
    "id 1.9": ('{"id": 1.9, %s}' % REST, "bad_id"),
    "id 1.0": ('{"id": 1.0, %s}' % REST, "bad_id"),
    "id NaN": ('{"id": NaN, %s}' % REST, "bad_id"),
    "id array": ('{"id": [1], %s}' % REST, "bad_id"),
    "timestamp before year 1 UTC": (
        '{"id": 5, "text": "corona news", "created_at": "0001-01-01T00:00:00+01:00"}', "bad_timestamp"),
    "timestamp past year 9999 UTC": (
        '{"id": 5, "text": "corona news", "created_at": "Fri Dec 31 23:59:59 -0100 9999"}', "bad_timestamp"),
}

# Lines that parse, with the field a malformed value leaves at its default
# or, for a string id, converts.
NORMALISED_SHAPES = {
    "retweeted_id 1e400": ('{"id": 2, "retweeted_id": 1e400, %s}' % REST, "is_retweet_of", None),
    "retweeted_id true": ('{"id": 2, "retweeted_id": true, %s}' % REST, "is_retweet_of", None),
    "retweeted_id 1.5": ('{"id": 2, "retweeted_id": 1.5, %s}' % REST, "is_retweet_of", None),
    "retweeted_id x": ('{"id": 2, "retweeted_id": "x", %s}' % REST, "is_retweet_of", None),
    "retweeted_id string": ('{"id": 2, "retweeted_id": "7", %s}' % REST, "is_retweet_of", 7),
    "channel null": ('{"id": 3, "channel": null, %s}' % REST, "channel", "twitter"),
    "channel array": ('{"id": 3, "channel": ["who"], %s}' % REST, "channel", "twitter"),
    "lang 7": ('{"id": 4, "lang": 7, %s}' % REST, "lang", "und"),
    "lang false": ('{"id": 4, "lang": false, %s}' % REST, "lang", "und"),
    "id string": ('{"id": " 12 ", %s}' % REST, "id", 12),
}

REASONS = {"empty", "bad_utf8", "bad_json", "missing_field", "bad_id", "bad_timestamp"}
FIELDS = ("id", "text", "created_at", "retweeted_id", "lang", "channel")


class TestMalformedLines:
    @pytest.mark.parametrize("line, reason", MALFORMED_SHAPES.values(), ids=list(MALFORMED_SHAPES))
    def test_shape_is_rejected_by_reason(self, line, reason):
        for form in (line, line.encode()):
            rejection = parse_post(form)
            assert isinstance(rejection, Rejection)
            assert rejection.reason == reason

    @pytest.mark.parametrize("line, field, value", NORMALISED_SHAPES.values(), ids=list(NORMALISED_SHAPES))
    def test_shape_parses_with_field(self, line, field, value):
        post = parse_post(line)
        assert isinstance(post, Post)
        assert getattr(post, field) == value

    @given(st.dictionaries(st.sampled_from(FIELDS), JSON_VALUES | st.sampled_from(
        ("2020-03-01T00:00:00Z", "Sat Feb 29 18:59:56 +0000 2020", "12", "-3", "corona", "en")
    )))
    def test_any_field_values_give_a_typed_post_or_a_rejection(self, obj):
        result = parse_post(json.dumps(obj))
        if isinstance(result, Rejection):
            assert result.reason in REASONS
            return
        assert type(result.id) is int and type(result.text) is str and result.text
        assert type(result.lang) is str and type(result.channel) is str
        assert result.is_retweet_of is None or type(result.is_retweet_of) is int
        assert parse_timestamp(format_timestamp(result.created_at)) == float(int(result.created_at))

    def test_probe_archive_runs_and_replays(self, tmp_path, capsys):
        """An archive holding every shape: ``run`` counts each malformed one
        under its reason, and both ``run`` and ``replay --out`` exit 0."""
        good = '{"id": 1, "text": "corona news in madrid", "created_at": "2020-03-01T00:00:00Z"}'
        lone_surrogate_lang = '{"id": 9, "lang": "\\udfff", %s}' % REST
        shapes = [line for line, _ in MALFORMED_SHAPES.values()]
        shapes += [line for line, _, _ in NORMALISED_SHAPES.values()] + [lone_surrogate_lang]
        archive = tmp_path / "probe.jsonl"
        archive.write_text("\n".join([good, *shapes]) + "\n")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"archive": str(archive), "out_dir": str(tmp_path / "out")}))

        assert main(["run", "--config", str(config)]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["rejections"] == dict(Counter(reason for _, reason in MALFORMED_SHAPES.values()))
        assert summary["records_in"] == 2 + len(NORMALISED_SHAPES)
        assert "\\udfff," in (tmp_path / "out" / "languages.csv").read_text()

        capsys.readouterr()
        assert main(["replay", "--archive", str(archive), "--out", str(tmp_path / "log")]) == 0
        assert json.loads(capsys.readouterr().out)["records_out"] == 2 + len(NORMALISED_SHAPES)


class TestTimestampMemo:
    """parse_timestamp remembers its last string; the answers must not change."""

    ISO = "2020-02-29T18:59:56Z"
    LEGACY = "Sun Mar 01 00:00:00 +0000 2020"
    ISO_EPOCH = 1583002796.0
    LEGACY_EPOCH = 1583020800.0

    def test_repeated_string_gives_same_epoch(self):
        assert [parse_timestamp(self.ISO) for _ in range(3)] == [self.ISO_EPOCH] * 3

    def test_alternating_iso_and_legacy(self):
        for _ in range(3):
            assert parse_timestamp(self.ISO) == self.ISO_EPOCH
            assert parse_timestamp(self.LEGACY) == self.LEGACY_EPOCH
            assert parse_timestamp(self.LEGACY) == self.LEGACY_EPOCH

    def test_bad_string_after_good_raises_every_time(self):
        assert parse_timestamp(self.ISO) == self.ISO_EPOCH
        for bad in ("yesterday-ish", "yesterday-ish", "   ", "   "):
            with pytest.raises(TimestampError):
                parse_timestamp(bad)
        assert parse_timestamp(self.ISO) == self.ISO_EPOCH

    @given(st.lists(st.tuples(
        st.integers(0, 3 * 60 - 1),
        st.booleans(),
        st.none() | st.sampled_from(("60", "61", "99", "5a", "a5", " 5", "5 ", "\u0663\u0663", "+5", "-1")),
        st.sampled_from(("", " ", "\t")),
    ), max_size=40))
    @example([(5, True, None, ""), (6, True, "60", ""), (7, False, None, ""), (8, False, "a5", ""), (9, True, None, " ")])
    def test_minute_memo_changes_no_outcome(self, stamps):
        """Canonical strings of a few minutes in both forms, some with other
        characters where the seconds go or with padding: parsed in order,
        each gives what it gives parsed with every memo empty."""
        import driftstream.timeutil as timeutil

        def outcome(text):
            try:
                return parse_timestamp(text)
            except TimestampError:
                return "refused"

        def empty_memos():
            timeutil._last_parsed = (None, 0.0)
            timeutil._minute_epochs.clear()

        texts = []
        for second, legacy, seconds, pad in stamps:
            at = datetime.fromtimestamp(self.LEGACY_EPOCH + second, tz=timezone.utc)
            text = at.strftime(LEGACY_FORMAT) if legacy else format_timestamp(self.LEGACY_EPOCH + second)
            texts.append(pad + (text if seconds is None else text[:17] + seconds + text[19:]))
        expected = []
        for text in texts:
            empty_memos()
            expected.append(outcome(text))
        empty_memos()
        assert [outcome(text) for text in texts] == expected

    @pytest.mark.parametrize("created_at", [[ISO], {"t": ISO}, 1583020800])
    def test_non_string_created_at_is_bad_timestamp(self, created_at):
        good = json.dumps({"created_at": self.ISO, "id": 5, "text": "x"})
        bad = json.dumps({"created_at": created_at, "id": 6, "text": "x"})
        assert parse_post(good).created_at == self.ISO_EPOCH
        for _ in range(2):
            assert parse_post(bad).reason == "bad_timestamp"
        assert parse_post(good).created_at == self.ISO_EPOCH


# Odd spellings of each field: names strptime matches case-insensitively or
# not at all, one-digit and out-of-range days, hour 24, minute and second 60,
# offsets of 24 hours or 60 minutes or with a colon, short and zero years.
LEGACY_ODD_FIELDS = {
    "name": ("sun", "SAT", "Xyz", "Sunday"),
    "month": ("feb", "DEC", "Foo", "March"),
    "day": ("0", "00", "1", " 1", "9", "32"),
    "clock": ("24:00:00", "23:60:00", "23:59:60", "23:59:61", "1:2:3"),
    "offset": ("+2400", "-2400", "+0060", "+00:30", "-23:59", "Z", "+000000"),
    "year": ("20", "0000", "99999"),
}


FEB_29_YEARS = (4, 100, 400, 1600, 1900, 2000, 2019, 2020, 2100, 2400, 9996, 9999)


@st.composite
def legacy_strings(draw):
    """A canonical legacy timestamp (days up to 31 in every month, years 1
    to 9999, Feb 29 of leap, common and century years, offsets up to
    ±23:59), with up to two fields swapped for an odd spelling."""
    fields = {
        "name": draw(st.sampled_from(("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"))),
        "month": draw(st.sampled_from(("Jan", "Feb", "Mar", "Apr", "Jun", "Sep", "Dec"))),
        "day": f"{draw(st.integers(1, 31)):02d}",
        "clock": "{:02d}:{:02d}:{:02d}".format(
            draw(st.integers(0, 23)), draw(st.integers(0, 59)), draw(st.integers(0, 59))
        ),
        "offset": draw(
            st.sampled_from(("+2359", "-2359"))
            | st.builds("{}{:02d}{:02d}".format, st.sampled_from("+-"), st.integers(0, 23), st.integers(0, 59))
        ),
        "year": f"{draw(st.integers(1, 9999)):04d}",
    }
    if draw(st.integers(0, 3)) == 0:  # Feb 29 of a leap, a common or a century year
        fields.update(month="Feb", day="29", year=f"{draw(st.sampled_from(FEB_29_YEARS)):04d}")
    for key in draw(st.lists(st.sampled_from(sorted(LEGACY_ODD_FIELDS)), max_size=2, unique=True)):
        fields[key] = draw(st.sampled_from(LEGACY_ODD_FIELDS[key]))
    return " ".join(fields.values())


class TestLegacyFastPath:
    """parse_timestamp parses the canonical legacy form itself; strptime is its oracle."""

    @staticmethod
    def _check(text):
        try:
            expected = datetime.strptime(text, LEGACY_FORMAT)
        except ValueError:
            with pytest.raises(ValueError):
                parse_legacy(text)
            with pytest.raises(TimestampError):
                parse_timestamp(text)
            return
        got = parse_legacy(text)
        assert (got, got.utcoffset()) == (expected, expected.utcoffset())
        assert parse_timestamp(text) == expected.timestamp()

    @given(legacy_strings())
    def test_parse_legacy_equals_strptime(self, text):
        self._check(text)

    @pytest.mark.parametrize(
        "field,odd", [(field, odd) for field, odds in LEGACY_ODD_FIELDS.items() for odd in odds]
    )
    def test_every_odd_spelling_parses_like_strptime(self, field, odd):
        fields = dict(zip(LEGACY_ODD_FIELDS, "Sun Mar 01 12:30:45 +0530 2020".split()))
        fields[field] = odd
        self._check(" ".join(fields.values()))

    def test_weekday_is_ignored_like_strptime(self):
        # 2020-03-01 was a Sunday
        for text in ("Sun Mar 01 00:00:00 +0000 2020", "Wed Mar 01 00:00:00 +0000 2020"):
            assert parse_legacy(text) == datetime.strptime(text, LEGACY_FORMAT)
            assert parse_timestamp(text) == 1583020800.0

    @pytest.mark.parametrize(
        "text",
        [
            "Sat Feb 29 18:59:56 -0130 2020",
            "Tue Feb 29 00:00:00 +0000 2000",
            "Mon Feb 29 23:59:59 -2359 2400",
            "Mon Jan 01 00:00:00 +2359 0001",
            "Fri Dec 31 23:59:59 -2359 9999",
            "Thu Jan 01 00:00:00 +0000 1970",
        ],
    )
    def test_canonical_timestamp_skips_datetime(self, monkeypatch, text):
        import driftstream.timeutil as timeutil

        class Refused:
            def __getattr__(self, name):
                raise AssertionError(f"{name} called")

        expected = datetime.strptime(text, LEGACY_FORMAT).timestamp()
        for name in ("datetime", "timezone"):
            monkeypatch.setattr(timeutil, name, Refused())
        monkeypatch.setattr(timeutil, "_last_parsed", (None, 0.0))
        assert timeutil.parse_timestamp(text) == expected

    @pytest.mark.parametrize(
        "text", ["Sat Feb 29 00:00:00 +0000 2019", "Sat Feb 29 00:00:00 +0000 1900", "Sat Feb 29 00:00:00 +0000 2100"]
    )
    def test_feb_29_of_a_common_year_is_refused(self, text):
        with pytest.raises(TimestampError):
            parse_timestamp(text)


# Every epoch second that datetime can hold: 0001-01-01 to 9999-12-31.
MIN_EPOCH = -62135596800
MAX_EPOCH = 253402300799
YEAR_999 = -30641760000  # 0999-01-01T00:00:00Z


def iso_oracle(epoch) -> str:
    """``format_timestamp``'s contract, from ``datetime.isoformat`` (zero-padded year)."""
    return datetime.fromtimestamp(int(epoch), tz=timezone.utc).replace(tzinfo=None).isoformat() + "Z"


class TestFormatTimestamp:
    @given(
        st.lists(st.integers(MIN_EPOCH, MAX_EPOCH) | st.floats(MIN_EPOCH, MAX_EPOCH), min_size=1, max_size=8),
        st.lists(st.integers(0, 86399), max_size=4),
        st.randoms(use_true_random=False),
    )
    def test_equals_datetime_oracle_in_any_order(self, epochs, clocks, rnd):
        # other seconds of the same days, shuffled in: the day memo must not
        # depend on which call came first
        epochs = epochs + [int(t) // 86400 * 86400 + clock for t in epochs for clock in clocks]
        rnd.shuffle(epochs)
        assert [format_timestamp(t) for t in epochs] == [iso_oracle(t) for t in epochs]

    @given(
        st.lists(
            st.tuples(
                # the first second of a run: anywhere, just before a day
                # (and so a minute) starts, or at either end of the range
                st.integers(MIN_EPOCH, MAX_EPOCH)
                | st.builds(lambda day, before: day * 86400 - before,
                            st.integers(MIN_EPOCH // 86400 + 1, MAX_EPOCH // 86400), st.integers(0, 90))
                | st.sampled_from((MIN_EPOCH, MAX_EPOCH - 119, YEAR_999 - 61)),
                st.sampled_from((0.0, 0.5)),
                st.integers(1, 120),  # consecutive seconds
                st.booleans(),  # a day_key call after each
            ),
            min_size=1, max_size=6,
        )
    )
    @example([(-1, 0.5, 1, True), (-60, 0.5, 1, True), (-60, 0.5, 1, False), (0, 0.0, 61, True)])  # -0.5, -59.5
    @example([(MIN_EPOCH, 0.0, 120, True), (MAX_EPOCH - 119, 0.5, 120, False), (MIN_EPOCH, 0.5, 61, False)])
    def test_minute_memo_equals_datetime_oracle_over_runs_and_jumps(self, runs):
        """Runs of consecutive seconds mostly hit the remembered minute and
        cross minute and day boundaries; each new run jumps, often far. The
        pipeline's other caller, ``day_key``, renders a day's first second,
        so calls to it in between must change no rendering."""
        for start, fraction, length, keyed in runs:
            for second in range(start, min(start + length, MAX_EPOCH + 1)):
                epoch = second + fraction
                assert format_timestamp(epoch) == iso_oracle(epoch)
                if keyed:
                    date = datetime.fromtimestamp(epoch, tz=timezone.utc)
                    assert day_key(epoch) == f"{date.year:04d}-{date.month:02d}-{date.day:02d}"

    @given(st.integers(MIN_EPOCH, MAX_EPOCH) | st.floats(MIN_EPOCH, MAX_EPOCH))
    @example(YEAR_999)
    @example(MIN_EPOCH)
    @example(-0.5)
    def test_parse_round_trips_over_the_datetime_range(self, epoch):
        assert parse_timestamp(format_timestamp(epoch)) == float(int(epoch))

    def test_year_below_1000_is_zero_padded(self):
        assert format_timestamp(YEAR_999) == "0999-01-01T00:00:00Z"
        assert format_timestamp(MIN_EPOCH) == "0001-01-01T00:00:00Z"
        assert format_timestamp(MAX_EPOCH) == "9999-12-31T23:59:59Z"

    def test_replayed_year_999_payload_reads_back(self, tmp_path):
        archive = tmp_path / "a.jsonl"
        archive.write_text(json.dumps({"created_at": "0999-01-01T00:00:00Z", "id": 1, "text": "x"}) + "\n")
        assert main(["replay", "--archive", str(archive), "--out", str(tmp_path / "log")]) == 0
        with DurableLog(tmp_path / "log") as log:
            (record,) = log.replay_from(0)
        assert record.payload["created_at"] == "0999-01-01T00:00:00Z"
        assert Post.from_payload(record.payload).created_at == YEAR_999


class TestDayKeys:
    @given(st.integers(MIN_EPOCH, MAX_EPOCH), st.sampled_from((0.0, 0.25, 0.5, 0.75)))
    @example(YEAR_999, 0.0)
    @example(MIN_EPOCH, 0.0)
    @example(-1, 0.5)  # -0.5 s is 1969-12-31
    def test_equal_zero_padded_datetime_oracle(self, seconds, fraction):
        """The ``month.csv`` and ``region_day.csv`` keys pad the year to four
        digits, as ``format_timestamp`` does."""
        epoch = seconds + fraction
        date = datetime.fromtimestamp(epoch, tz=timezone.utc)
        assert day_key(epoch) == f"{date.year:04d}-{date.month:02d}-{date.day:02d}"
        assert day_key(epoch)[:7] == f"{date.year:04d}-{date.month:02d}"


class TestReplayArchive:
    def test_counts_rejections_and_emits_valid(self, tmp_path):
        archive = tmp_path / "a.jsonl"
        lines = [
            SAMPLE_LINE,
            "",
            "{broken",
            json.dumps({"created_at": "2020-03-01T00:00:00Z", "id": 2, "text": "ok"}),
        ]
        archive.write_text("\n".join(lines) + "\n")
        rejections = Counter()
        posts = list(posts_from_archive(archive, rejections, speed="max"))
        assert [p.id for p in posts] == [1233829273691049984, 2]
        assert rejections == {"empty": 1, "bad_json": 1}

    def test_double_replay_identical(self, tmp_path):
        archive = tmp_path / "a.jsonl"
        archive.write_text(
            "\n".join(
                json.dumps({"created_at": "2020-03-01T00:00:00Z", "id": i, "text": f"post {i}"})
                for i in range(10)
            )
            + "\n"
        )
        first = [p.to_payload() for p in posts_from_archive(archive)]
        second = [p.to_payload() for p in posts_from_archive(archive)]
        assert len(first) == 10
        assert first == second

    def test_missing_file_is_startup_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            list(posts_from_archive(tmp_path / "nope.jsonl"))

    def test_bad_speed_rejected(self, tmp_path):
        archive = tmp_path / "a.jsonl"
        archive.write_text("\n")
        for speed in (0, -2, "abc", float("nan")):
            with pytest.raises(ValueError):
                list(posts_from_archive(archive, speed=speed))

    def test_emitted_count_matches_offline_parse_oracle(self, tmp_path):
        corpus = generate_synthetic(
            SyntheticConfig(seed=21, duration_minutes=90, base_rate_per_minute=110),
            tmp_path,
        )
        oracle = 0
        with open(corpus.archive_path, "rb") as f:
            for line in f:
                if isinstance(parse_post(line.rstrip(b"\n")), Post):
                    oracle += 1
        assert sum(1 for _ in posts_from_archive(corpus.archive_path)) == oracle == corpus.post_count

    def test_pacing_sleeps_event_gap_over_speed(self, tmp_path, monkeypatch):
        archive = tmp_path / "a.jsonl"
        archive.write_text(
            "\n".join(
                json.dumps({"created_at": f"2020-03-01T00:00:{10 * i:02d}Z", "id": i, "text": "x"})
                for i in range(4)
            )
            + "\n"
        )
        sleeps: list[float] = []
        monkeypatch.setattr(archive_module.time, "sleep", sleeps.append)
        assert len(list(posts_from_archive(archive, speed=2))) == 4
        assert sleeps == [5.0, 5.0, 5.0]
        sleeps.clear()
        assert len(list(posts_from_archive(archive, speed="max"))) == 4
        assert sleeps == []


class TestSyntheticGenerator:
    def test_same_seed_gives_byte_identical_files(self, tmp_path):
        config = SyntheticConfig(
            seed=1,
            duration_minutes=20,
            drift_schedule=[DriftTermSchedule("facemask", 0, 600)],
        )
        a = generate_synthetic(config, tmp_path / "a")
        b = generate_synthetic(config, tmp_path / "b")
        assert a.archive_path.read_bytes() == b.archive_path.read_bytes()
        assert a.truth_path.read_bytes() == b.truth_path.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a = generate_synthetic(SyntheticConfig(seed=1, duration_minutes=10), tmp_path / "a")
        b = generate_synthetic(SyntheticConfig(seed=2, duration_minutes=10), tmp_path / "b")
        assert a.archive_path.read_bytes() != b.archive_path.read_bytes()

    def test_solo_posts_start_at_solo_phase_and_carry_no_seed(self, tmp_path):
        config = SyntheticConfig(
            seed=5,
            duration_minutes=60,
            base_rate_per_minute=60,
            drift_schedule=[DriftTermSchedule("facemask", 0, 1800)],
        )
        corpus = generate_synthetic(config, tmp_path)
        truth = load_ground_truth(corpus.truth_path)
        solo_ids = {pid for pid, label in truth.items() if label["drift_phase"] == "solo"}
        assert solo_ids, "fixture must produce solo posts"
        start = parse_timestamp(config.start_time)
        for post in posts_from_archive(corpus.archive_path):
            if post.id in solo_ids:
                assert post.created_at - start >= 1800
                lowered = post.text.lower()
                assert "facemask" in lowered
                assert not any(k in lowered for k in config.seed_keywords)
                assert truth[post.id]["relevant"] is True

    def test_contradictory_schedule_rejected(self):
        with pytest.raises(SyntheticConfigError):
            SyntheticConfig(
                seed=1,
                drift_schedule=[DriftTermSchedule("facemask", 600, 600)],
            ).validate()

    def test_post_count_within_poisson_band(self, tmp_path):
        from scipy.stats import poisson

        corpus = generate_synthetic(
            SyntheticConfig(seed=8, duration_minutes=10, base_rate_per_minute=60),
            tmp_path,
        )
        low, high = poisson.interval(0.99, 600)
        assert low <= corpus.post_count <= high

    def test_sidecar_covers_every_post_and_labels_match_text(self, tmp_path):
        corpus = generate_synthetic(
            SyntheticConfig(seed=13, duration_minutes=15), tmp_path
        )
        truth = load_ground_truth(corpus.truth_path)
        seen = 0
        for post in posts_from_archive(corpus.archive_path):
            seen += 1
            label = truth[post.id]
            lowered = post.text.lower()
            for term in label["misinfo_terms"]:
                assert term in lowered
            if label["region"]:
                assert label["region"] in lowered
        assert seen == len(truth) == corpus.post_count

    def test_ids_unique_and_timestamps_nondecreasing(self, tmp_path):
        corpus = generate_synthetic(
            SyntheticConfig(seed=2, duration_minutes=30), tmp_path
        )
        ids = set()
        previous = None
        for post in posts_from_archive(corpus.archive_path):
            assert post.id not in ids
            ids.add(post.id)
            if previous is not None:
                assert post.created_at >= previous
            previous = post.created_at

    def test_unknown_config_field_rejected(self):
        with pytest.raises(SyntheticConfigError):
            SyntheticConfig.from_dict({"seed": 1, "bogus_field": True})
