"""Misinformation keyword feeds, window tagging, piggyback, authoritative tags."""

from __future__ import annotations

import json
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from driftstream.core.windows import assign_window
from driftstream.drift.cooccurrence import CooccurrenceStats, observe_post
from driftstream.keywords import KeywordSet
from driftstream.misinfo.keywords import (
    MisinfoKeywordSet,
    extract_misinfo_terms,
    refresh_misinfo_keywords,
)
from driftstream.misinfo.piggyback import detect_piggyback
from driftstream.enrich.clean import clean_post
from driftstream.misinfo.tagging import (
    AuthoritativeSourceList,
    tag_misinformation_window,
    window_report,
    window_tally,
)
from driftstream.timeutil import parse_timestamp

from conftest import make_enriched, make_post

HEADLINE_DOC = """\
# News
Vaccine trial enters phase three

# Conspiracy
Plandemic conspiracy
Bleach cure claims spread online
5g towers accused again
Bioweapon lab theory resurfaces
Microchip vaccine rumor grows

# Sports
Big match tonight
"""


# spellings of a few terms: case, outer spaces, a phrase, a tombstone's
TERM_SPELLINGS = ["bleach", "Bleach ", "5g towers", " 5G Towers", "hoax", "plandemic", "microchip", "a-b"]


class TestRefresh:
    def test_terms_file_adds_new_terms(self, tmp_path):
        src = tmp_path / "terms.json"
        src.write_text(json.dumps({"terms": ["bleach"]}))
        keyword_set = MisinfoKeywordSet()
        added = refresh_misinfo_keywords([{"kind": "terms_file", "path": str(src)}], keyword_set)
        assert added == ["bleach"]
        assert "bleach" in keyword_set

    def test_refresh_is_idempotent_on_unchanged_source(self, tmp_path):
        src = tmp_path / "terms.json"
        src.write_text(json.dumps({"terms": ["bleach"]}))
        keyword_set = MisinfoKeywordSet()
        sources = [{"kind": "terms_file", "path": str(src)}]
        refresh_misinfo_keywords(sources, keyword_set)
        assert refresh_misinfo_keywords(sources, keyword_set) == []

    def test_unreadable_source_skipped_and_counted(self, tmp_path):
        keyword_set = MisinfoKeywordSet()
        added = refresh_misinfo_keywords(
            [{"kind": "terms_file", "path": str(tmp_path / "missing.json")}],
            keyword_set,
        )
        assert added == []
        assert sum(index is None for _, index in keyword_set.skipped) == 1
        assert keyword_set.terms == {"bioweapon", "plandemic"}

    def test_blank_or_non_string_term_skipped_and_recorded(self, tmp_path):
        src = tmp_path / "terms.json"
        src.write_text(json.dumps({"terms": ["", "bleach", "  ", None, 5]}))
        keyword_set = MisinfoKeywordSet()
        added = refresh_misinfo_keywords([{"kind": "terms_file", "path": str(src)}], keyword_set)
        assert added == ["bleach"]
        assert keyword_set.skipped == {
            (str(src), 0): "blank term",
            (str(src), 2): "blank term",
            (str(src), 3): "not a string: null",
            (str(src), 4): "not a string: 5",
        }
        assert sum(index is None for _, index in keyword_set.skipped) == 0
        assert keyword_set.terms == {"bioweapon", "plandemic", "bleach"}

    @pytest.mark.parametrize(
        "content, reason",
        [
            (b"not json", 'not a JSON object with a "terms" list'),
            (b'["bleach"]', 'not a JSON object with a "terms" list'),
            (b'{"terms": "bleach"}', 'not a JSON object with a "terms" list'),
            (b'{"terms": ["bl\xe9ach"]}', "not UTF-8"),
        ],
    )
    def test_malformed_source_skipped_and_recorded(self, tmp_path, content, reason):
        src = tmp_path / "terms.json"
        src.write_bytes(content)
        keyword_set = MisinfoKeywordSet()
        sources = [{"kind": "terms_file", "path": str(src)}]
        for _ in range(2):  # a source skipped at every refresh is recorded once
            assert refresh_misinfo_keywords(sources, keyword_set) == []
        assert keyword_set.skipped == {(str(src), None): reason}
        assert keyword_set.terms == {"bioweapon", "plandemic"}

    def test_headline_source_matches_hand_extraction(self, tmp_path):
        src = tmp_path / "headlines.md"
        src.write_text(HEADLINE_DOC)
        keyword_set = MisinfoKeywordSet(seeds=())
        added = refresh_misinfo_keywords(
            [{"kind": "headlines", "path": str(src), "sections": ["conspiracy"]}],
            keyword_set,
        )
        # manual parse of the fixture, one phrase per conspiracy headline
        assert added == sorted(
            [
                "plandemic",
                "bleach cure spread online",
                "towers accused again",
                "bioweapon lab resurfaces",
                "microchip vaccine grows",
            ]
        )

    @given(
        seeds=st.lists(st.sampled_from(TERM_SPELLINGS), max_size=4),
        tombstones=st.lists(st.sampled_from(TERM_SPELLINGS), max_size=3),
        adds=st.lists(st.tuples(st.sampled_from(TERM_SPELLINGS) | st.text("abAB -", min_size=1).filter(str.strip),
                                st.booleans()), max_size=12),
    )
    def test_active_is_the_sorted_untombstoned_terms_after_any_adds(self, seeds, tombstones, adds):
        """``active`` is sorted once after a run of adds, not on each; read
        after any add, or only at the end, it is every term held that is
        not tombstoned, sorted."""
        keyword_set = MisinfoKeywordSet(seeds=seeds, tombstones=tombstones)
        held = {term.strip().lower() for term in seeds}
        dead = {term.strip().lower() for term in tombstones}
        for term, read in adds:
            assert keyword_set.add(term) is (term.strip().lower() not in held)
            held.add(term.strip().lower())
            if read:
                assert keyword_set.active == tuple(sorted(held - dead))
        assert keyword_set.active == tuple(sorted(held - dead))
        assert keyword_set.terms == held

    def test_seeded_terms_always_present(self):
        keyword_set = MisinfoKeywordSet()
        assert {"bioweapon", "plandemic"} <= keyword_set.terms

    def test_tombstoned_term_excluded_from_matching_but_kept(self):
        keyword_set = MisinfoKeywordSet(tombstones=("plandemic",))
        assert "plandemic" in keyword_set
        assert keyword_set.match("plandemic everywhere") == set()

    def test_terms_are_normalized_and_blank_terms_raise(self):
        keyword_set = MisinfoKeywordSet(seeds=(" Bleach", "bleach"))
        assert keyword_set.terms == {"bleach"}
        assert keyword_set.add("BLEACH ") is False
        for blank in ("", "   "):
            with pytest.raises(ValueError, match="non-empty"):
                MisinfoKeywordSet(seeds=(blank,))
            with pytest.raises(ValueError, match="non-empty"):
                keyword_set.add(blank)


class TestExtractTerms:
    def test_plandemic_headline(self):
        doc = "# Conspiracy\nPlandemic conspiracy\n"
        assert extract_misinfo_terms(doc) == ["plandemic"]

    def test_empty_document(self):
        assert extract_misinfo_terms("") == []

    def test_missing_section_yields_empty(self):
        assert extract_misinfo_terms("# News\nAll quiet\n") == []

    def test_five_headlines_five_phrases(self):
        terms = extract_misinfo_terms(HEADLINE_DOC, sections=("conspiracy",))
        assert len(terms) == 5
        assert "plandemic" in terms

    def test_only_configured_sections_are_read(self):
        terms = extract_misinfo_terms(HEADLINE_DOC, sections=("sports",))
        assert terms == ["big match tonight"]


class TestWindowTagging:
    T = parse_timestamp("2020-03-01T00:05:00Z")

    def _window_posts(self, texts, channel="twitter"):
        return [
            make_enriched(post_id=i, text=t, created_at=self.T + i % 50, channel=channel)
            for i, t in enumerate(texts)
        ]

    def test_tags_matching_post(self):
        posts = self._window_posts(["5g caused it, plandemic!", "all fine"])
        tagged, report = tag_misinformation_window(posts, MisinfoKeywordSet())
        assert tagged[0].misinfo_terms == {"plandemic"}
        assert tagged[1].misinfo_terms == set()
        assert (report.posts_in, report.tagged) == (2, 1)
        assert report.term_counts == Counter({"plandemic": 1})

    def test_empty_window_reports_zeros(self):
        tagged, report = tag_misinformation_window([], MisinfoKeywordSet())
        assert tagged == []
        assert (report.posts_in, report.tagged) == (0, 0)

    def test_report_matches_brute_force_recount(self):
        import random

        rng = random.Random(5)
        vocab = ["plandemic", "bioweapon", "vaccine", "weather", "news"]
        texts = [" ".join(rng.choices(vocab, k=rng.randint(1, 6))) for _ in range(1000)]
        posts = self._window_posts(texts)
        keyword_set = MisinfoKeywordSet()
        tagged, report = tag_misinformation_window(posts, keyword_set)

        # recount oracle
        terms = list(keyword_set.active)
        expected_tagged = 0
        expected_counts: Counter = Counter()
        for text in texts:
            hits = {t for t in terms if t in text.lower()}
            if hits:
                expected_tagged += 1
                expected_counts.update(hits)
        assert report.posts_in == 1000
        assert report.tagged == expected_tagged
        assert report.term_counts == expected_counts
        assert report.tagged <= report.posts_in
        assert sum(report.term_counts.values()) >= report.tagged

    def test_mixed_window_rejected(self):
        posts = [
            make_enriched(post_id=1, created_at=self.T),
            make_enriched(post_id=2, created_at=self.T + 120),
        ]
        with pytest.raises(ValueError):
            tag_misinformation_window(posts, MisinfoKeywordSet())

    @pytest.mark.parametrize("offset", [-0.25, 60.0, 60.5, -60.0])
    def test_post_outside_the_window_raises(self, offset):
        # the window is [T, T + 60): set by the first post, fractional times included
        posts = [
            make_enriched(post_id=1, created_at=self.T + 0.25),
            make_enriched(post_id=2, created_at=self.T + 59.75),
            make_enriched(post_id=3, created_at=self.T + offset),
        ]
        with pytest.raises(ValueError, match="post 3 falls outside window"):
            tag_misinformation_window(posts, MisinfoKeywordSet())
        _, report = tag_misinformation_window(posts[:2], MisinfoKeywordSet())
        assert report.posts_in == 2

    @given(st.lists(st.floats(-90.0, 150.0), min_size=1, max_size=8), st.sampled_from((0.5, 60.0, 7.5)))
    def test_window_verdict_equals_assign_window(self, offsets, length):
        posts = [make_enriched(post_id=i, created_at=self.T + o) for i, o in enumerate(offsets)]
        windows = {assign_window(p.post.created_at, length) for p in posts}
        if len(windows) == 1:
            _, report = tag_misinformation_window(posts, MisinfoKeywordSet(), window_length=length)
            assert report.window == windows.pop()
        else:
            with pytest.raises(ValueError):
                tag_misinformation_window(posts, MisinfoKeywordSet(), window_length=length)

    def test_authoritative_post_not_counted_in_tally(self):
        sources = AuthoritativeSourceList(["who.int"])
        debunk = clean_post(
            make_post(1, "plandemic claims are false", self.T, channel="who.int"),
            KeywordSet(),
            authoritative=sources,
        )
        rumor = make_enriched(post_id=2, text="plandemic is real", created_at=self.T)
        tagged, report = tag_misinformation_window([debunk, rumor], MisinfoKeywordSet())
        assert debunk.authoritative is True
        assert debunk.misinfo_terms == {"plandemic"}  # recorded for analysis
        assert report.tagged == 1  # but only the rumor counts
        assert report.term_counts == Counter({"plandemic": 1})

    def test_report_counts_the_tags_posts_hold(self):
        """A closing window reports from the tags its posts already hold
        (taken at ingest); it does not read the text again."""
        posts = self._window_posts(["plandemic!", "no terms here", "bleach"])
        posts[1].misinfo_terms = {"bleach"}
        report = window_report(posts)
        assert (report.posts_in, report.tagged) == (3, 1)
        assert report.term_counts == Counter({"bleach": 1})
        assert window_tally(posts) == (1, Counter({"bleach": 1}))
        assert window_tally(posts[::2]) == (0, None)  # no post tagged: no Counter
        with pytest.raises(ValueError, match="post 9 falls outside window"):
            window_report([*posts, make_enriched(post_id=9, created_at=self.T + 60)])

    def test_refresh_widens_coverage_monotonically(self, tmp_path):
        posts = self._window_posts(["drink bleach they said", "plandemic!"])
        keyword_set = MisinfoKeywordSet()
        _, before = tag_misinformation_window(posts, keyword_set)
        src = tmp_path / "terms.json"
        src.write_text(json.dumps({"terms": ["bleach"]}))
        refresh_misinfo_keywords([{"kind": "terms_file", "path": str(src)}], keyword_set)
        _, after = tag_misinformation_window(posts, keyword_set)
        assert after.tagged >= before.tagged
        assert after.tagged == 2


class TestAuthoritative:
    def test_channel_in_list_tagged(self):
        sources = AuthoritativeSourceList(["who.int", "cdc.gov"])
        post = clean_post(make_post(channel="WHO.INT"), KeywordSet(), authoritative=sources)
        assert post.authoritative is True

    def test_unknown_channel_not_tagged(self):
        sources = AuthoritativeSourceList(["who.int"])
        post = clean_post(make_post(channel="random.blog"), KeywordSet(), authoritative=sources)
        assert post.authoritative is False

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            AuthoritativeSourceList([])


class TestPiggyback:
    def _stats(self, posts):
        stats = CooccurrenceStats()
        for post in posts:
            observe_post(stats, post, KeywordSet())
        return stats.misinfo_side()

    def test_co_trending_term_detected(self):
        keyword_set = MisinfoKeywordSet()  # bioweapon, plandemic
        posts = []
        for i in range(30):
            if i % 3 == 0:
                # rides the rumor: pmi lift 3x -> logistic score 0.75
                posts.append(
                    make_enriched(post_id=i, text="miraclecure works, plandemic proof",
                                  misinfo_terms={"plandemic"})
                )
            else:
                posts.append(make_enriched(post_id=i, text="weather coffee news"))
        stats = self._stats(posts)
        assert detect_piggyback(["miraclecure"], keyword_set, stats) == ["miraclecure"]

    def test_uncorrelated_trending_term_not_returned(self):
        keyword_set = MisinfoKeywordSet()
        posts = [
            make_enriched(post_id=1, text="plandemic proof", misinfo_terms={"plandemic"}),
            make_enriched(post_id=2, text="miraclecure works"),
            make_enriched(post_id=3, text="miraclecure again"),
        ]
        stats = self._stats(posts)
        assert detect_piggyback(["miraclecure"], keyword_set, stats) == []

    def test_empty_misinfo_set_detects_nothing(self):
        keyword_set = MisinfoKeywordSet(seeds=())
        posts = [make_enriched(post_id=1, text="anything trending")]
        stats = self._stats(posts)
        assert detect_piggyback(["anything"], keyword_set, stats) == []

    def test_existing_misinfo_terms_are_not_candidates(self):
        keyword_set = MisinfoKeywordSet()
        posts = [
            make_enriched(post_id=i, text="plandemic bioweapon", misinfo_terms={"plandemic"})
            for i in range(10)
        ]
        stats = self._stats(posts)
        assert detect_piggyback(["plandemic"], keyword_set, stats) == []
