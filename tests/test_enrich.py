"""Cleaning, location extraction with the case-report regions, sentiment, topics."""

from __future__ import annotations

import random

import pytest

from driftstream.enrich.clean import Lexicons, clean_post
from driftstream.enrich.locations import (
    CaseReport,
    Gazetteer,
    case_regions,
    normalize_location,
)
from driftstream.enrich.model import EnrichedPost
from driftstream.enrich.sentiment import DEFAULT_SENTIMENT_LEXICON
from driftstream.enrich.topics import DEFAULT_GROUP_LEXICONS
from driftstream.keywords import NO_TAGS, KeywordSet
from driftstream.timeutil import DAY

import lexicon_oracle as oracle
from conftest import make_post, scanned_locations, scanned_sentiment, scanned_topics


class TestCleanPost:
    def test_sample_tweet_is_relevant(self):
        keywords = KeywordSet(seeds=("coronavirus",))
        post = make_post(text="Coronavirus will spread in California, health officials say")
        enriched = clean_post(post, keywords)
        assert enriched is not None
        assert enriched.relevance is True
        assert enriched.matched_terms == {"coronavirus"}

    def test_whitespace_text_discarded(self):
        assert clean_post(make_post(text="   "), KeywordSet()) is None

    def test_irrelevant_post_tagged_not_dropped(self):
        enriched = clean_post(make_post(text="nice weather"), KeywordSet())
        assert enriched is not None
        assert enriched.relevance is False
        assert enriched.matched_terms == set()

    def test_every_stage_set_by_the_one_constructor(self):
        from driftstream.misinfo.keywords import MisinfoKeywordSet
        from driftstream.misinfo.tagging import AuthoritativeSourceList

        post = make_post(text="Coronavirus: great hope in Sturgis, fever and PLANDEMIC talk",
                         channel=" WHO.int ")
        lowered = post.text.lower()
        regions = case_regions([CaseReport(date=post.created_at - DAY, region="Sturgis", new_cases=4)])
        keywords = KeywordSet(seeds=("corona",))
        lexicons = Lexicons(
            keywords, Gazetteer(["california"]), regions, 7 * DAY,
            DEFAULT_SENTIMENT_LEXICON, DEFAULT_GROUP_LEXICONS, MisinfoKeywordSet(),
        )
        enriched = clean_post(
            post, keywords, None, lowered,
            lexicons=lexicons, authoritative=AuthoritativeSourceList(["who.int"]),
        )
        assert enriched.relevance is True and enriched.matched_terms == {"corona"}
        assert enriched.locations == ["sturgis"]
        assert enriched.sentiment == oracle.score_sentiment(lowered, DEFAULT_SENTIMENT_LEXICON) == 1.0
        assert enriched.topic_groups == oracle.assign_topic_groups(lowered, DEFAULT_GROUP_LEXICONS) == {
            "symptomatic"
        }
        assert enriched.authoritative is True
        assert enriched.misinfo_terms == {"plandemic"}
        assert not hasattr(enriched, "__dict__")  # slots: one fixed record per post

    @pytest.mark.parametrize("match_mode", ["substring", "token"])
    def test_a_post_that_matches_nothing_holds_the_shared_empties(self, match_mode):
        """Every empty tag is one shared immutable, not a container of the
        post's own: ``NO_TAGS`` for the three term sets, ``()`` for the
        locations; ``EnrichedPost``'s defaults are the same values."""
        from driftstream.misinfo.keywords import MisinfoKeywordSet

        post = make_post(text="nice weather in town today")
        regions = case_regions([CaseReport(date=post.created_at, region="Sturgis", new_cases=4)])
        for misinfo in (MisinfoKeywordSet(), None):
            keywords = KeywordSet(seeds=("corona",), match_mode=match_mode)
            lexicons = Lexicons(
                keywords, Gazetteer(["california"]), regions, 7 * DAY,
                DEFAULT_SENTIMENT_LEXICON, DEFAULT_GROUP_LEXICONS, misinfo,
            )
            enriched = clean_post(post, keywords, None, lexicons=lexicons)
            assert enriched.relevance is False
            assert enriched.matched_terms is NO_TAGS
            assert enriched.misinfo_terms is NO_TAGS
            assert enriched.topic_groups is NO_TAGS
            assert enriched.locations == () and type(enriched.locations) is tuple
            assert enriched.candidates == ("nice", "weather", "town", "today") and enriched.phrases == ()
        assert NO_TAGS == frozenset() and type(NO_TAGS) is frozenset
        default = EnrichedPost(post=post)
        assert default.matched_terms is default.misinfo_terms is default.topic_groups is NO_TAGS
        assert default.locations == () and type(default.locations) is tuple
        assert default.candidates == default.phrases == ()

    def test_post_init_checks_kept(self):
        with pytest.raises(ValueError, match="sentiment out of range"):
            EnrichedPost(post=make_post(), sentiment=1.5)
        with pytest.raises(ValueError, match="unknown topic groups"):
            EnrichedPost(post=make_post(), topic_groups={"gossip"})


class TestLocations:
    def test_normalization_rules(self):
        assert normalize_location("  New   York ") == "new york"

    def test_gazetteer_hit_returned_and_not_cached(self):
        gazetteer = Gazetteer(["california"])
        regions = case_regions([])
        hits = scanned_locations("spread in california", gazetteer, regions, 7 * DAY, now=0.0)
        assert hits == ["california"]
        assert regions == ()

    def test_empty_gazetteer_and_cache_yield_nothing(self):
        assert scanned_locations("anywhere", Gazetteer(), (), 7 * DAY, now=0.0) == []

    def test_cache_entry_matches_when_gazetteer_lacks_it(self):
        gazetteer = Gazetteer(["california"])
        regions = case_regions([CaseReport(date=0.0, region="sturgis", new_cases=1)])
        hits = scanned_locations("sturgis rally crowds", gazetteer, regions, 7 * DAY, now=3600.0)
        assert hits == ["sturgis"]

    def test_expired_cache_entry_never_matches(self):
        regions = case_regions([CaseReport(date=0.0, region="sturgis", new_cases=1)])
        assert scanned_locations("sturgis again", Gazetteer(), regions, DAY, now=2 * DAY) == []

    def test_future_dated_entry_does_not_match_yet(self):
        regions = case_regions([CaseReport(date=10 * DAY, region="sturgis", new_cases=1)])
        assert scanned_locations("sturgis rally", Gazetteer(), regions, 7 * DAY, now=DAY) == []
        assert scanned_locations("sturgis rally", Gazetteer(), regions, 7 * DAY, now=11 * DAY) == [
            "sturgis"
        ]

    def test_monotone_in_cache_contents(self):
        gazetteer = Gazetteer(["california"])
        text = "california and sturgis"
        before = scanned_locations(text, gazetteer, (), 7 * DAY, now=0.0)
        regions = case_regions([CaseReport(date=0.0, region="sturgis", new_cases=1)])
        after = scanned_locations(text, gazetteer, regions, 7 * DAY, now=0.0)
        assert set(before) <= set(after)

    def test_absorb_case_report(self):
        report = CaseReport(date=0.0, region=" Hubei\t", new_cases=100, source="who.int")
        assert report.region == "hubei"
        regions = case_regions([report])
        assert regions == (("hubei", 0.0),)
        assert scanned_locations("cases in hubei", Gazetteer(), regions, 7 * DAY, now=0.0) == ["hubei"]

    def test_absorb_empty_region_ignored(self):
        assert case_regions([CaseReport(date=0.0, region="  ", new_cases=1)]) == ()

    def test_two_reports_same_region_keep_single_entry_latest_seen(self):
        for dates in ((0.0, DAY), (DAY, 0.0)):
            regions = case_regions(
                [CaseReport(date=dates[0], region="hubei", new_cases=1),
                 CaseReport(date=dates[1], region="Hubei", new_cases=2)]
            )
            assert regions == (("hubei", DAY),)
            assert scanned_locations("hubei", Gazetteer(), regions, 7 * DAY, now=7.5 * DAY) == ["hubei"]

    def test_report_then_extraction_end_to_end(self):
        gazetteer = Gazetteer(["california"])
        regions = case_regions([CaseReport(date=0.0, region="sturgis", new_cases=50)])
        hits = scanned_locations("cases rising in sturgis", gazetteer, regions, 7 * DAY, now=DAY)
        assert hits == ["sturgis"]

    def test_empty_gazetteer_name_rejected(self):
        with pytest.raises(ValueError):
            Gazetteer(["  "])


class TestSentiment:
    def test_no_lexicon_terms_scores_zero(self):
        assert scanned_sentiment("completely neutral text", {"good": 1.0}) == 0.0

    def test_sum_is_clamped(self):
        assert scanned_sentiment("good good", {"good": 1.0}) == 1.0
        assert scanned_sentiment("bad bad bad", {"bad": -0.7}) == -1.0

    def test_occurrences_accumulate_before_clamp(self):
        assert scanned_sentiment("good then bad", {"good": 0.5, "bad": -0.2}) == pytest.approx(0.3)

    def test_against_independent_recount(self):
        # reimplementation oracle: regex-count every term, sum, clamp
        import re

        lexicon = {"good": 0.5, "bad": -0.4, "fear": -0.3, "hope": 0.6}
        rng = random.Random(17)
        words = ["good", "bad", "fear", "hope", "virus", "day", "city"]
        for _ in range(200):
            text = " ".join(rng.choices(words, k=rng.randint(0, 12)))

            expected = 0.0
            for term, weight in lexicon.items():
                expected += weight * len(re.findall(re.escape(term), text.lower()))
            expected = max(-1.0, min(1.0, expected))

            assert scanned_sentiment(text.lower(), lexicon) == pytest.approx(expected)


class TestTopicGroups:
    LEXICONS = {
        "deaths_hospitalizations": ("death", "died", "hospitaliz", "icu"),
        "positive_tests": ("positive", "tested positive", "diagnosed"),
        "symptomatic": ("fever", "cough", "symptoms"),
    }

    def test_positive_test_text(self):
        assert scanned_topics("tested positive yesterday", self.LEXICONS) == {
            "positive_tests"
        }

    def test_empty_text_no_groups(self):
        assert scanned_topics("", self.LEXICONS) == set()

    def test_multi_group_text(self):
        groups = scanned_topics("hospitalized after positive test", self.LEXICONS)
        assert groups == {"deaths_hospitalizations", "positive_tests"}

    def test_matches_brute_force_scan_on_corpus(self, tmp_path):
        from driftstream.sources.archive import posts_from_archive
        from driftstream.sources.synthetic import SyntheticConfig, generate_synthetic

        corpus = generate_synthetic(
            SyntheticConfig(seed=31, duration_minutes=60, base_rate_per_minute=80),
            tmp_path,
        )
        for post in posts_from_archive(corpus.archive_path):
            lowered = post.text.lower()
            oracle = {
                group
                for group, terms in self.LEXICONS.items()
                if any(t in lowered for t in terms)
            }
            assert scanned_topics(lowered, self.LEXICONS) == oracle
