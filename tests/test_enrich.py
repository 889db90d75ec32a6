"""Cleaning, location extraction with the short-term cache, sentiment, topics."""

from __future__ import annotations

import random

import pytest

from driftstream.enrich.clean import clean_post
from driftstream.enrich.locations import (
    CaseReport,
    Gazetteer,
    LocationCache,
    absorb_authoritative_locations,
    extract_locations,
    normalize_location,
)
from driftstream.enrich.sentiment import compile_sentiment_lexicon, score_sentiment
from driftstream.enrich.topics import assign_topic_groups, compile_group_lexicons
from driftstream.keywords import KeywordSet
from driftstream.timeutil import DAY

from conftest import make_post


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


class TestLocations:
    def test_normalization_rules(self):
        assert normalize_location("  New   York ") == "new york"

    def test_gazetteer_hit_returned_and_not_cached(self):
        gazetteer = Gazetteer(["california"])
        cache = LocationCache(ttl=7 * DAY)
        hits = extract_locations("spread in california", gazetteer, cache, now=0.0)
        assert hits == ["california"]
        assert len(cache) == 0

    def test_empty_gazetteer_and_cache_yield_nothing(self):
        assert extract_locations("anywhere", Gazetteer(), LocationCache(), now=0.0) == []

    def test_cache_entry_matches_when_gazetteer_lacks_it(self):
        gazetteer = Gazetteer(["california"])
        cache = LocationCache(ttl=7 * DAY)
        cache.insert("sturgis", now=0.0)
        hits = extract_locations("sturgis rally crowds", gazetteer, cache, now=3600.0)
        assert hits == ["sturgis"]

    def test_expired_cache_entry_never_matches(self):
        cache = LocationCache(ttl=DAY)
        cache.insert("sturgis", now=0.0)
        assert extract_locations("sturgis again", Gazetteer(), cache, now=2 * DAY) == []

    def test_future_dated_entry_does_not_match_yet(self):
        cache = LocationCache(ttl=7 * DAY)
        cache.insert("sturgis", now=10 * DAY)
        assert cache.match("sturgis rally", now=DAY) == set()
        assert cache.match("sturgis rally", now=11 * DAY) == {"sturgis"}

    def test_monotone_in_cache_contents(self):
        gazetteer = Gazetteer(["california"])
        text = "california and sturgis"
        cache = LocationCache(ttl=7 * DAY)
        before = extract_locations(text, gazetteer, cache, now=0.0)
        cache.insert("sturgis", now=0.0)
        after = extract_locations(text, gazetteer, cache, now=0.0)
        assert set(before) <= set(after)

    def test_absorb_case_report(self):
        cache = LocationCache(ttl=7 * DAY)
        report = CaseReport(date=0.0, region=" Hubei\t", new_cases=100, source="who.int")
        assert report.region == "hubei"
        assert absorb_authoritative_locations(report, cache) is True
        assert len(cache) == 1
        assert cache.match("cases in hubei", now=0.0) == {"hubei"}

    def test_absorb_empty_region_ignored(self):
        cache = LocationCache()
        assert absorb_authoritative_locations(
            CaseReport(date=0.0, region="  ", new_cases=1), cache
        ) is False
        assert len(cache) == 0

    def test_two_reports_same_region_keep_single_entry_latest_seen(self):
        cache = LocationCache(ttl=7 * DAY)
        absorb_authoritative_locations(CaseReport(date=0.0, region="hubei", new_cases=1), cache)
        absorb_authoritative_locations(CaseReport(date=DAY, region="Hubei", new_cases=2), cache)
        assert len(cache) == 1
        assert cache.match("hubei", now=7.5 * DAY) == {"hubei"}

    def test_report_then_extraction_end_to_end(self):
        gazetteer = Gazetteer(["california"])
        cache = LocationCache(ttl=7 * DAY)
        absorb_authoritative_locations(
            CaseReport(date=0.0, region="sturgis", new_cases=50), cache
        )
        hits = extract_locations("cases rising in sturgis", gazetteer, cache, now=DAY)
        assert hits == ["sturgis"]

    def test_empty_gazetteer_name_rejected(self):
        with pytest.raises(ValueError):
            Gazetteer(["  "])


class TestSentiment:
    def test_no_lexicon_terms_scores_zero(self):
        lexicon = compile_sentiment_lexicon({"good": 1.0})
        assert score_sentiment("completely neutral text", lexicon) == 0.0

    def test_sum_is_clamped(self):
        assert score_sentiment("good good", compile_sentiment_lexicon({"good": 1.0})) == 1.0
        assert score_sentiment("bad bad bad", compile_sentiment_lexicon({"bad": -0.7})) == -1.0

    def test_occurrences_accumulate_before_clamp(self):
        lexicon = compile_sentiment_lexicon({"good": 0.5, "bad": -0.2})
        assert score_sentiment("good then bad", lexicon) == pytest.approx(0.3)

    def test_against_independent_recount(self):
        # reimplementation oracle: regex-count every term, sum, clamp
        import re

        lexicon = {"good": 0.5, "bad": -0.4, "fear": -0.3, "hope": 0.6}
        compiled = compile_sentiment_lexicon(lexicon)
        rng = random.Random(17)
        words = ["good", "bad", "fear", "hope", "virus", "day", "city"]
        for _ in range(200):
            text = " ".join(rng.choices(words, k=rng.randint(0, 12)))

            expected = 0.0
            for term, weight in lexicon.items():
                expected += weight * len(re.findall(re.escape(term), text.lower()))
            expected = max(-1.0, min(1.0, expected))

            assert score_sentiment(text.lower(), compiled) == pytest.approx(expected)


class TestTopicGroups:
    LEXICONS = {
        "deaths_hospitalizations": ("death", "died", "hospitaliz", "icu"),
        "positive_tests": ("positive", "tested positive", "diagnosed"),
        "symptomatic": ("fever", "cough", "symptoms"),
    }
    COMPILED = compile_group_lexicons(LEXICONS)

    def test_positive_test_text(self):
        assert assign_topic_groups("tested positive yesterday", self.COMPILED) == {
            "positive_tests"
        }

    def test_empty_text_no_groups(self):
        assert assign_topic_groups("", self.COMPILED) == set()

    def test_multi_group_text(self):
        groups = assign_topic_groups("hospitalized after positive test", self.COMPILED)
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
            assert assign_topic_groups(lowered, self.COMPILED) == oracle
