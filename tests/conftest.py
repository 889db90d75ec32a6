from __future__ import annotations

import pytest

from driftstream.enrich.clean import Lexicons
from driftstream.enrich.model import EnrichedPost
from driftstream.keywords import TOKEN_RE, KeywordSet
from driftstream.sources.posts import Post
from driftstream.timeutil import parse_timestamp

from lexicon_oracle import drift_candidates

T0 = parse_timestamp("2020-03-01T00:00:00Z")


def make_post(
    post_id: int = 1,
    text: str = "coronavirus update",
    created_at: float = T0,
    lang: str = "en",
    channel: str = "twitter",
    is_retweet_of: int | None = None,
) -> Post:
    return Post(
        id=post_id,
        created_at=created_at,
        text=text,
        lang=lang,
        channel=channel,
        is_retweet_of=is_retweet_of,
    )


def make_enriched(
    post_id: int = 1,
    text: str = "coronavirus update",
    created_at: float = T0,
    locations: list[str] | None = None,
    relevance: bool = True,
    matched_terms: set[str] | None = None,
    misinfo_terms: set[str] | None = None,
    sentiment: float = 0.0,
    channel: str = "twitter",
    lang: str = "en",
    tracked_phrases: tuple[str, ...] = (),
) -> EnrichedPost:
    """An EnrichedPost with the tags given; its drift candidates and tracked
    phrases are the oracle's, as ``clean_post`` would read them off ``text``.
    ``relevance`` only picks the default ``matched_terms``, which the post's
    relevance is read off."""
    candidates, phrases = drift_candidates(text, tracked_phrases)
    return EnrichedPost(
        post=make_post(post_id, text, created_at, lang=lang, channel=channel),
        locations=locations or [],
        sentiment=sentiment,
        matched_terms=matched_terms if matched_terms is not None else ({"coronavirus"} if relevance else set()),
        misinfo_terms=misinfo_terms or set(),
        candidates=candidates,
        phrases=phrases,
    )


# -- one tag at a time, as ``clean_post`` reads it off its one scan ---------------


def present(lexicons: Lexicons, lowered: str) -> set[str]:
    """The terms of ``lexicons``' union that ``lowered`` contains, off its one scan."""
    return lexicons.scan(lowered, TOKEN_RE.findall(lowered))[0]


def scanned_locations(lowered: str, gazetteer, regions, ttl: float, now: float) -> list[str]:
    lexicons = Lexicons(KeywordSet(seeds=()), gazetteer, regions, ttl)
    return list(lexicons.locations(present(lexicons, lowered), now))


def scanned_sentiment(lowered: str, weights: dict[str, float]) -> float:
    lexicons = Lexicons(KeywordSet(seeds=()), sentiment=weights)
    return lexicons.sentiment(present(lexicons, lowered), lowered)


def scanned_topics(lowered: str, groups: dict[str, tuple[str, ...]]) -> set[str] | frozenset[str]:
    lexicons = Lexicons(KeywordSet(seeds=()), groups=groups)
    return lexicons.topic_groups(present(lexicons, lowered))


@pytest.fixture
def t0() -> float:
    return T0
