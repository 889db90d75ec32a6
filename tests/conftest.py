from __future__ import annotations

import pytest

from driftstream.enrich.clean import Lexicons
from driftstream.enrich.model import EnrichedPost
from driftstream.keywords import KeywordSet
from driftstream.sources.posts import Post
from driftstream.timeutil import parse_timestamp

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
) -> EnrichedPost:
    return EnrichedPost(
        post=make_post(post_id, text, created_at, lang=lang, channel=channel),
        locations=locations or [],
        sentiment=sentiment,
        relevance=relevance,
        matched_terms=matched_terms if matched_terms is not None else ({"coronavirus"} if relevance else set()),
        misinfo_terms=misinfo_terms or set(),
    )


# -- one tag at a time, as ``clean_post`` reads it off its one scan ---------------


def scanned_locations(lowered: str, gazetteer, regions, ttl: float, now: float) -> list[str]:
    lexicons = Lexicons(KeywordSet(seeds=()), gazetteer, regions, ttl)
    return list(lexicons.locations(lexicons.present(lowered), now))


def scanned_sentiment(lowered: str, weights: dict[str, float]) -> float:
    lexicons = Lexicons(KeywordSet(seeds=()), sentiment=weights)
    return lexicons.sentiment(lexicons.present(lowered), lowered)


def scanned_topics(lowered: str, groups: dict[str, tuple[str, ...]]) -> set[str] | frozenset[str]:
    lexicons = Lexicons(KeywordSet(seeds=()), groups=groups)
    return lexicons.topic_groups(lexicons.present(lowered))


@pytest.fixture
def t0() -> float:
    return T0
