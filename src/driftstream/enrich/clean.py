"""Post cleaning and enrichment: one EnrichedPost per post, in one call.

Empty posts are dropped; posts that miss every topic keyword are kept but
tagged irrelevant, so downstream consumers can decide what to do with them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..keywords import NO_TAGS, CompiledLexicon, KeywordSet, match_keywords
from ..sources.posts import Post
from .locations import Gazetteer, extract_locations
from .model import EnrichedPost
from .sentiment import score_sentiment
from .topics import assign_topic_groups

if TYPE_CHECKING:
    from ..misinfo.keywords import MisinfoKeywordSet
    from ..misinfo.tagging import AuthoritativeSourceList

_NO_PLACES = Gazetteer()
_NO_TERMS = CompiledLexicon(())


def is_blank(post: Post) -> bool:
    """Whether the post has no text beyond whitespace; such posts are dropped."""
    return not post.text or post.text.isspace()


def clean_post(
    raw: Post,
    keywords: KeywordSet,
    recent_matches=None,
    lowered: Optional[str] = None,
    *,
    gazetteer: Gazetteer = _NO_PLACES,
    regions: tuple[tuple[str, float], ...] = (),
    region_ttl: float = 0.0,
    sentiment_lexicon: CompiledLexicon = _NO_TERMS,
    group_lexicons: CompiledLexicon = _NO_TERMS,
    authoritative: Optional[AuthoritativeSourceList] = None,
    misinfo: Optional[MisinfoKeywordSet] = None,
) -> Optional[EnrichedPost]:
    """The post's EnrichedPost, every field set by its constructor, or None
    for a discard.

    ``lowered`` is ``raw.text`` lowercased, when the caller already has it;
    every stage reads it. ``regions`` (from ``case_regions``) are matched at
    the post's event time; ``misinfo`` as it stands now. A stage left out
    finds nothing. A post with no location holds ``()``, and an empty term
    set is ``NO_TAGS``: shared immutables, not containers of its own.
    """
    if is_blank(raw):
        return None
    if lowered is None:
        lowered = raw.text.lower()
    matched = match_keywords(raw, keywords, recent_matches, lowered)
    return EnrichedPost(  # positional, in field order: keywords cost a third of the call
        raw,
        extract_locations(lowered, gazetteer, regions, region_ttl, raw.created_at) or (),
        score_sentiment(lowered, sentiment_lexicon),
        assign_topic_groups(lowered, group_lexicons),
        bool(matched),
        matched,
        NO_TAGS if misinfo is None else misinfo.match(lowered),
        authoritative is not None and authoritative.matches(raw.channel),
    )
