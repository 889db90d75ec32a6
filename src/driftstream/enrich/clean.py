"""Post cleaning and relevance tagging.

Empty posts are dropped; posts that miss every topic keyword are kept but
tagged irrelevant, so downstream consumers can decide what to do with them.
"""

from __future__ import annotations

from typing import Optional

from ..keywords import KeywordSet, match_keywords
from ..sources.posts import Post
from .model import EnrichedPost


def is_blank(post: Post) -> bool:
    """Whether the post has no text beyond whitespace; such posts are dropped."""
    return not post.text.strip()


def clean_post(
    raw: Post,
    keywords: KeywordSet,
    recent_matches=None,
    lowered: Optional[str] = None,
) -> Optional[EnrichedPost]:
    """EnrichedPost shell with relevance tagged, or None for a discard.

    ``lowered`` is ``raw.text`` lowercased, when the caller already has it.
    """
    if is_blank(raw):
        return None
    matched = match_keywords(raw, keywords, recent_matches, lowered)
    return EnrichedPost(
        post=raw,
        relevance=bool(matched),
        matched_terms=matched,
    )
