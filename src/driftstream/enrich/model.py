"""Annotated post record: one per post, built by ``clean_post`` in one call."""

from __future__ import annotations

from dataclasses import dataclass

from ..keywords import NO_TAGS
from ..sources.posts import Post
from .topics import DEFAULT_GROUP_LEXICONS

_KNOWN_GROUPS = frozenset(DEFAULT_GROUP_LEXICONS)


@dataclass(slots=True)
class EnrichedPost:
    """One post and its tags.

    A tag that holds nothing is one shared immutable, never a container of
    the post's own: ``()`` for ``locations`` and ``keywords.NO_TAGS``, the
    empty frozenset, for the three term sets. A buffered post then keeps no
    empty container alive. No stage mutates a tag; ``_refresh_misinfo``
    replaces ``misinfo_terms`` whole.

    ``candidates`` are the post's drift candidates (``keywords.tokenize``'s
    set, in order of first occurrence) and ``phrases`` the tracked phrases
    its text contains that are not among them; drift counts both, clusters
    the candidates alone.
    """

    post: Post
    locations: list[str] | tuple[str, ...] = ()
    sentiment: float = 0.0
    topic_groups: set[str] | frozenset[str] = NO_TAGS
    relevance: bool = False
    matched_terms: set[str] | frozenset[str] = NO_TAGS
    misinfo_terms: set[str] | frozenset[str] = NO_TAGS
    authoritative: bool = False
    candidates: tuple[str, ...] = ()
    phrases: tuple[str, ...] = ()

    def __post_init__(self):
        if not _KNOWN_GROUPS.issuperset(self.topic_groups):
            raise ValueError(f"unknown topic groups: {sorted(self.topic_groups - _KNOWN_GROUPS)}")
        if not -1.0 <= self.sentiment <= 1.0:
            raise ValueError(f"sentiment out of range: {self.sentiment}")
