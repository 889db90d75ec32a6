"""Annotated post record: one per post, built by ``clean_post`` in one call."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sources.posts import Post

TOPIC_GROUPS = ("deaths_hospitalizations", "positive_tests", "symptomatic")
_KNOWN_GROUPS = frozenset(TOPIC_GROUPS)


@dataclass(slots=True)
class EnrichedPost:
    post: Post
    locations: list[str] = field(default_factory=list)
    sentiment: float = 0.0
    topic_groups: set[str] = field(default_factory=set)
    relevance: bool = False
    matched_terms: set[str] = field(default_factory=set)
    misinfo_terms: set[str] = field(default_factory=set)
    authoritative: bool = False

    def __post_init__(self):
        if not _KNOWN_GROUPS.issuperset(self.topic_groups):
            raise ValueError(f"unknown topic groups: {sorted(self.topic_groups - _KNOWN_GROUPS)}")
        if not -1.0 <= self.sentiment <= 1.0:
            raise ValueError(f"sentiment out of range: {self.sentiment}")
