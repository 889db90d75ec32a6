"""Promoting well-correlated candidate terms into the keyword set.

Promotion is permanent: once a term earned its place, later correlation
decay (the term acquiring its own social context) never deactivates it.
That is the point — the stream keeps matching posts that mention only the
new term. The drift adapter's audit (``keywords.jsonl``) is the record of
each promotion: its time, score and window.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..keywords import KeywordSet
from .cooccurrence import CooccurrenceStats, score_candidate


@dataclass
class PromotionPolicy:
    min_count: int = 25
    min_score: float = 0.7
    scorer: str = "pmi"

    def __post_init__(self):
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1")
        if self.min_score <= 0:
            raise ValueError("min_score must be > 0")
        if self.scorer not in ("pmi", "jaccard"):
            raise ValueError(f"unknown scorer: {self.scorer!r}")


def promote_keywords(
    stats: CooccurrenceStats,
    policy: PromotionPolicy,
    keywords: KeywordSet,
) -> list[tuple[str, float]]:
    """Add every qualifying candidate to ``keywords``; returns the
    ``(term, score)`` pairs added, in term order."""
    promoted: list[tuple[str, float]] = []
    frequent = (term for term, count in stats.term_counts.items() if count >= policy.min_count)
    for term in sorted(frequent):
        if term in keywords:
            continue
        score = score_candidate(stats, term, policy.scorer)
        if score < policy.min_score:
            continue
        keywords.add(term)
        promoted.append((term, score))
    return promoted
