"""Co-occurrence counting between candidate terms and two pair sides.

New vocabulary (a drifting topic, an emerging rumor) tends to appear first
alongside the original topic keywords and only later on its own. These
windowed counts capture that association so candidates can be scored and
promoted while the association is still strong. The same pass also pairs
each term with the post's misinformation tags, the side piggyback detection
scores against.

Pair counts are taken against the original seed terms only: a term
already promoted does not count toward its own seed side, otherwise
promotion would lock correlation at 1 forever and the later decay, the
signal the whole mechanism exists to observe, would disappear.
"""

from __future__ import annotations

import math
from collections import Counter, _count_elements  # the C helper Counter.update ends in
from dataclasses import dataclass, field

from ..enrich.model import EnrichedPost
from ..keywords import KeywordSet


@dataclass
class CooccurrenceStats:
    term_counts: Counter = field(default_factory=Counter)  # n(t): posts containing t
    pair_counts: Counter = field(default_factory=Counter)  # n(t, seeds)
    total_posts: int = 0  # N
    seed_posts: int = 0  # n(seeds)
    misinfo_pair_counts: Counter = field(default_factory=Counter)  # n(t, misinfo)
    misinfo_posts: int = 0  # n(misinfo): posts carrying a misinformation term

    def merge(self, other: "CooccurrenceStats") -> None:
        self.term_counts.update(other.term_counts)
        self.pair_counts.update(other.pair_counts)
        self.misinfo_pair_counts.update(other.misinfo_pair_counts)
        self.total_posts += other.total_posts
        self.seed_posts += other.seed_posts
        self.misinfo_posts += other.misinfo_posts

    def subtract(self, other: "CooccurrenceStats") -> None:
        """Take back counts that ``merge`` added. A term whose count reaches
        zero is deleted, so the result iterates and ``get``s exactly like a
        fresh merge of the remaining stats."""
        subtract_counts(self.term_counts, other.term_counts)
        subtract_counts(self.pair_counts, other.pair_counts)
        subtract_counts(self.misinfo_pair_counts, other.misinfo_pair_counts)
        self.total_posts -= other.total_posts
        self.seed_posts -= other.seed_posts
        self.misinfo_posts -= other.misinfo_posts

    def misinfo_side(self) -> "CooccurrenceStats":
        """A view that pairs terms with misinformation posts instead of seeds."""
        return CooccurrenceStats(
            term_counts=self.term_counts,
            pair_counts=self.misinfo_pair_counts,
            total_posts=self.total_posts,
            seed_posts=self.misinfo_posts,
        )


def subtract_counts(counts: Counter, other: Counter) -> None:
    """``counts -= other`` for counts that include ``other``; keys that
    reach zero are deleted."""
    for term, n in other.items():
        left = counts[term] - n
        if left:
            counts[term] = left
        else:
            counts.pop(term)  # dict.pop: Counter.__delitem__ is a Python method


def observe_post(stats: CooccurrenceStats, enriched: EnrichedPost, keywords: KeywordSet) -> None:
    """Count one post's candidate terms, pairing them with seed matches and
    with the post's misinformation tags.

    The terms are the ones ``clean_post`` read off the post's one token
    scan: its candidates and its tracked phrases, each distinct, so each
    counts once per post (document frequency), which is what the
    association scores expect.
    """
    candidates = enriched.candidates
    if enriched.phrases:
        candidates += enriched.phrases

    seed_matched = not keywords.seeds.isdisjoint(enriched.matched_terms)
    tagged = bool(enriched.misinfo_terms)

    stats.total_posts += 1
    stats.seed_posts += seed_matched
    stats.misinfo_posts += tagged
    _count_elements(stats.term_counts, candidates)
    if seed_matched:
        _count_elements(stats.pair_counts, candidates)
    if tagged:
        _count_elements(stats.misinfo_pair_counts, candidates)


def score_candidate(stats: CooccurrenceStats, term: str, scorer: str = "pmi") -> float:
    """Association of ``term`` with the seed keywords, in [0, 1].

    pmi: log((n(t,seeds) * N) / (n(t) * n(seeds))), squashed by a logistic.
    jaccard: n(t,seeds) / (n(t) + n(seeds) - n(t,seeds)).
    """
    n_t = stats.term_counts.get(term, 0)
    n_ts = stats.pair_counts.get(term, 0)
    if n_t == 0 or n_ts == 0 or stats.seed_posts == 0 or stats.total_posts == 0:
        return 0.0
    if scorer == "pmi":
        pmi = math.log((n_ts * stats.total_posts) / (n_t * stats.seed_posts))
        return 1.0 / (1.0 + math.exp(-pmi))
    if scorer == "jaccard":
        return n_ts / (n_t + stats.seed_posts - n_ts)
    raise ValueError(f"unknown scorer: {scorer!r}")
