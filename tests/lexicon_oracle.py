"""The per-lexicon tag functions that ``clean_post``'s one scan replaced.

Each lexicon is scanned on its own here, one text pass per tag, as the
pipeline did before it read every substring tag off one pass over the union
of the term sets. ``clean_post`` below composes them exactly as the
pipeline's ``clean_post`` did, so a test can hold the one-pass tags to them
field by field. Keyword and misinformation matching stay in the program
(``KeywordSet.match``, ``match_keywords``, ``MisinfoKeywordSet.match``) and
are called from here.
"""

from __future__ import annotations

from typing import Optional

from driftstream.enrich.clean import is_blank
from driftstream.enrich.locations import Gazetteer
from driftstream.enrich.model import EnrichedPost
from driftstream.keywords import NO_TAGS, TOKEN_RE, KeywordSet, match_keywords, tokenize


def drift_candidates(text: str, tracked_phrases: tuple[str, ...] = ()) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """``(candidates, phrases)`` of a post text as drift counts them:
    ``tokenize``'s set in order of first occurrence, and the tracked phrases
    in the lowered text that are not in that set."""
    candidates = tokenize(text)
    ordered = tuple(dict.fromkeys(t for t in TOKEN_RE.findall(text.lower()) if t in candidates))
    lowered = text.lower()
    phrases = tuple(p for p in dict.fromkeys(tracked_phrases) if p in lowered and p not in candidates)
    return ordered, phrases


def gazetteer_lookup(gazetteer: Gazetteer, lowered: str) -> set[str]:
    """Names found in ``lowered``, a post text already lowercased."""
    return {name for name in gazetteer.names if name in lowered}


def extract_locations(
    lowered: str, gazetteer: Gazetteer, regions: tuple[tuple[str, float], ...], ttl: float, now: float
) -> list[str]:
    """Gazetteer hits plus the case-report ``regions`` live at ``now``: a
    region is live from its ``last_seen`` until ``ttl`` after it."""
    hits = gazetteer_lookup(gazetteer, lowered)
    for region, last_seen in regions:
        if region in lowered and last_seen <= now and now - last_seen <= ttl:
            hits.add(region)
    return sorted(hits)


def score_sentiment(lowered: str, weights: dict[str, float]) -> float:
    """Clamped sum of each term's non-overlapping occurrences times its
    weight, in lexicon order; 0.0 when nothing matches."""
    total = 0.0
    for term, weight in weights.items():
        occurrences = lowered.count(term)
        if occurrences:
            total += occurrences * weight
    return max(-1.0, min(1.0, total))


def assign_topic_groups(lowered: str, groups: dict[str, tuple[str, ...]]) -> set[str] | frozenset[str]:
    """Groups whose lexicon has at least one hit in ``lowered``; ``NO_TAGS`` when none has."""
    return {group for group, terms in groups.items() for term in terms if term in lowered} or NO_TAGS


def clean_post(
    raw,
    keywords: KeywordSet,
    recent_matches=None,
    lowered: Optional[str] = None,
    *,
    gazetteer: Gazetteer = Gazetteer(),
    regions: tuple[tuple[str, float], ...] = (),
    region_ttl: float = 0.0,
    sentiment: Optional[dict[str, float]] = None,
    groups: Optional[dict[str, tuple[str, ...]]] = None,
    authoritative=None,
    misinfo=None,
    tracked_phrases: tuple[str, ...] = (),
) -> Optional[EnrichedPost]:
    """The post's EnrichedPost from one scan per lexicon, or None for a discard."""
    if is_blank(raw):
        return None
    if lowered is None:
        lowered = raw.text.lower()
    matched = match_keywords(raw, keywords, recent_matches, lowered)
    candidates, phrases = drift_candidates(raw.text, tracked_phrases)
    return EnrichedPost(
        raw,
        extract_locations(lowered, gazetteer, regions, region_ttl, raw.created_at) or (),
        score_sentiment(lowered, sentiment or {}),
        assign_topic_groups(lowered, groups or {}),
        bool(matched),
        matched,
        NO_TAGS if misinfo is None else misinfo.match(lowered),
        authoritative is not None and authoritative.matches(raw.channel),
        candidates,
        phrases,
    )
