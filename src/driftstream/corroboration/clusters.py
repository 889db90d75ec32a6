"""Tentative space-time event clusters from enriched posts.

Posts that talk about the same place in the same window are grouped into a
tentative cluster; whether the cluster describes a real physical event is
decided later by accumulated evidence, not here. Misinformation-tagged
posts never enter a cluster (they stay in the archive for analysis).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable

from ..core.windows import WindowAssignment, window_start
from ..enrich.locations import normalize_location
from ..enrich.model import EnrichedPost

DEFAULT_CLUSTER_WINDOW = 3600.0
DEFAULT_MIN_CLUSTER_SIZE = 3
TOPIC_TERM_LIMIT = 10


@dataclass
class EventCluster:
    """A tentative (location, window) event. The location is normalized
    when the cluster is built: attach_evidence and the store's location
    index compare it as it is with normalized evidence locations."""

    id: str
    location: str
    window: WindowAssignment
    post_ids: set[int] = field(default_factory=set)
    topic_terms: frozenset[str] = frozenset()
    status: str = "tentative"  # tentative | corroborated | refuted
    evidence_ids: set[str] = field(default_factory=set)
    team_score: float = 0.0

    def __post_init__(self):
        self.location = normalize_location(self.location)
        # attach_evidence compares these with lowercased evidence terms. The
        # set is rebuilt only when needed: form_clusters' terms are already
        # a lowercase frozenset, which the cluster's features share.
        if any(t != t.lower() for t in self.topic_terms):
            self.topic_terms = frozenset(t.lower() for t in self.topic_terms)

    def to_json_obj(self) -> dict:
        return {
            "id": self.id,
            "location": self.location,
            "window": [self.window.window_start, self.window.window_end],
            "size": len(self.post_ids),
            "status": self.status,
            "team_score": round(self.team_score, 6),
            "evidence_ids": sorted(self.evidence_ids),
        }


@dataclass(frozen=True)
class ClusterFeatures:
    size: int
    channels: int
    mean_abs_sentiment: float
    topic_terms: frozenset[str]


def cluster_features(cluster: EventCluster, posts: Iterable[EnrichedPost]) -> ClusterFeatures:
    """The cluster's features; ``topic_terms`` is the cluster's own frozenset
    when it holds one (``frozenset`` of a frozenset is that object)."""
    members = [p for p in posts if p.post.id in cluster.post_ids]
    channels = {p.post.channel for p in members}
    mean_abs = (
        sum(abs(p.sentiment) for p in members) / len(members) if members else 0.0
    )
    return ClusterFeatures(
        size=len(cluster.post_ids),
        channels=len(channels),
        mean_abs_sentiment=mean_abs,
        topic_terms=frozenset(cluster.topic_terms),
    )


def _topic_terms(members: list[EnrichedPost]) -> frozenset[str]:
    """Matched keywords plus the most common candidate tokens of the members,
    counted off the candidates each member holds from its one token scan."""
    terms: set[str] = set()
    doc_freq: Counter = Counter()
    for post in members:
        terms.update(post.matched_terms)
        doc_freq.update(post.candidates)
    ranked = sorted(doc_freq.items(), key=lambda item: (-item[1], item[0]))
    terms.update(term for term, _ in ranked[:TOPIC_TERM_LIMIT])
    return frozenset(terms)


def form_clusters(
    posts: Iterable[EnrichedPost],
    window_length: float = DEFAULT_CLUSTER_WINDOW,
    min_cluster_size: int = DEFAULT_MIN_CLUSTER_SIZE,
) -> list[EventCluster]:
    """One cluster per (location, window) with enough members.

    A post naming k locations joins k candidate groups. Posts without any
    location, and posts carrying misinformation terms, are skipped.
    """
    groups: dict[tuple[str, float], list[EnrichedPost]] = defaultdict(list)
    for post in posts:
        if not post.locations or post.misinfo_terms:
            continue
        start = window_start(post.post.created_at, window_length)
        for location in post.locations:
            groups[(location, start)].append(post)

    clusters = []
    for (location, start), members in sorted(groups.items()):
        unique: dict[int, EnrichedPost] = {p.post.id: p for p in members}
        if len(unique) < min_cluster_size:
            continue
        window = WindowAssignment(start, window_length)
        member_list = [unique[i] for i in sorted(unique)]
        clusters.append(
            EventCluster(
                id=f"{location.replace(' ', '_')}:{int(start)}",
                location=location,
                window=window,
                post_ids=set(unique),
                topic_terms=_topic_terms(member_list),
            )
        )
    return clusters
