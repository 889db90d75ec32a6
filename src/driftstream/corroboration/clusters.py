"""Tentative space-time event clusters from enriched posts.

Posts that talk about the same place in the same window are grouped into a
tentative cluster; whether the cluster describes a real physical event is
decided later by accumulated evidence, not here. Misinformation-tagged
posts never enter a cluster (they stay in the archive for analysis).

A cluster is the one record of its event: ``window_clusters`` sets the
features the teamed classifier scores as it forms it, and the evidence
store keeps the attachments and their running tally on it.
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
    index compare it as it is with normalized evidence locations. ``net``
    is the number of supporting minus contradicting items attached, which
    ``ClusterStore.ingest_evidence`` bumps with each attachment; ``status``
    is corroborated above zero, refuted below and tentative at zero."""

    id: str
    location: str
    window: WindowAssignment
    post_ids: set[int] = field(default_factory=set)
    topic_terms: frozenset[str] = frozenset()
    channels: int = 0
    mean_abs_sentiment: float = 0.0
    evidence_ids: set[str] = field(default_factory=set)
    net: int = 0
    team_score: float = 0.0

    def __post_init__(self):
        self.location = normalize_location(self.location)
        # attach_evidence compares these with lowercased evidence terms. The
        # set is rebuilt only when needed: form_clusters' terms are already
        # a lowercase frozenset.
        if any(t != t.lower() for t in self.topic_terms):
            self.topic_terms = frozenset(t.lower() for t in self.topic_terms)

    @property
    def size(self) -> int:
        return len(self.post_ids)

    @property
    def status(self) -> str:
        if self.net >= 1:
            return "corroborated"
        if self.net <= -1:
            return "refuted"
        return "tentative"

    def to_json_obj(self) -> dict:
        return {
            "id": self.id,
            "location": self.location,
            "window": [self.window.window_start, self.window.window_end],
            "size": self.size,
            "status": self.status,
            "team_score": round(self.team_score, 6),
            "evidence_ids": sorted(self.evidence_ids),
        }


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


def window_clusters(
    posts: Iterable[EnrichedPost], start: float, window_length: float, min_cluster_size: int
) -> list[EventCluster]:
    """One cluster per location with enough members among ``posts``, the
    posts of the one window that starts at ``start``, in location order.

    A post naming k locations joins k candidate groups. Posts without any
    location, and posts carrying misinformation terms, are skipped. A
    cluster's channel count and mean absolute sentiment are read off its
    group in the order of ``posts``: a post listed twice counts once in
    its ``size`` and twice in the mean.
    """
    groups: dict[str, list[EnrichedPost]] = defaultdict(list)
    for post in posts:
        if not post.locations or post.misinfo_terms:
            continue
        for location in post.locations:
            groups[location].append(post)

    clusters = []
    window = WindowAssignment(start, window_length)
    for location, members in sorted(groups.items()):
        unique: dict[int, EnrichedPost] = {p.post.id: p for p in members}
        if len(unique) < min_cluster_size:
            continue
        member_list = [unique[i] for i in sorted(unique)]
        clusters.append(
            EventCluster(
                id=f"{location.replace(' ', '_')}:{int(start)}",
                location=location,
                window=window,
                post_ids=set(unique),
                topic_terms=_topic_terms(member_list),
                channels=len({p.post.channel for p in members}),
                mean_abs_sentiment=sum(abs(p.sentiment) for p in members) / len(members),
            )
        )
    return clusters


def form_clusters(
    posts: Iterable[EnrichedPost],
    window_length: float = DEFAULT_CLUSTER_WINDOW,
    min_cluster_size: int = DEFAULT_MIN_CLUSTER_SIZE,
) -> list[EventCluster]:
    """One cluster per (location, window) with enough members, in that
    order, from posts of any windows: each window's ``window_clusters``."""
    windows: dict[float, list[EnrichedPost]] = defaultdict(list)
    for post in posts:
        windows[window_start(post.post.created_at, window_length)].append(post)
    clusters = (
        c for start, group in windows.items() for c in window_clusters(group, start, window_length, min_cluster_size)
    )
    return sorted(clusters, key=lambda cluster: (cluster.location, cluster.window.window_start))
