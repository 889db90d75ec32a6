"""Evidence accumulation, status resolution, and retroactive correction.

A cluster's status is a pure function of the evidence attached to it:
corroborated once supporting items outnumber contradicting ones, refuted in
the opposite case, tentative in between. Because the function only looks at
the evidence multiset, arrival order can never change the outcome, and once
evidence stops arriving the status is settled for good.

Late evidence (the news article written days after the event) re-matches
against the historical clusters at its location, which the store indexes
as clusters are added; every status flip is logged and also drives one
weight update of the teamed classifier, signed by the kind of evidence that
caused the flip.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from ..enrich.locations import normalize_location
from ..timeutil import DAY, parse_timestamp
from .clusters import ClusterFeatures, EventCluster
from .team import TeamedClassifier

DEFAULT_LAG_TOLERANCE = 14 * DAY

SUPPORTING = "supporting"
CONTRADICTING = "contradicting"


@dataclass
class Evidence:
    id: str
    kind: str  # supporting | contradicting
    source: str
    location: str
    time: float
    terms: set[str] = field(default_factory=set)
    arrived_at: float = 0.0

    def __post_init__(self):
        if self.kind not in (SUPPORTING, CONTRADICTING):
            raise ValueError(f"unknown evidence kind: {self.kind!r}")
        self.location = normalize_location(self.location)
        self.terms = {t.strip().lower() for t in self.terms if t.strip()}

    @classmethod
    def from_json_line(cls, line: str, fallback_id: str = "") -> "Evidence":
        obj = json.loads(line)
        return cls(
            id=str(obj.get("id") or fallback_id),
            kind=obj["kind"],
            source=obj["source"],
            location=obj["location"],
            time=parse_timestamp(obj["time"]) if isinstance(obj["time"], str) else float(obj["time"]),
            terms=set(obj.get("terms", [])),
            arrived_at=(
                parse_timestamp(obj["arrived_at"])
                if isinstance(obj.get("arrived_at"), str)
                else float(obj.get("arrived_at", 0.0))
            ),
        )


@dataclass
class MatchRule:
    lag_tolerance: float = DEFAULT_LAG_TOLERANCE


def attach_evidence(cluster: EventCluster, ev: Evidence, rule: Optional[MatchRule] = None) -> bool:
    """Attach ``ev`` if it matches the cluster; returns whether it did.

    A match needs the same location (both sides are normalized when they
    are built), evidence time within the lag tolerance of the cluster
    window, and at least one topic term in common (both sides hold
    lowercased terms). Attaching the same evidence twice is a no-op (set
    semantics).
    """
    rule = rule or MatchRule()
    if ev.location != cluster.location:
        return False
    start, end = cluster.window.window_start, cluster.window.window_end
    distance = max(start - ev.time, ev.time - end, 0.0)
    if distance > rule.lag_tolerance:
        return False
    if cluster.topic_terms.isdisjoint(ev.terms):
        return False
    cluster.evidence_ids.add(ev.id)
    return True


def resolve_status(cluster: EventCluster, evidence_store: dict[str, Evidence]) -> str:
    """Status from the attached evidence multiset; order-independent."""
    supporting = 0
    contradicting = 0
    for ev_id in cluster.evidence_ids:
        ev = evidence_store.get(ev_id)
        if ev is None:
            continue
        if ev.kind == SUPPORTING:
            supporting += 1
        else:
            contradicting += 1
    if supporting - contradicting >= 1:
        return "corroborated"
    if contradicting - supporting >= 1:
        return "refuted"
    return "tentative"


@dataclass
class StatusChange:
    cluster_id: str
    old_status: str
    new_status: str
    evidence_id: str


class ClusterStore:
    """Historical cluster store: single writer, snapshot readers."""

    def __init__(self, rule: Optional[MatchRule] = None):
        self.rule = rule or MatchRule()
        self.clusters: dict[str, EventCluster] = {}
        self.features: dict[str, ClusterFeatures] = {}
        self.evidence: dict[str, Evidence] = {}
        self.change_log: list[StatusChange] = []
        # normalized location -> sorted ids of the clusters there
        self._ids_by_location: dict[str, list[str]] = {}

    def add_cluster(self, cluster: EventCluster, features: Optional[ClusterFeatures] = None) -> None:
        index = self._ids_by_location
        previous = self.clusters.get(cluster.id)
        if previous is not None:
            index[previous.location].remove(cluster.id)
        self.clusters[cluster.id] = cluster
        bisect.insort(index.setdefault(cluster.location, []), cluster.id)
        if features is not None:
            self.features[cluster.id] = features

    def ingest_evidence(
        self,
        ev: Evidence,
        classifier: Optional[TeamedClassifier] = None,
    ) -> list[StatusChange]:
        """Apply ``ev``, late evidence included, to the historical clusters;
        returns the flips.

        An item whose id is already stored changes nothing, so each status
        stays a function of the evidence stored under its attached ids.
        Only clusters at the evidence's location can match, so only those
        are tried, in id order like a scan of every cluster. Each flip also
        updates the classifier weights (when one is wired in): supporting
        evidence counts as a +1 outcome for the members' recorded votes on
        that cluster, contradicting as -1.
        """
        if ev.id in self.evidence:
            return []
        self.evidence[ev.id] = ev
        changes: list[StatusChange] = []
        for cluster_id in self._ids_by_location.get(ev.location, ()):
            cluster = self.clusters[cluster_id]
            if not attach_evidence(cluster, ev, self.rule):
                continue
            old = cluster.status
            new = resolve_status(cluster, self.evidence)
            if new == old:
                continue
            cluster.status = new
            changes.append(StatusChange(cluster_id, old, new, ev.id))
            if classifier is not None:
                features = self.features.get(cluster_id)
                if features is not None:
                    outcome = 1 if ev.kind == SUPPORTING else -1
                    classifier.update(classifier.member_votes(features), outcome)
        self.change_log.extend(changes)
        return changes

    def export(self) -> list[dict]:
        return [self.clusters[cid].to_json_obj() for cid in sorted(self.clusters)]


def load_evidence_feed(path: str | Path) -> list[Evidence]:
    items = []
    with open(Path(path), "r", encoding="utf-8") as f:
        for i, line in enumerate(f):
            if line.strip():
                items.append(Evidence.from_json_line(line, fallback_id=f"ev-{i:06d}"))
    return items
