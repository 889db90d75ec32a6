"""Evidence accumulation, status resolution, and retroactive correction.

A cluster's status is a pure function of the evidence attached to it:
corroborated once supporting items outnumber contradicting ones, refuted in
the opposite case, tentative in between. Because the function only looks at
the evidence multiset, arrival order can never change the outcome, and once
evidence stops arriving the status is settled for good.

Late evidence (the news article written days after the event) re-matches
against the historical clusters at its location and within its lag
tolerance, which the store indexes by window start as clusters are added;
every status flip is logged and also drives one weight update of the
teamed classifier, signed by the kind of evidence that caused the flip.

The store keeps each status current incrementally (Gupta and Mumick,
"Maintenance of Materialized Views", 1995): each cluster holds a running
count of supporting minus contradicting items (``EventCluster.net``),
bumped once per new attachment and read as its status, so applying an item
costs the clusters it can match, not every attachment those clusters ever
received. ``resolve_status`` recounts every attachment and agrees.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from ..enrich.locations import normalize_location
from ..sources.feeds import feed_field, read_feed, text, timestamp
from ..timeutil import DAY
from .clusters import EventCluster
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
    """Historical cluster store: single writer, snapshot readers.

    Clusters are added as ``window_clusters`` builds them, without evidence;
    the store attaches evidence itself and bumps each cluster's ``net``
    count (supporting minus contradicting) with every item it attaches.
    """

    def __init__(self, rule: Optional[MatchRule] = None):
        self.rule = rule or MatchRule()
        self.clusters: dict[str, EventCluster] = {}
        self.evidence: dict[str, Evidence] = {}
        self.change_log: list[StatusChange] = []
        # normalized location -> sorted (window start, cluster id) of the clusters there
        self._starts_by_location: dict[str, list[tuple[float, str]]] = {}
        self._longest_window = 0.0  # of every cluster stored

    def add_cluster(self, cluster: EventCluster) -> None:
        """Store ``cluster``, replacing any cluster with its id. Its
        attachments and their tally stay as the cluster holds them."""
        index = self._starts_by_location
        previous = self.clusters.get(cluster.id)
        if previous is not None:
            entries = index[previous.location]
            del entries[bisect.bisect_left(entries, (previous.window.window_start, cluster.id))]
        self.clusters[cluster.id] = cluster
        window = cluster.window
        bisect.insort(index.setdefault(cluster.location, []), (window.window_start, cluster.id))
        self._longest_window = max(self._longest_window, window.window_length)

    def _candidates(self, ev: Evidence) -> list[str]:
        """Ids, in order, of the clusters at ``ev``'s location whose window
        can lie within the lag tolerance of its time. The bounds repeat
        ``attach_evidence``'s test in its own arithmetic, so no cluster it
        would attach is left out."""
        entries = self._starts_by_location.get(ev.location)
        if not entries:
            return []
        t, lag, longest = ev.time, self.rule.lag_tolerance, self._longest_window
        # from the first window that ends late enough at the longest length
        # stored, to the last that starts early enough
        lo = bisect.bisect_left(entries, -lag, key=lambda entry: -(t - (entry[0] + longest)))
        hi = bisect.bisect_right(entries, lag, key=lambda entry: entry[0] - t, lo=lo)
        return sorted(cluster_id for _, cluster_id in entries[lo:hi])

    def ingest_evidence(
        self,
        ev: Evidence,
        classifier: Optional[TeamedClassifier] = None,
    ) -> list[StatusChange]:
        """Apply ``ev``, late evidence included, to the historical clusters;
        returns the flips.

        An item whose id is already stored changes nothing, so each status
        stays a function of the evidence stored under its attached ids, and
        each attachment is counted once. Only ``_candidates(ev)`` can match,
        so only those are tried, in id order like a scan of every cluster.
        Each flip also updates the classifier weights (when one is wired
        in): supporting evidence counts as a +1 outcome for the members'
        votes on that cluster, contradicting as -1.
        """
        if ev.id in self.evidence:
            return []
        self.evidence[ev.id] = ev
        step = 1 if ev.kind == SUPPORTING else -1
        changes: list[StatusChange] = []
        for cluster_id in self._candidates(ev):
            cluster = self.clusters[cluster_id]
            if not attach_evidence(cluster, ev, self.rule):
                continue
            old = cluster.status
            cluster.net += step
            new = cluster.status
            if new == old:
                continue
            changes.append(StatusChange(cluster_id, old, new, ev.id))
            if classifier is not None:
                classifier.update(classifier.member_votes(cluster), step)
        self.change_log.extend(changes)
        return changes

    def export(self) -> list[dict]:
        return [self.clusters[cid].to_json_obj() for cid in sorted(self.clusters)]


def load_evidence_feed(path: str | Path) -> list[Evidence]:
    """Every item in an evidence feed, in file order; a malformed line
    raises a FeedError naming the file, line and field. An item without
    an id gets ``ev-NNNNNN`` from its 0-based line index."""
    return read_feed(path, _evidence)


def _evidence(obj: dict, number: int) -> Evidence:
    return Evidence(
        id=str(obj.get("id") or f"ev-{number - 1:06d}"),
        kind=feed_field(obj, "kind", text),
        source=feed_field(obj, "source", text),
        location=feed_field(obj, "location", text),
        time=feed_field(obj, "time", timestamp),
        terms=feed_field(obj, "terms", _terms, []),
        arrived_at=feed_field(obj, "arrived_at", timestamp, 0.0),
    )


def _terms(value) -> set[str]:
    if not isinstance(value, list) or not all(isinstance(t, str) for t in value):
        raise TypeError(f"expected a list of strings, got {value!r}")
    return set(value)
