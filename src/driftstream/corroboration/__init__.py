from .clusters import (
    ClusterFeatures,
    EventCluster,
    cluster_features,
    form_clusters,
)
from .evidence import (
    ClusterStore,
    Evidence,
    MatchRule,
    StatusChange,
    attach_evidence,
    load_evidence_feed,
    resolve_status,
)
from .team import (
    Member,
    TeamedClassifier,
    add_member,
    cluster_size_member,
    default_team,
    keyword_presence_member,
    sentiment_extremity_member,
    source_diversity_member,
    update_weights,
)

__all__ = [
    "ClusterFeatures",
    "ClusterStore",
    "Evidence",
    "EventCluster",
    "MatchRule",
    "Member",
    "StatusChange",
    "TeamedClassifier",
    "add_member",
    "attach_evidence",
    "cluster_features",
    "cluster_size_member",
    "default_team",
    "form_clusters",
    "keyword_presence_member",
    "load_evidence_feed",
    "resolve_status",
    "sentiment_extremity_member",
    "source_diversity_member",
    "update_weights",
]
