"""Weighted ensemble of cluster scorers with evidence-driven weights.

Members are deterministic scorers of the features an ``EventCluster``
holds, producing values in [0, 1]; the team prediction is their
weight-normalized sum. When evidence settles a cluster, members that voted
with the evidence gain relative weight and members that voted against lose
it, multiplicatively: a member voting v on an outcome o (+1 supporting, -1
contradicting) is scaled by exp(eta * o * (2v - 1)).

Raw weights are kept unnormalized internally (the exposed ``weights`` view
is always normalized), so the multiplicative decay of a member is exactly
the product of its update factors — e.g. k straight losses at full
confidence multiply its raw weight by exp(-k * eta).

A run's team is ``default_team``'s four members, fixed: evidence moves only
their weights. ``keywords`` votes 1 when a seed, stripped and lowercased,
is among the cluster's topic terms, else 0; ``size`` votes size / 10,
``sentiment`` the mean absolute sentiment and ``diversity`` channels / 3.
``Member`` clamps every vote to [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .clusters import EventCluster

DEFAULT_LEARNING_RATE = 0.5

Scorer = Callable[[EventCluster], float]


@dataclass
class Member:
    id: str
    scorer: Scorer

    def __call__(self, cluster: EventCluster) -> float:
        value = float(self.scorer(cluster))
        return max(0.0, min(1.0, value))


class TeamedClassifier:
    def __init__(self, members: Sequence[Member], eta: float = DEFAULT_LEARNING_RATE):
        if not members:
            raise ValueError("a teamed classifier needs at least one member")
        if eta <= 0:
            raise ValueError("learning rate must be positive")
        self.members: list[Member] = list(members)
        self.eta = eta
        self.raw_weights: list[float] = [1.0 / len(members)] * len(members)

    @property
    def weights(self) -> list[float]:
        total = sum(self.raw_weights)
        return [w / total for w in self.raw_weights]

    def member_votes(self, cluster: EventCluster) -> list[float]:
        return [member(cluster) for member in self.members]

    def predict(self, cluster: EventCluster) -> float:
        votes = self.member_votes(cluster)
        return sum(w * v for w, v in zip(self.weights, votes))

    def update(self, votes: Sequence[float], outcome: int) -> list[float]:
        """Apply one evidence outcome; returns the new normalized weights."""
        if outcome not in (1, -1):
            raise ValueError(f"outcome must be +1 or -1, got {outcome}")
        if len(votes) != len(self.members):
            raise ValueError("one vote per member required")
        for v in votes:
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"votes must lie in [0, 1], got {v}")
        self.raw_weights = [
            w * math.exp(self.eta * outcome * (2.0 * v - 1.0))
            for w, v in zip(self.raw_weights, votes)
        ]
        return self.weights


def update_weights(classifier: TeamedClassifier, member_votes: Sequence[float], outcome: int) -> list[float]:
    return classifier.update(member_votes, outcome)


def default_team(topic_terms: Iterable[str], eta: float = DEFAULT_LEARNING_RATE) -> TeamedClassifier:
    wanted = {t.strip().lower() for t in topic_terms if t.strip()}
    return TeamedClassifier(
        members=[
            Member("keywords", lambda c: 1.0 if wanted & c.topic_terms else 0.0),
            Member("size", lambda c: c.size / 10),
            Member("sentiment", lambda c: c.mean_abs_sentiment),
            Member("diversity", lambda c: c.channels / 3),
        ],
        eta=eta,
    )
