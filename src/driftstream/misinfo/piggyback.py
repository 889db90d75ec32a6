"""Detecting new terms that ride existing misinformation trends.

New rumor campaigns often attach themselves to terms already circulating.
A trending term that co-occurs strongly with the known misinformation
vocabulary is a candidate — surfaced for review, never auto-promoted,
because a feedback loop in this set is worse than a missed term.

The counts come from the drift stage's slide window
(``CooccurrenceStats.misinfo_side``), which also runs this rule on each
slide close.
"""

from __future__ import annotations

from typing import Sequence

from ..drift.cooccurrence import CooccurrenceStats, score_candidate
from .keywords import MisinfoKeywordSet

DEFAULT_PIGGYBACK_THRESHOLD = 0.7


def detect_piggyback(
    trending: Sequence[str],
    keyword_set: MisinfoKeywordSet,
    stats: CooccurrenceStats,
    threshold: float = DEFAULT_PIGGYBACK_THRESHOLD,
) -> list[str]:
    """Trending terms whose misinfo co-occurrence clears the threshold.

    ``stats`` pairs terms with misinformation-tagged posts on its seed side.
    """
    if not len(keyword_set):
        return []
    candidates = []
    for term in trending:
        if term in keyword_set:
            continue
        if score_candidate(stats, term) >= threshold:
            candidates.append(term)
    return candidates
