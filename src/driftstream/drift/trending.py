"""Rising-term detection over per-window term counts.

An internal substitute for platform trending feeds: a term is trending when
its current-window count jumps relative to its trailing mean. Add-one
smoothing keeps brand-new terms finite and flat terms near ratio 1.

``TrendingHistory`` is what the drift stage runs: it keeps the trailing
windows' counts summed as windows arrive and leave, so each detection costs
one pass over the vocabulary. ``rising_ratios`` and ``detect_trending``
recompute from the whole history and are its oracle.
"""

from __future__ import annotations

import heapq
from collections import Counter, deque
from typing import Sequence

from .cooccurrence import subtract_counts


def rising_ratios(history: Sequence[Counter]) -> dict[str, float]:
    """(current + 1) / (trailing mean + 1) for every term ever counted."""
    if len(history) < 2:
        raise ValueError("need at least 2 windows of history")
    current = history[-1]
    trailing = history[:-1]
    vocabulary = set(current)
    for window in trailing:
        vocabulary.update(window)
    ratios = {}
    for term in vocabulary:
        mean = sum(w.get(term, 0) for w in trailing) / len(trailing)
        ratios[term] = (current.get(term, 0) + 1.0) / (mean + 1.0)
    return ratios


def detect_trending(history: Sequence[Counter], k: int) -> list[str]:
    """Top-k terms by rising ratio; alphabetical tie-break for stability."""
    ratios = rising_ratios(history)
    ranked = sorted(ratios.items(), key=lambda item: (-item[1], item[0]))
    return [term for term, _ in ranked[: max(k, 0)]]


class TrendingHistory:
    """The last ``depth`` windows' term counts, with the trailing ones summed.

    ``top(k)`` equals ``detect_trending(list(history), k)``: the trailing sum
    holds the same integers that function adds up per term, so every ratio
    is the same float.
    """

    def __init__(self, depth: int):
        self.history: deque[Counter] = deque(maxlen=depth)
        self.trailing: Counter = Counter()  # every window but the newest, summed

    def __len__(self) -> int:
        return len(self.history)

    def push(self, counts: Counter) -> None:
        history = self.history
        if history:
            # the newest window joins the trailing ones; a full history
            # evicts its oldest (with depth 1, the window just added)
            self.trailing.update(history[-1])
            if len(history) == history.maxlen:
                subtract_counts(self.trailing, history[0])
        history.append(counts)

    def top(self, k: int) -> list[str]:
        if len(self.history) < 2:
            raise ValueError("need at least 2 windows of history")
        current = self.history[-1]
        trailing = self.trailing
        n = len(self.history) - 1
        keyed = [(-(count + 1.0) / (trailing.get(term, 0) / n + 1.0), term)
                 for term, count in current.items()]
        keyed.extend((-1.0 / (count / n + 1.0), term)
                     for term, count in trailing.items() if term not in current)
        return [term for _, term in heapq.nsmallest(max(k, 0), keyed)]
