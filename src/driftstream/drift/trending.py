"""Rising-term detection over per-window term counts.

An internal substitute for platform trending feeds: a term is trending when
its current-window count jumps relative to its trailing mean. Add-one
smoothing keeps brand-new terms finite and flat terms near ratio 1.

``TrendingHistory`` keeps the trailing windows' counts summed as windows
arrive and leave, so each detection costs one pass over the newest
window's vocabulary, and over the trailing one only when that can matter.
"""

from __future__ import annotations

import heapq
from collections import Counter, deque

from .cooccurrence import subtract_counts


class TrendingHistory:
    """The last ``depth`` windows' term counts, with the trailing ones summed.

    ``top(k)`` is the top k terms of the history by rising ratio, ties broken
    alphabetically: (current + 1) / (trailing mean + 1) for every term
    counted in it, each ratio the same float as a recount of the history
    gives, since the trailing sum holds the same integers.
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
        # a term counted only in the trailing windows has a ratio below 1, so
        # it ranks only when fewer than k current terms reach 1
        if sum(key <= -1.0 for key, _ in keyed) < k:
            keyed.extend((-1.0 / (count / n + 1.0), term)
                         for term, count in trailing.items() if term not in current)
        return [term for _, term in heapq.nsmallest(max(k, 0), keyed)]
