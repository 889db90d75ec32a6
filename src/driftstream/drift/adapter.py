"""Stateful drift stage: sliding-window scoring plus promotion on each slide.

Posts are observed into slide-sized buckets; whenever event time crosses a
slide boundary, the buckets spanning the scoring window are merged, scored
and promotion runs. Promoted entries land in the shared KeywordSet
immediately, so the ingest filter picks them up for subsequent records —
propagation within one slide interval.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Optional

from ..enrich.model import EnrichedPost
from ..keywords import KeywordSet
from .cooccurrence import CooccurrenceStats, observe_post
from .promotion import PromotionPolicy, promote_keywords


@dataclass
class PromotionEvent:
    term: str
    promoted_at: float
    score: float
    window_start: float
    window_end: float

    def to_json_obj(self) -> dict:
        return {
            "term": self.term,
            "promoted_at": self.promoted_at,
            "score": self.score,
            "window": [self.window_start, self.window_end],
        }


@dataclass
class _Bucket:
    index: int
    stats: CooccurrenceStats


class DriftAdapter:
    def __init__(
        self,
        keywords: KeywordSet,
        policy: Optional[PromotionPolicy] = None,
        window_length: float = 3600.0,
        slide: float = 600.0,
        tracked_phrases: tuple[str, ...] = (),
        trending_history: int = 6,
    ):
        if slide <= 0 or window_length <= 0:
            raise ValueError("window_length and slide must be positive")
        if window_length % slide != 0:
            raise ValueError("window_length must be a multiple of slide")
        self.keywords = keywords
        self.policy = policy or PromotionPolicy()
        self.window_length = window_length
        self.slide = slide
        self.tracked_phrases = tracked_phrases
        self.buckets_per_window = int(window_length // slide)
        self._buckets: deque[_Bucket] = deque()
        self._current: Optional[_Bucket] = None
        self.audit: list[PromotionEvent] = []
        self.window_history: deque[Counter] = deque(maxlen=trending_history)

    def _bucket_index(self, event_time: float) -> int:
        return int(event_time // self.slide)

    def observe(self, enriched: EnrichedPost) -> list[PromotionEvent]:
        """Observe one post; returns promotions triggered by a slide rollover."""
        index = self._bucket_index(enriched.post.created_at)
        events: list[PromotionEvent] = []
        if self._current is None:
            self._current = _Bucket(index, CooccurrenceStats(self.window_length, self.tracked_phrases))
        elif index > self._current.index:
            events = self._advance_to(index)
        observe_post(self._current.stats, enriched, self.keywords)
        return events

    def _advance_to(self, index: int) -> list[PromotionEvent]:
        events: list[PromotionEvent] = []
        while self._current is not None and self._current.index < index:
            closed = self._current
            self._buckets.append(closed)
            self.window_history.append(Counter(closed.stats.term_counts))
            while len(self._buckets) > self.buckets_per_window:
                self._buckets.popleft()
            events.extend(self._evaluate(closed.index))
            next_index = closed.index + 1
            self._current = _Bucket(
                next_index, CooccurrenceStats(self.window_length, self.tracked_phrases)
            )
        return events

    def _evaluate(self, closed_index: int) -> list[PromotionEvent]:
        merged = CooccurrenceStats(self.window_length, self.tracked_phrases)
        for bucket in self._buckets:
            merged.merge(bucket.stats)
        window_end = (closed_index + 1) * self.slide
        window_start = window_end - self.window_length
        now = window_end
        promoted = promote_keywords(merged, self.policy, self.keywords, now)
        events = [
            PromotionEvent(
                term=e.term,
                promoted_at=now,
                score=e.correlation,
                window_start=window_start,
                window_end=window_end,
            )
            for e in promoted
        ]
        self.audit.extend(events)
        return events

    def flush(self) -> list[PromotionEvent]:
        """Close the open bucket at stream end and run a final evaluation."""
        if self._current is None:
            return []
        return self._advance_to(self._current.index + 1)
