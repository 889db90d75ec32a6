"""Stateful drift stage: one sliding window for promotion and piggyback.

Posts are observed into slide-sized buckets, each post counted once against
both pair sides (topic seeds and misinformation tags). Each window keeps a
running sum of its buckets: when a slide closes, its bucket is merged in
and the bucket it evicts from a full window is subtracted, so the sum
always equals a fresh merge of the window's buckets. Whenever event time
crosses a slide boundary, promotion scores that sum. Promoted entries land
in the shared KeywordSet immediately, so the ingest filter picks them up
for subsequent records — propagation within one slide interval. The closed
slide's trending terms are then checked for riding the misinformation
vocabulary.

A late post, one whose slide has already closed, is counted into the slide
that is still open: closed slides never change, so a window's sum and the
promotions already made from it stay as they were.

Piggyback sees only slides that held posts: its window and its trending
history skip the empty slides of a gap, which promotion's window keeps. The
final flush evaluates promotion only.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from ..enrich.model import EnrichedPost
from ..keywords import KeywordSet
from ..misinfo.keywords import MisinfoKeywordSet
from .cooccurrence import CooccurrenceStats, observe_post
from .promotion import PromotionPolicy, promote_keywords
from .trending import TrendingHistory


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


def _slide(buckets: deque[_Bucket], total: CooccurrenceStats, bucket: _Bucket) -> None:
    """Append ``bucket`` to a window and keep ``total`` its sum."""
    if len(buckets) == buckets.maxlen:
        total.subtract(buckets[0].stats)
    buckets.append(bucket)
    total.merge(bucket.stats)


class DriftAdapter:
    """``policy=None`` counts and detects piggyback but never promotes;
    ``misinfo=None`` skips piggyback detection."""

    def __init__(
        self,
        keywords: KeywordSet,
        policy: Optional[PromotionPolicy] = None,
        window_length: float = 3600.0,
        slide: float = 600.0,
        tracked_phrases: tuple[str, ...] = (),
        trending_history: int = 6,
        misinfo: Optional[MisinfoKeywordSet] = None,
        trending_k: int = 10,
        piggyback_threshold: float = 0.7,
    ):
        if slide <= 0 or window_length <= 0:
            raise ValueError("window_length and slide must be positive")
        if window_length % slide != 0:
            raise ValueError("window_length must be a multiple of slide")
        self.keywords = keywords
        self.policy = policy
        self.window_length = window_length
        self.slide = slide
        self.tracked_phrases = tracked_phrases
        self.misinfo = misinfo
        self.trending_k = trending_k
        self.piggyback_threshold = piggyback_threshold
        buckets_per_window = int(window_length // slide)
        self._buckets: deque[_Bucket] = deque(maxlen=buckets_per_window)
        self._window_stats = self._new_stats()  # the sum of _buckets
        self._piggyback_buckets: deque[_Bucket] = deque(maxlen=buckets_per_window)
        self._piggyback_stats = self._new_stats()  # the sum of _piggyback_buckets
        self._trending = TrendingHistory(trending_history)
        self._current: Optional[_Bucket] = None
        self.audit: list[PromotionEvent] = []
        self.piggyback: list[dict] = []  # {"window_end", "candidates"} per flagged slide

    def _new_stats(self) -> CooccurrenceStats:
        return CooccurrenceStats(self.tracked_phrases)

    def _new_bucket(self, index: int) -> _Bucket:
        return _Bucket(index, self._new_stats())

    def observe(self, enriched: EnrichedPost) -> list[PromotionEvent]:
        """Observe one post; returns promotions triggered by a slide rollover.

        A post from a closed slide counts toward the open one."""
        index = int(enriched.post.created_at // self.slide)
        events: list[PromotionEvent] = []
        if self._current is None:
            self._current = self._new_bucket(index)
        elif index > self._current.index:
            events = self._advance_to(index)
        observe_post(self._current.stats, enriched, self.keywords)
        return events

    def _advance_to(self, index: int) -> list[PromotionEvent]:
        """Close every slide before ``index``, the empty ones of a gap included."""
        events: list[PromotionEvent] = []
        while self._current.index < index:
            closed = self._close_current()
            events.extend(self._evaluate(closed.index))
            if closed.stats.total_posts:
                self._detect_piggyback(closed)
        return events

    def _close_current(self) -> _Bucket:
        closed = self._current
        _slide(self._buckets, self._window_stats, closed)
        self._current = self._new_bucket(closed.index + 1)
        return closed

    def _merged(self, buckets: deque[_Bucket]) -> CooccurrenceStats:
        """A fresh merge of ``buckets``: the oracle for the running sums."""
        merged = self._new_stats()
        for bucket in buckets:
            merged.merge(bucket.stats)
        return merged

    def _evaluate(self, closed_index: int) -> list[PromotionEvent]:
        if self.policy is None:
            return []
        window_end = (closed_index + 1) * self.slide
        window_start = window_end - self.window_length
        now = window_end
        promoted = promote_keywords(self._window_stats, self.policy, self.keywords, now)
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

    def _detect_piggyback(self, closed: _Bucket) -> None:
        # misinfo.piggyback imports this package, so it is bound on use
        from ..misinfo.piggyback import detect_piggyback

        _slide(self._piggyback_buckets, self._piggyback_stats, closed)
        self._trending.push(closed.stats.term_counts)
        if self.misinfo is None or len(self._trending) < 2:
            return
        candidates = detect_piggyback(
            self._trending.top(self.trending_k),
            self.misinfo,
            self._piggyback_stats.misinfo_side(),
            threshold=self.piggyback_threshold,
        )
        if candidates:
            window_end = (closed.index + 1) * self.slide
            self.piggyback.append({"window_end": window_end, "candidates": sorted(candidates)})

    def flush(self) -> list[PromotionEvent]:
        """Close the open bucket at stream end and run a final promotion."""
        if self._current is None:
            return []
        return self._evaluate(self._close_current().index)
