"""Stateful drift stage: one sliding window for promotion and piggyback.

Posts are observed into slide-sized buckets, each post counted once against
both pair sides (topic seeds and misinformation tags). The promotion window
keeps a running sum of its buckets: when a slide closes, its bucket is
merged in and the bucket it evicts from a full window is subtracted, so the
sum always equals a fresh merge of the window's buckets. Whenever event
time crosses a slide boundary, promotion scores that sum. Promoted terms
land in the shared KeywordSet immediately, so the ingest filter picks them
up for subsequent records — propagation within one slide interval. The
closed slide's trending terms are then checked for riding the
misinformation vocabulary.

A late post, one whose slide has already closed, is counted into the slide
that is still open: closed slides never change, so a window's sum and the
promotions already made from it stay as they were.

Piggyback sees only slides that held posts: its window and its trending
history skip the empty slides of a gap, which promotion's window keeps.
While no empty slide sits in the promotion window, both windows hold the
same buckets, so piggyback reads promotion's running sum; after a gap it
merges its own buckets afresh, at most one window's worth per close. The
final flush evaluates promotion only.

A gap in event time costs O(W) closes for a window of W slides, not one
per slide of the gap: once the open slide and the promotion window are
both empty, every further close of the gap would promote nothing (the
window is empty) and detect nothing (piggyback skips empty slides), so
the adapter drops the empty window and opens the post's slide directly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from ..enrich.model import EnrichedPost
from ..keywords import KeywordSet
from ..misinfo.keywords import MisinfoKeywordSet
from ..misinfo.piggyback import detect_piggyback
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
        self._trending = TrendingHistory(trending_history)
        self._current: Optional[_Bucket] = None
        self.audit: list[PromotionEvent] = []
        self.piggyback: list[dict] = []  # {"window_end", "candidates"} per flagged slide

    def _new_stats(self) -> CooccurrenceStats:
        return CooccurrenceStats(self.tracked_phrases)

    def _new_bucket(self, index: int) -> _Bucket:
        return _Bucket(index, self._new_stats())

    def observe(self, enriched: EnrichedPost) -> None:
        """Observe one post; a slide rollover first closes the slides before
        it, and their promotions land in ``audit``.

        A post from a closed slide counts toward the open one."""
        index = int(enriched.post.created_at // self.slide)
        if self._current is None:
            self._current = self._new_bucket(index)
        elif index > self._current.index:
            self._advance_to(index)
        observe_post(self._current.stats, enriched, self.keywords)

    def _advance_to(self, index: int) -> None:
        """Close every slide before ``index``, up to the first that finds the
        open slide and the promotion window both empty; then open ``index``."""
        while self._current.index < index:
            if not self._current.stats.total_posts and not self._window_stats.total_posts:
                self._buckets.clear()
                self._current = self._new_bucket(index)
                return
            closed = self._close_current()
            self._evaluate(closed.index)
            if closed.stats.total_posts:
                self._detect_piggyback(closed)

    def _close_current(self) -> _Bucket:
        closed = self._current
        buckets = self._buckets
        if len(buckets) == buckets.maxlen:
            self._window_stats.subtract(buckets[0].stats)
        buckets.append(closed)
        self._window_stats.merge(closed.stats)
        self._current = self._new_bucket(closed.index + 1)
        return closed

    def _merged(self, buckets: deque[_Bucket]) -> CooccurrenceStats:
        """A fresh merge of ``buckets``."""
        merged = self._new_stats()
        for bucket in buckets:
            merged.merge(bucket.stats)
        return merged

    def _evaluate(self, closed_index: int) -> None:
        if self.policy is None:
            return
        window_end = (closed_index + 1) * self.slide
        window_start = window_end - self.window_length
        self.audit.extend(
            PromotionEvent(term, window_end, score, window_start, window_end)
            for term, score in promote_keywords(self._window_stats, self.policy, self.keywords)
        )

    def _detect_piggyback(self, closed: _Bucket) -> None:
        self._piggyback_buckets.append(closed)
        self._trending.push(closed.stats.term_counts)
        if self.misinfo is None or len(self._trending) < 2:
            return
        candidates = detect_piggyback(
            self._trending.top(self.trending_k),
            self.misinfo,
            self._piggyback_stats().misinfo_side(),
            threshold=self.piggyback_threshold,
        )
        if candidates:
            window_end = (closed.index + 1) * self.slide
            self.piggyback.append({"window_end": window_end, "candidates": sorted(candidates)})

    def _piggyback_stats(self) -> CooccurrenceStats:
        """The sum of the piggyback window. Both windows end with the slide
        just closed; when piggyback's oldest bucket is no older than
        promotion's, no empty slide sits in promotion's window, so the two
        hold the same buckets and promotion's running sum is theirs."""
        if self._piggyback_buckets[0].index >= self._buckets[0].index:
            return self._window_stats
        return self._merged(self._piggyback_buckets)

    def flush(self) -> None:
        """Close the open bucket at stream end and run a final promotion."""
        if self._current is not None:
            self._evaluate(self._close_current().index)
