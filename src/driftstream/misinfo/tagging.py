"""Per-window misinformation tagging and authoritative-source tagging.

Posts are checked a minute's worth at a time against a consistent snapshot
of the keyword set, and every window produces a statistics report. A post
from an authoritative source keeps its matched misinformation terms (a
debunk quoting the rumor is still worth recording) but never counts toward
the misinformation tally.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..core.windows import WindowAssignment, assign_window, window_start
from ..enrich.model import EnrichedPost
from .keywords import MisinfoKeywordSet


@dataclass
class WindowTagReport:
    window: WindowAssignment
    posts_in: int = 0
    tagged: int = 0
    term_counts: Counter = field(default_factory=Counter)

    def top_terms(self, k: int = 5) -> list[str]:
        ranked = sorted(self.term_counts.items(), key=lambda item: (-item[1], item[0]))
        return [term for term, _ in ranked[:k]]


class AuthoritativeSourceList:
    def __init__(self, sources: Iterable[str]):
        self.sources = {s.strip().lower() for s in sources if s.strip()}
        if not self.sources:
            raise ValueError("authoritative source list must be non-empty")

    def matches(self, channel: str) -> bool:
        return channel.strip().lower() in self.sources

    def __contains__(self, channel: str) -> bool:
        return self.matches(channel)

    def __len__(self) -> int:
        return len(self.sources)


def tag_authoritative(post: EnrichedPost, sources: AuthoritativeSourceList) -> EnrichedPost:
    post.authoritative = sources.matches(post.post.channel)
    return post


def tag_misinformation_window(
    posts: Sequence[EnrichedPost],
    keyword_set: MisinfoKeywordSet,
    window_length: float = 60.0,
) -> tuple[list[EnrichedPost], WindowTagReport]:
    """Tag one window's posts; returns them plus the window report.

    All posts must fall in the same window. The keyword set does not
    change while a window is tagged, so every post of the window sees one
    snapshot of it; a refresh lands in the next window.
    """
    window = assign_window(posts[0].post.created_at if posts else 0.0, window_length)
    start = window.window_start
    for p in posts:
        if window_start(p.post.created_at, window_length) != start:
            raise ValueError(f"post {p.post.id} falls outside window starting at {start}")

    report = WindowTagReport(window=window)
    for post in posts:
        report.posts_in += 1
        hits = keyword_set.match(post.post.text.lower())
        post.misinfo_terms = hits
        if hits and not post.authoritative:
            report.tagged += 1
            for term in hits:
                report.term_counts[term] += 1
    return list(posts), report
