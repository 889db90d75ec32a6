"""Per-window misinformation reports and the authoritative-source list.

Every post of a minute window is tagged against one snapshot of the keyword
set; in a run, that is the one set read before the first post. Each window
produces a statistics report. A post from an authoritative source keeps
its matched misinformation terms (a debunk quoting the rumor is still
worth recording) but never counts toward the misinformation tally.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..core.windows import WindowAssignment, window_start
from ..enrich.model import EnrichedPost
from .keywords import MisinfoKeywordSet


@dataclass
class WindowTagReport:
    window: WindowAssignment
    posts_in: int = 0
    tagged: int = 0
    term_counts: Counter = field(default_factory=Counter)


def top_terms(term_counts: Counter) -> list[str]:
    """The five most counted terms, ties broken alphabetically."""
    ranked = sorted(term_counts.items(), key=lambda item: (-item[1], item[0]))
    return [term for term, _ in ranked[:5]]


class AuthoritativeSourceList:
    def __init__(self, sources: Iterable[str]):
        self.sources = {s.strip().lower() for s in sources if s.strip()}
        if not self.sources:
            raise ValueError("authoritative source list must be non-empty")

    def matches(self, channel: str) -> bool:
        return channel.strip().lower() in self.sources


def window_tally(posts: Sequence[EnrichedPost]) -> tuple[int, Optional[Counter]]:
    """``(tagged posts, term counts)`` of one window from the misinformation
    terms its posts hold; the term counts are None when no post is tagged.

    The caller knows the window: the runner takes its start from the
    buffer that grouped the posts (``WindowBuffers.pop_ready``).
    """
    tagged = 0
    term_counts = None
    for post in posts:
        if post.misinfo_terms and not post.authoritative:
            tagged += 1
            if term_counts is None:
                term_counts = Counter()
            term_counts.update(post.misinfo_terms)
    return tagged, term_counts


def window_report(posts: Sequence[EnrichedPost], window_length: float = 60.0) -> WindowTagReport:
    """One window's report from any list of posts: its window is the first
    post's, and a post outside it raises ValueError; the tally is
    ``window_tally``'s."""
    start = window_start(posts[0].post.created_at if posts else 0.0, window_length)
    for post in posts:
        if window_start(post.post.created_at, window_length) != start:
            raise ValueError(f"post {post.post.id} falls outside window starting at {start}")
    tagged, term_counts = window_tally(posts)
    return WindowTagReport(
        WindowAssignment(start, float(window_length)), len(posts), tagged, term_counts or Counter()
    )


def tag_misinformation_window(
    posts: Sequence[EnrichedPost],
    keyword_set: MisinfoKeywordSet,
    window_length: float = 60.0,
) -> tuple[list[EnrichedPost], WindowTagReport]:
    """Tag one window's posts against one snapshot of ``keyword_set``;
    returns them plus the window report.

    The runner tags each post at ingest instead, against the one set it
    reads before its first post, so a window closes with exactly these
    tags.
    """
    for post in posts:
        post.misinfo_terms = keyword_set.match(post.post.text.lower())
    return list(posts), window_report(posts, window_length)
