"""Tracked keywords and post-to-keyword matching.

A KeywordSet holds seed topic terms plus entries promoted later (learned
from drift, misinformation feeds, authoritative reports). Matching is
case-insensitive; the default mode is substring, with a token mode for
precision experiments. Multilingual terms are plain configuration strings.
Matchers take the post text lowercased once by the caller, and each
lexicon is compiled once per change rather than once per post.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional

DEFAULT_SEED_KEYWORDS = (
    "corona",
    "covid-19",
    "ncov-19",
    "pandemic",
    "mask",
    "wuhan",
    "virus",
)

# Candidate terms for drift scoring: runs of word characters (plus hyphens
# inside a token), length >= 3, not a stopword.
TOKEN_RE = re.compile(r"[0-9a-zA-Z_]+(?:-[0-9a-zA-Z_]+)*")
MIN_TOKEN_LEN = 3

DEFAULT_STOPWORDS = frozenset(
    """
    the and for are but not you all can had her was one our out day get has
    him his how man new now old see two way who did its let put say she too
    use with this that from they have been will your what when were there
    their then them these than some more very just like about into over
    after also because while where which against does going only other such
    """.split()
)


class CompiledLexicon:
    """A lexicon's ``(term, value)`` pairs, compiled once for per-post scans.

    ``pairs`` keeps the given order, so a sum over it adds up in that order.
    ``any_term`` is one alternation of the terms (escaped, longest first):
    its ``search`` finds a match exactly when some term is a substring of
    the text, and never for an empty lexicon, so a scan can skip a text
    that holds no term.
    """

    __slots__ = ("pairs", "any_term")

    def __init__(self, pairs: Iterable[tuple[str, object]]):
        self.pairs = tuple(pairs)
        ordered = sorted((term for term, _ in self.pairs), key=len, reverse=True)
        self.any_term = re.compile("|".join(map(re.escape, ordered)) if ordered else "(?!)")


def tokenize(text: str, stopwords: frozenset[str] = DEFAULT_STOPWORDS) -> list[str]:
    """Lowercased candidate tokens of a post text, stopwords removed."""
    return [
        t
        for t in TOKEN_RE.findall(text.lower())
        if len(t) >= MIN_TOKEN_LEN and t not in stopwords
    ]


@dataclass
class KeywordEntry:
    term: str
    origin: str = "seed"  # seed | learned | misinfo | authoritative
    first_seen: float = 0.0
    promoted_at: Optional[float] = None
    correlation: float = 0.0
    active: bool = True

    def __post_init__(self):
        self.term = self.term.strip().lower()
        if not self.term:
            raise ValueError("keyword term must be non-empty")
        if self.origin not in ("seed", "learned", "misinfo", "authoritative"):
            raise ValueError(f"unknown keyword origin: {self.origin!r}")
        if self.origin == "seed":
            self.active = True
        if self.origin == "learned" and self.promoted_at is None:
            self.promoted_at = self.first_seen


class KeywordSet:
    def __init__(
        self,
        seeds: Iterable[str] = DEFAULT_SEED_KEYWORDS,
        match_mode: str = "substring",
        first_seen: float = 0.0,
    ):
        if match_mode not in ("substring", "token"):
            raise ValueError(f"unknown match_mode: {match_mode!r}")
        self.match_mode = match_mode
        self.entries: dict[str, KeywordEntry] = {}
        for term in seeds:
            entry = KeywordEntry(term=term, origin="seed", first_seen=first_seen)
            self.entries[entry.term] = entry
        self._compile()

    def _compile(self) -> None:
        self._active = tuple(t for t, e in self.entries.items() if e.active)

    def add(self, entry: KeywordEntry) -> bool:
        """Add an entry; seeds are never displaced. Returns True if new."""
        if entry.term in self.entries:
            return False
        self.entries[entry.term] = entry
        self._compile()
        return True

    def __contains__(self, term: str) -> bool:
        return term.strip().lower() in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def active_terms(self) -> list[str]:
        return sorted(self._active)

    def seed_terms(self) -> list[str]:
        return sorted(t for t, e in self.entries.items() if e.origin == "seed")

    def match(self, lowered: str) -> set[str]:
        """Active entries matching ``lowered``, a post text already lowercased."""
        if self.match_mode == "substring":
            return {t for t in self._active if t in lowered}
        tokens = TOKEN_RE.findall(lowered)
        token_set = set(tokens)
        hits = set()
        for term in self._active:
            parts = term.split()
            if len(parts) == 1:
                if parts[0] in token_set:
                    hits.add(term)
            elif _contains_phrase(tokens, parts):
                hits.add(term)
        return hits


def _contains_phrase(tokens: list[str], parts: list[str]) -> bool:
    n = len(parts)
    return any(tokens[i : i + n] == parts for i in range(len(tokens) - n + 1))


def match_keywords(
    post, keywords: KeywordSet, recent_matches=None, lowered: Optional[str] = None
) -> set[str]:
    """Terms of ``keywords`` that ``post`` matches.

    ``lowered`` is the post's text lowercased, when the caller already has
    it. A retweet of a post that matched is itself a match (inheriting the
    original's terms) when ``recent_matches`` — a SharedStore-backed view of
    recently matched post ids — knows the original.
    """
    if lowered is None:
        lowered = post.text.lower()
    matched = keywords.match(lowered)
    if not matched and recent_matches is not None and post.is_retweet_of is not None:
        inherited = recent_matches.get(f"match:{post.is_retweet_of}")
        if inherited:
            matched = set(inherited)
    return matched
