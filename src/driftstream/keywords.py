"""Tracked keywords and post-to-keyword matching.

A KeywordSet holds seed topic terms plus the terms drift promotes later;
every term is a normalized string (``normalize_term``), and the drift
audit, not the set, records when and why a term was promoted. Matching is
case-insensitive; the default mode is substring, with a token mode for
precision experiments. Multilingual terms are plain configuration strings.
Matchers take the post text lowercased once by the caller, and each
lexicon is compiled once per change rather than once per post.
RecentMatches holds the matched terms of recent relevant posts, so a
retweet of one inherits them for a TTL (retweet closure).
"""

from __future__ import annotations

import re
from collections import OrderedDict
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


def tokenize(text: str, stopwords: frozenset[str] = DEFAULT_STOPWORDS) -> set[str]:
    """The distinct lowercased candidate tokens of a post text, stopwords removed."""
    return {
        t
        for t in TOKEN_RE.findall(text.lower())
        if len(t) >= MIN_TOKEN_LEN and t not in stopwords
    }


def normalize_term(term: str) -> str:
    """``term`` stripped and lowercased; a blank term raises ValueError."""
    normalized = term.strip().lower()
    if not normalized:
        raise ValueError("keyword term must be non-empty")
    return normalized


class KeywordSet:
    """Normalized terms in arrival order; ``seeds`` are the ones it began with.

    Terms are only ever added: a promoted term stays matched for the run.
    """

    def __init__(self, seeds: Iterable[str] = DEFAULT_SEED_KEYWORDS, match_mode: str = "substring"):
        if match_mode not in ("substring", "token"):
            raise ValueError(f"unknown match_mode: {match_mode!r}")
        self.match_mode = match_mode
        self._terms = dict.fromkeys(map(normalize_term, seeds))
        self.seeds = frozenset(self._terms)

    def add(self, term: str) -> bool:
        """Add ``term``; returns True if it was not held yet."""
        term = normalize_term(term)
        if term in self._terms:
            return False
        self._terms[term] = None
        return True

    def __contains__(self, term: str) -> bool:
        return term.strip().lower() in self._terms

    def active_terms(self) -> list[str]:
        return sorted(self._terms)

    def match(self, lowered: str) -> set[str]:
        """Terms matching ``lowered``, a post text already lowercased."""
        if self.match_mode == "substring":
            return {t for t in self._terms if t in lowered}
        tokens = TOKEN_RE.findall(lowered)
        token_set = set(tokens)
        hits = set()
        for term in self._terms:
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


class RecentMatches:
    """Matched terms of recently relevant posts, by post id, for a TTL.

    An entry put at ``now`` is live while the watermark is below
    ``now + ttl``. Puts come at the runner's watermark, which never
    decreases, and all use the one TTL, so expiry order is put order: a
    re-put moves its id to the back, and ``sweep`` pops from the front.
    After ``sweep(now)`` every entry held is live at ``now``, so ``get`` is
    a plain lookup.
    """

    def __init__(self, ttl: float):
        self.ttl = ttl
        # id -> (expiry, terms). Not a plain dict: popping a dict's first key
        # scans past every slot earlier pops freed, so each sweep would cost
        # time in proportion to the entries held.
        self._entries: OrderedDict[int, tuple[float, tuple[str, ...]]] = OrderedDict()
        self._swept_at = float("-inf")

    def put(self, post_id: int, terms: tuple[str, ...], now: float) -> None:
        """Hold ``terms`` for ``post_id`` until ``now + ttl``, replacing any entry."""
        self._entries[post_id] = (now + self.ttl, terms)
        self._entries.move_to_end(post_id)

    def get(self, post_id: int) -> Optional[tuple[str, ...]]:
        hit = self._entries.get(post_id)
        return None if hit is None else hit[1]

    def sweep(self, now: Optional[float] = None) -> int:
        """Drop the entries expired at ``now`` (by default the last ``now``
        swept at); returns how many were dropped."""
        if now is None:
            now = self._swept_at
        self._swept_at = now
        entries = self._entries
        dropped = 0
        while entries and next(iter(entries.values()))[0] <= now:
            entries.popitem(last=False)
            dropped += 1
        return dropped

    def __len__(self) -> int:
        return len(self._entries)


def match_keywords(
    post, keywords: KeywordSet, recent_matches=None, lowered: Optional[str] = None
) -> set[str]:
    """Terms of ``keywords`` that ``post`` matches.

    ``lowered`` is the post's text lowercased, when the caller already has
    it. A retweet of a post that matched is itself a match (inheriting the
    original's terms) when ``recent_matches`` still holds the original.
    """
    if lowered is None:
        lowered = post.text.lower()
    matched = keywords.match(lowered)
    if not matched and recent_matches is not None and post.is_retweet_of is not None:
        inherited = recent_matches.get(post.is_retweet_of)
        if inherited:
            matched = set(inherited)
    return matched
