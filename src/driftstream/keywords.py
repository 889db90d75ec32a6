"""Tracked keywords and post-to-keyword matching.

A KeywordSet holds seed topic terms plus the terms drift promotes later;
every term is a normalized string (``normalize_term``), and the drift
audit, not the set, records when and why a term was promoted. Matching is
case-insensitive; the default mode is substring, with a token mode for
precision experiments. Multilingual terms are plain configuration strings
in substring mode; a token-mode term is made of ``TOKEN_RE`` tokens, which
are ASCII, and ``parse_config`` refuses a seed or tracked phrase that is
not. Matchers take the post text lowercased once by the caller. The
pipeline tags a post in substring mode off ``clean_post``'s one scan of
every lexicon at once, and in token mode off the token list that scan
reads; ``match_keywords`` is the per-set definition it must agree with.
A match that finds nothing returns ``NO_TAGS``, the one shared empty
frozenset, so a post that matches nothing keeps no container of its own.

RecentMatches holds the matched terms of recent relevant posts, so a
retweet of one inherits them for a TTL (retweet closure). At high rates it
holds hundreds of thousands of entries, so it keeps them as flat columns,
an int64 id, a float64 expiry and a shared term tuple: about 24 bytes an
entry. That relies on post ids rising with time, as Twitter's Snowflake
ids do ("Announcing Snowflake", Twitter Engineering, 2010); the few that
do not go to a small side dict.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from heapq import merge
from operator import itemgetter
from typing import Iterable, Iterator, Optional

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


# What every match that finds nothing returns; no caller mutates a match.
NO_TAGS: frozenset[str] = frozenset()

# Ids at or past this do not fit an int64 column.
_ID_END = 2**63


def is_candidate(token: str) -> bool:
    """Whether ``token``, a ``TOKEN_RE`` token, is a drift candidate: long
    enough and not a stopword."""
    return len(token) >= MIN_TOKEN_LEN and token not in DEFAULT_STOPWORDS


def tokenize(text: str) -> set[str]:
    """The distinct lowercased candidate tokens of a post text, stopwords removed.

    This is the definition of a post's drift candidates. The pipeline reads
    them off ``clean_post``'s one token scan (``EnrichedPost.candidates``,
    through ``is_candidate``), where drift and clusters count them.
    """
    return set(filter(is_candidate, TOKEN_RE.findall(text.lower())))


def normalize_term(term: str) -> str:
    """``term`` stripped and lowercased; a blank term raises ValueError."""
    normalized = term.strip().lower()
    if not normalized:
        raise ValueError("keyword term must be non-empty")
    return normalized


class KeywordSet:
    """Normalized terms; ``seeds`` are the ones it began with.

    Terms are only ever added: a promoted term stays matched for the run.
    ``terms`` is a frozenset that an add replaces, so a holder of one knows
    the set has grown when it is no longer ``terms``.
    """

    def __init__(self, seeds: Iterable[str] = DEFAULT_SEED_KEYWORDS, match_mode: str = "substring"):
        if match_mode not in ("substring", "token"):
            raise ValueError(f"unknown match_mode: {match_mode!r}")
        self.match_mode = match_mode
        self.terms = self.seeds = frozenset(map(normalize_term, seeds))

    def add(self, term: str) -> bool:
        """Add ``term``; returns True if it was not held yet."""
        term = normalize_term(term)
        if term in self.terms:
            return False
        self.terms = self.terms | {term}
        return True

    def __contains__(self, term: str) -> bool:
        return term.strip().lower() in self.terms

    def active_terms(self) -> list[str]:
        return sorted(self.terms)

    def match(self, lowered: str, tokens: Optional[list[str]] = None) -> set[str] | frozenset[str]:
        """Terms matching ``lowered``, a post text already lowercased;
        ``NO_TAGS`` when none does. In token mode ``tokens`` is
        ``TOKEN_RE.findall(lowered)``, when the caller already has it."""
        if self.match_mode == "substring":
            return {t for t in self.terms if t in lowered} or NO_TAGS
        if tokens is None:
            tokens = TOKEN_RE.findall(lowered)
        token_set = set(tokens)
        hits = set()
        for term in self.terms:
            parts = term.split()
            if len(parts) == 1:
                if parts[0] in token_set:
                    hits.add(term)
            elif _contains_phrase(tokens, parts):
                hits.add(term)
        return hits or NO_TAGS


def _contains_phrase(tokens: list[str], parts: list[str]) -> bool:
    n = len(parts)
    return any(tokens[i : i + n] == parts for i in range(len(tokens) - n + 1))


class RecentMatches:
    """Matched terms of recently relevant posts, by post id, for a TTL.

    An entry put at ``now`` is live while the watermark is below
    ``now + ttl``. Puts come at the runner's watermark, which never
    decreases, and all use the one TTL, so expiry order is put order, and
    ``sweep`` drops entries from the front. After ``sweep(now)`` every
    entry held is live at ``now``, so ``get`` is a plain lookup.

    Layout: three parallel columns in put order, ``array('q')`` ids,
    ``array('d')`` expiries and a list of term tuples, read from a live
    head. An id above every id ever appended, and below 2**63, is appended
    to them, which is every id of a stream whose ids rise with time. Every
    other id, a re-put, an out-of-order, negative or over-wide id, goes to
    a small ``OrderedDict`` in put order, and the column entry it shadows
    is marked dead (its terms set to None). The highest id appended is
    kept for the run, so an id held in the side dict never enters the
    columns. ``get`` reads the side dict, then bisects the ids from the
    head. ``sweep`` moves the head past the expired entries and deletes
    the expired prefix once it is over half the columns, so each entry is
    moved O(1) times. Equal term tuples in the columns are stored once,
    through an intern table rebuilt from the live entries at each such
    compaction, so it never holds more tuples than the columns have slots.
    """

    def __init__(self, ttl: float):
        self.ttl = ttl
        self._ids = array("q")
        self._expiries = array("d")
        self._terms: list[Optional[tuple[str, ...]]] = []  # None: shadowed by the side dict
        self._head = 0  # the first live column entry
        self._dead = 0  # shadowed entries at or past the head
        self._top = -1  # the highest id ever appended
        # id -> (expiry, terms). Not a plain dict: popping a dict's first key
        # scans past every slot earlier pops freed, so each sweep would cost
        # time in proportion to the entries held.
        self._side: OrderedDict[int, tuple[float, tuple[str, ...]]] = OrderedDict()
        self._interned: dict[tuple[str, ...], tuple[str, ...]] = {}
        self._swept_at = float("-inf")

    def put(self, post_id: int, terms: tuple[str, ...], now: float) -> None:
        """Hold ``terms`` for ``post_id`` until ``now + ttl``, replacing any entry."""
        if self._top < post_id < _ID_END:
            terms = self._interned.setdefault(terms, terms)
            self._top = post_id
            self._ids.append(post_id)
            self._expiries.append(now + self.ttl)
            self._terms.append(terms)
            return
        i = self._find(post_id)
        if i is not None:
            self._terms[i] = None
            self._dead += 1
        self._side[post_id] = (now + self.ttl, terms)
        self._side.move_to_end(post_id)

    def _find(self, post_id: int) -> Optional[int]:
        """The index of ``post_id``'s live column entry, if it has one."""
        ids = self._ids
        i = bisect_left(ids, post_id, self._head)
        if i < len(ids) and ids[i] == post_id and self._terms[i] is not None:
            return i
        return None

    def get(self, post_id: int) -> Optional[tuple[str, ...]]:
        hit = self._side.get(post_id)
        if hit is not None:
            return hit[1]
        i = self._find(post_id)
        return None if i is None else self._terms[i]

    def sweep(self, now: Optional[float] = None) -> int:
        """Drop the entries expired at ``now`` (by default the last ``now``
        swept at); returns how many were dropped."""
        if now is None:
            now = self._swept_at
        self._swept_at = now
        dropped = 0
        expiries, head = self._expiries, self._head
        if head < len(expiries) and expiries[head] <= now:
            end = bisect_right(expiries, now, head)
            dropped = end - head
            if self._dead:
                shadowed = self._terms[head:end].count(None)
                self._dead -= shadowed
                dropped -= shadowed
            self._head = end
            if 2 * end > len(expiries):
                self._compact()
        side = self._side
        while side and next(iter(side.values()))[0] <= now:
            side.popitem(last=False)
            dropped += 1
        return dropped

    def _compact(self) -> None:
        head = self._head
        del self._ids[:head], self._expiries[:head], self._terms[:head]
        self._head = 0
        self._interned = dict(zip(self._terms, self._terms))
        self._interned.pop(None, None)

    def items(self) -> Iterator[tuple[int, float, tuple[str, ...]]]:
        """``(id, expiry, terms)`` for every entry held, in expiry order."""
        head = self._head
        columns = zip(self._ids[head:], self._expiries[head:], self._terms[head:])
        live = (entry for entry in columns if entry[2] is not None)
        side = ((post_id, expiry, terms) for post_id, (expiry, terms) in self._side.items())
        return merge(live, side, key=itemgetter(1))

    def __len__(self) -> int:
        return len(self._ids) - self._head - self._dead + len(self._side)


def match_keywords(
    post, keywords: KeywordSet, recent_matches=None, lowered: Optional[str] = None
) -> set[str] | frozenset[str]:
    """Terms of ``keywords`` that ``post`` matches.

    ``lowered`` is the post's text lowercased, when the caller already has
    it. A retweet of a post that matched is itself a match (inheriting the
    original's terms) when ``recent_matches`` still holds the original.
    """
    if lowered is None:
        lowered = post.text.lower()
    return inherit_terms(keywords.match(lowered), post, recent_matches)


def inherit_terms(matched, post, recent_matches) -> set[str] | frozenset[str]:
    """``matched``, the terms ``post`` matched itself; when it matched none,
    the terms ``recent_matches`` still holds for the post it retweets."""
    if not matched and recent_matches is not None and post.is_retweet_of is not None:
        inherited = recent_matches.get(post.is_retweet_of)
        if inherited:
            return set(inherited)
    return matched
