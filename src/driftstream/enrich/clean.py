"""Post cleaning and enrichment: one EnrichedPost per post, in one call.

Empty posts are dropped; posts that miss every topic keyword are kept but
tagged irrelevant, so downstream consumers can decide what to do with them.

Every tag comes from one ``TOKEN_RE`` scan of the post's lowered text.
The tags are read off the terms present of the union of the keyword set
(in substring mode), the gazetteer, the case regions, the sentiment and
topic lexicons and the active misinformation terms; only the keyword set
grows. A term that is itself a whole ``TOKEN_RE`` token (a token term:
``virus``, ``covid-19``) can only occur inside one token of the text, so
it is read from a memo that maps each distinct token to the token terms
it contains, and costs nothing per term once its tokens have been seen. Every other term (``new
york``, ``死``) keeps one ``in`` on the text. The same token list gives
the post's drift candidates, the tracked phrases present and, in token
mode, its keywords. A one-pass automaton (Aho and Corasick, CACM 1975)
is the classic form of the rest; at a handful of terms, C substring tests
beat one in Python.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..keywords import NO_TAGS, TOKEN_RE, KeywordSet, inherit_terms, is_candidate
from ..misinfo.keywords import MisinfoKeywordSet
from ..sources.posts import Post
from .locations import Gazetteer
from .model import EnrichedPost

if TYPE_CHECKING:
    from ..misinfo.tagging import AuthoritativeSourceList

# Distinct tokens the token memo holds at most; a token that finds it full
# empties it first.
TOKEN_MEMO_CAP = 1 << 15


class Lexicons:
    """Every lexicon a post is tagged from, the keyword set included, the
    union of their terms that ``scan`` looks for and the tracked phrases.

    ``regions`` are ``case_regions`` entries, each live from its
    ``last_seen`` until ``region_ttl`` after it. ``sentiment`` maps a term
    to its weight and ``groups`` a topic group to its terms, as
    ``DEFAULT_SENTIMENT_LEXICON`` and ``DEFAULT_GROUP_LEXICONS`` do; every
    term is lowercase. ``misinfo``'s active terms, read once here, are the
    ``misinfo_terms`` posts are tagged with. ``tracked_phrases`` are the
    configured multi-word drift candidates, lowercase.

    All of these are fixed but the keyword set, which only grows, each time
    by replacing its ``terms`` snapshot: the union is rebuilt, and the token
    memo emptied, on the first scan that finds a new snapshot.
    """

    def __init__(
        self,
        keywords: KeywordSet,
        gazetteer: Optional[Gazetteer] = None,
        regions: tuple[tuple[str, float], ...] = (),
        region_ttl: float = 0.0,
        sentiment: Optional[dict[str, float]] = None,
        groups: Optional[dict[str, tuple[str, ...]]] = None,
        misinfo: Optional[MisinfoKeywordSet] = None,
        tracked_phrases: tuple[str, ...] = (),
    ):
        self.keywords = keywords
        self.places = frozenset(gazetteer.names if gazetteer else ())
        self.regions = dict(regions)
        self.region_ttl = region_ttl
        self.sentiment_weights = tuple((sentiment or {}).items())  # lexicon order: the sum adds in it
        self.group_terms = tuple(
            (term, group) for group, terms in (groups or {}).items() for term in terms
        )
        self.misinfo_terms = frozenset(misinfo.active if misinfo else ())
        self.tracked_phrases = tuple(dict.fromkeys(tracked_phrases))
        self._fixed = (
            *self.places,
            *self.regions,
            *(term for term, _ in self.sentiment_weights),
            *(term for term, _ in self.group_terms),
            *self.misinfo_terms,
        )
        self._keyword_terms: Optional[frozenset[str]] = None  # the set the union was last built from
        self._token_terms: tuple[str, ...] = ()  # the union's token terms
        self._other_terms: tuple[str, ...] = ()  # the rest of the union
        # token -> (the token if it is a drift candidate, else "", the token
        # terms inside it): every token seen since the memo was last emptied.
        # A post's candidates are the memo's own strings, shared by every
        # post that holds them.
        self._memo: dict[str, tuple[str, tuple[str, ...]]] = {}

    def scan(self, lowered: str, tokens: list[str]) -> tuple[set[str], tuple[str, ...], tuple[str, ...]]:
        """``(present, candidates, phrases)`` of a post: the terms of the
        union that ``lowered``, its text already lowercased, contains; its
        distinct drift candidates, in order of first occurrence; and the
        tracked phrases it contains that are not among them. ``tokens`` is
        ``TOKEN_RE.findall(lowered)``. The union is rebuilt first if the
        keyword set grew."""
        if self.keywords.terms is not self._keyword_terms:
            self._build()
        memo = self._memo
        present = set()
        candidates = {}
        for token in tokens:
            entry = memo.get(token)
            if entry is None:
                entry = self._learn(token)
            candidate, terms = entry
            if candidate:
                candidates[candidate] = None
            if terms:
                present.update(terms)
        for term in self._other_terms:
            if term in lowered:
                present.add(term)
        phrases = ()
        if self.tracked_phrases:
            phrases = tuple(p for p in self.tracked_phrases if p in lowered and p not in candidates)
        return present, tuple(candidates), phrases

    def _learn(self, token: str) -> tuple[str, tuple[str, ...]]:
        """``token``'s memo entry, stored in a memo emptied first if full."""
        memo = self._memo
        if len(memo) >= TOKEN_MEMO_CAP:
            memo.clear()
        entry = memo[token] = (
            token if is_candidate(token) else "",
            tuple(term for term in self._token_terms if term in token),
        )
        return entry

    def _build(self) -> None:
        keywords = self.keywords
        self._keyword_terms = keywords.terms
        scanned = keywords.terms if keywords.match_mode == "substring" else ()
        union = dict.fromkeys((*scanned, *self._fixed))
        self._token_terms = tuple(term for term in union if TOKEN_RE.fullmatch(term))
        self._other_terms = tuple(term for term in union if not TOKEN_RE.fullmatch(term))
        self._memo.clear()

    def locations(self, present: set[str], now: float) -> list[str] | tuple[()]:
        """The gazetteer names present plus the regions present and live at
        ``now``, sorted; a region dated ahead of ``now`` is not live yet."""
        hits = present & self.places
        for region in present.intersection(self.regions):
            last_seen = self.regions[region]
            if last_seen <= now and now - last_seen <= self.region_ttl:
                hits.add(region)
        return sorted(hits) if hits else ()

    def sentiment(self, present: set[str], lowered: str) -> float:
        """The occurrences of each sentiment term present times its weight,
        summed in lexicon order and clamped to [-1, 1]."""
        total = 0.0
        for term, weight in self.sentiment_weights:
            if term in present:
                total += lowered.count(term) * weight
        return max(-1.0, min(1.0, total))

    def topic_groups(self, present: set[str]) -> set[str] | frozenset[str]:
        """The groups with a term present; ``NO_TAGS`` when none has one."""
        return {group for term, group in self.group_terms if term in present} or NO_TAGS


def is_blank(post: Post) -> bool:
    """Whether the post has no text beyond whitespace; such posts are dropped."""
    return not post.text or post.text.isspace()


def clean_post(
    raw: Post,
    keywords: KeywordSet,
    recent_matches=None,
    *,
    lexicons: Optional[Lexicons] = None,
    authoritative: Optional[AuthoritativeSourceList] = None,
) -> Optional[EnrichedPost]:
    """The post's EnrichedPost, every field set by its constructor, or None
    for a discard.

    The text is lowercased once; its one token scan (``lexicons.scan``)
    gives every tag, the drift candidates and the tracked phrases;
    token-mode keywords are matched from the same token list. ``lexicons`` holds ``keywords``; without it,
    only keywords and candidates are looked for. Locations are read at the
    post's event time. A retweet that matches no keyword inherits the
    terms ``recent_matches`` holds for its original. A post with no
    location holds ``()``, and an empty term set is ``NO_TAGS``: shared
    immutables, not containers of its own.
    """
    if is_blank(raw):
        return None
    lowered = raw.text.lower()
    if lexicons is None:
        lexicons = Lexicons(keywords)
    tokens = TOKEN_RE.findall(lowered)
    present, candidates, phrases = lexicons.scan(lowered, tokens)
    if keywords.match_mode == "substring":
        matched = present & keywords.terms or NO_TAGS
    else:
        matched = keywords.match(lowered, tokens)
    matched = inherit_terms(matched, raw, recent_matches)
    is_authoritative = authoritative is not None and authoritative.matches(raw.channel)
    if not present:  # every lexicon tag is empty: 60% of firehose posts, 35% of multiday's
        return EnrichedPost(
            raw, (), 0.0, NO_TAGS, matched, NO_TAGS, is_authoritative, candidates, phrases
        )
    return EnrichedPost(  # positional, in field order
        raw,
        lexicons.locations(present, raw.created_at),
        lexicons.sentiment(present, lowered),
        lexicons.topic_groups(present),
        matched,
        present & lexicons.misinfo_terms or NO_TAGS,
        is_authoritative,
        candidates,
        phrases,
    )
