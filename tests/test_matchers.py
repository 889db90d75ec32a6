"""Lexicon matchers against their per-term oracles.

Each matcher takes the post text lowercased once. ``clean_post`` reads
every substring tag off one scan of the union of the lexicons, rebuilt
once per change; the oracles below are per-term scans, and
``lexicon_oracle`` holds the per-lexicon functions the one scan replaced.
Every path must give exactly their answer, including the float sum of
sentiment, and must see a lexicon change on the very next match.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from driftstream.enrich.clean import Lexicons, clean_post, is_blank
from driftstream.enrich.locations import (
    CaseReport,
    Gazetteer,
    case_regions,
    normalize_location,
)
from driftstream.enrich.model import EnrichedPost
from driftstream.enrich.sentiment import DEFAULT_SENTIMENT_LEXICON
from driftstream.enrich.topics import DEFAULT_GROUP_LEXICONS
from driftstream.keywords import TOKEN_RE, KeywordSet, RecentMatches, match_keywords
from driftstream.misinfo.keywords import MisinfoKeywordSet, refresh_misinfo_keywords
from driftstream.misinfo.tagging import AuthoritativeSourceList, tag_misinformation_window
from driftstream.timeutil import DAY

import lexicon_oracle as oracle
from conftest import (
    T0,
    make_enriched,
    make_post,
    scanned_locations,
    scanned_sentiment,
    scanned_topics,
)

# Overlapping and prefix terms, regex metacharacters, non-ASCII and
# multi-word terms; texts are built from the same pieces so terms hit often.
TERMS = [
    "co", "cov", "covid", "covid-19", "c++", "u.s.", "u.s", "us", "死", "死亡",
    "a|b", "(x)", "[a-z]", "\\d", "^", "$", "*", ".", "virus", "vir", "rus",
    "bill gates", "gates", "stay home", "ß", "ǅ",
]
PIECES = TERMS + ["COVID", "Virus", "U.S.", "C++", "İ", "ẞ", " ", "  ", "-", "\n"]

terms = st.lists(st.sampled_from(TERMS), max_size=8, unique=True)
texts = st.lists(
    st.one_of(st.sampled_from(PIECES), st.text(alphabet="abcosuvirdCOV-. 死", max_size=4)),
    max_size=12,
).map("".join)
weights = st.sampled_from([-0.8, -0.6, -0.5, -0.4, 0.3, 0.4, 0.5, 0.6, 0.8, 0.1, -0.7])


# -- per-term oracles ------------------------------------------------------------


def keyword_oracle(keywords: KeywordSet, text: str) -> set[str]:
    lowered = text.lower()
    if keywords.match_mode == "substring":
        return {t for t in keywords.active_terms() if t in lowered}
    tokens = TOKEN_RE.findall(lowered)
    hits = set()
    for term in keywords.active_terms():
        parts = term.split()
        n = len(parts)
        if n == 1:
            if parts[0] in set(tokens):
                hits.add(term)
        elif any(tokens[i : i + n] == parts for i in range(len(tokens) - n + 1)):
            hits.add(term)
    return hits


def gazetteer_oracle(names: set[str], text: str) -> set[str]:
    lowered = text.lower()
    return {name for name in names if name in lowered}


def cache_oracle(reports: list[tuple[str, float]], ttl: float, text: str, now: float) -> set[str]:
    """The case-report regions live at ``now``, from the reports themselves:
    a region is live while its latest report is at most ``ttl`` old and not
    dated ahead of ``now``."""
    lowered = text.lower()
    latest: dict[str, float] = {}
    for region, date in reports:
        region = normalize_location(region)
        if region:
            latest[region] = max(latest.get(region, date), date)
    return {
        loc
        for loc, last_seen in latest.items()
        if last_seen <= now and now - last_seen <= ttl and loc in lowered
    }


def sentiment_oracle(text: str, lexicon: dict[str, float]) -> float:
    lowered = text.lower()
    total = 0.0
    for term, weight in lexicon.items():
        occurrences = lowered.count(term)
        if occurrences:
            total += occurrences * weight
    return max(-1.0, min(1.0, total))


def topics_oracle(text: str, group_lexicons: dict[str, tuple[str, ...]]) -> set[str]:
    lowered = text.lower()
    return {
        group
        for group, group_terms in group_lexicons.items()
        if any(term in lowered for term in group_terms)
    }


# -- compiled paths equal their oracles -------------------------------------------


@given(terms, st.lists(st.sampled_from(TERMS), max_size=4), texts,
       st.sampled_from(["substring", "token"]))
def test_keyword_match_equals_oracle(seeds, learned, text, mode):
    keywords = KeywordSet(seeds=seeds, match_mode=mode)
    for term in learned:
        keywords.add(term)
    assert keywords.match(text.lower()) == keyword_oracle(keywords, text)
    post = make_post(text=text)
    assert match_keywords(post, keywords) == keyword_oracle(keywords, text)
    if not is_blank(post):
        assert clean_post(post, keywords).matched_terms == keyword_oracle(keywords, text)


@given(terms, texts)
def test_gazetteer_lookup_equals_oracle(names, text):
    gazetteer = Gazetteer(names)
    expected = gazetteer_oracle({normalize_location(n) for n in names}, text)
    assert set(scanned_locations(text.lower(), gazetteer, (), 0.0, 0.0)) == expected


report_times = st.one_of(st.integers(0, 10).map(float), st.floats(0.0, 10.0))


@given(
    st.lists(st.tuples(st.sampled_from(TERMS + ["  "]), report_times), max_size=8),
    st.one_of(st.integers(0, 12).map(float), st.floats(0.0, 12.0)),
    st.sampled_from([0.0, 0.2, 3.0, 0.1 + 0.2]),
    texts,
)
def test_location_cache_match_equals_oracle(reports, now, ttl, text):
    regions = case_regions(
        CaseReport(date=date, region=region, new_cases=1) for region, date in reports
    )
    assert len(regions) == len({region for region, _ in regions})
    # every live region is found exactly at ``now - ttl`` too, the boundary included
    for t in (now, *(date + ttl for _, date in reports)):
        assert set(scanned_locations(text.lower(), Gazetteer(), regions, ttl, t)) == cache_oracle(
            reports, ttl, text, t
        )


def test_location_interval_boundary_at_exactly_ttl():
    """Live while ``now - last_seen <= ttl``, that float test exactly: a
    region is live at ``last_seen + ttl`` when the difference rounds back to
    ``ttl``, and not when it rounds above it."""
    regions = case_regions([CaseReport(date=5.0, region="sturgis", new_cases=1)])
    at = lambda now, ttl: scanned_locations("sturgis", Gazetteer(), regions, ttl, now)  # noqa: E731
    assert at(5.0, 0.0) == ["sturgis"]  # a zero TTL is live on the report's own instant
    assert at(8.0, 3.0) == ["sturgis"]
    assert at(math.nextafter(8.0, 9.0), 3.0) == []
    assert at(math.nextafter(5.0, 0.0), 3.0) == []  # dated ahead of now

    regions = case_regions([CaseReport(date=0.1, region="sturgis", new_cases=1)])
    now = 0.1 + 0.2  # 0.30000000000000004
    assert now - 0.1 > 0.2 and now <= 0.1 + 0.2
    assert scanned_locations("sturgis", Gazetteer(), regions, 0.2, now) == []


class WriteBackCache:
    """The earlier cache design, kept as the reference: extraction wrote
    every gazetteer hit back, an authoritative origin stayed once set, and
    one TTL and future-dating rule held for both origins."""

    def __init__(self, ttl: float):
        self.ttl = ttl
        self.entries: dict[str, tuple[float, str]] = {}

    def insert(self, location: str, now: float, origin: str) -> None:
        location = normalize_location(location)
        if not location:
            return
        previous = self.entries.get(location)
        if previous is not None and previous[1] == "authoritative":
            origin = "authoritative"
        self.entries[location] = (max(now, previous[0]) if previous else now, origin)

    def extract(self, gazetteer_names: set[str], text: str, now: float) -> list[str]:
        lowered = text.lower()
        hits = {name for name in gazetteer_names if name in lowered}
        for hit in hits:
            self.insert(hit, now, "extracted")
        hits |= {
            loc
            for loc, (last_seen, _) in self.entries.items()
            if loc in lowered and last_seen <= now and now - last_seen <= self.ttl
        }
        return sorted(hits)


GAZETTEER_NAMES = ["California", "new york", "Hubei"]
# spellings of regions inside and outside the gazetteer
REGIONS = ["Sturgis", " sturgis ", "STURGIS", "New  York", "new york", "hubei", "Madrid",
           "madrid\t", "Lombardy", "  "]
PLACE_PIECES = ["sturgis", "new york", "new  york", "california", "madrid", "lombardy",
                "hubei", "rally in ", " ", ", "]
# each event is a case report (region, date) or a post (text, time); times
# go back and forth, and reports may be dated ahead of the posts around them
stream_events = st.lists(
    st.one_of(
        st.tuples(st.just("case"), st.sampled_from(REGIONS), st.integers(0, 30)),
        st.tuples(
            st.just("post"),
            st.lists(st.sampled_from(PLACE_PIECES), max_size=5).map("".join),
            st.integers(0, 30),
        ),
    ),
    max_size=40,
)


@given(
    st.lists(st.tuples(st.sampled_from(REGIONS), st.integers(0, 30)), max_size=6),
    stream_events,
    st.sampled_from([0.0, 3.0, 10.0]),
)
def test_extraction_equals_the_write_back_design(reports_before, events, ttl):
    """The whole case feed is read before the stream, so the reference
    takes every report first; posts then come in stream order."""
    gazetteer = Gazetteer(GAZETTEER_NAMES)
    reports = [(region, t) for region, t in reports_before]
    reports += [(value, t) for kind, value, t in events if kind == "case"]
    regions = case_regions(
        CaseReport(date=float(t), region=region, new_cases=1) for region, t in reports
    )
    reference = WriteBackCache(ttl)
    for region, t in reports:
        reference.insert(region, float(t), "authoritative")
    names = {normalize_location(n) for n in GAZETTEER_NAMES}
    for kind, value, t in events:
        if kind == "post":
            assert scanned_locations(value.lower(), gazetteer, regions, ttl, float(t)) == (
                reference.extract(names, value, float(t))
            )


@given(st.dictionaries(st.sampled_from(TERMS + ["", "C++"]), weights, max_size=10), texts)
def test_sentiment_equals_oracle_exactly(lexicon, text):
    # ``==`` on the float: the sum must add the same terms in the same order.
    assert scanned_sentiment(text.lower(), lexicon) == sentiment_oracle(text, lexicon)


@given(
    st.dictionaries(
        st.sampled_from(["deaths_hospitalizations", "positive_tests", "symptomatic"]),
        st.lists(st.sampled_from(TERMS + [""]), max_size=4).map(tuple),
    ),
    texts,
)
def test_topics_equal_oracle(group_lexicons, text):
    assert scanned_topics(text.lower(), group_lexicons) == topics_oracle(text, group_lexicons)


@given(terms, st.lists(texts, max_size=12), st.lists(st.booleans(), max_size=12))
def test_window_tagging_equals_oracle(seed_terms, window_texts, authoritative):
    keyword_set = MisinfoKeywordSet(seeds=seed_terms)
    posts = [make_enriched(post_id=i, text=t, created_at=T0 + i) for i, t in enumerate(window_texts)]
    for post, flag in zip(posts, authoritative):
        post.authoritative = flag
    tagged, report = tag_misinformation_window(posts, keyword_set)

    snapshot = list(keyword_set.active)
    expected_counts: Counter = Counter()
    expected_tagged = 0
    for post in posts:
        hits = {t for t in snapshot if t in post.post.text.lower()}
        assert post.misinfo_terms == hits
        if hits and not post.authoritative:
            expected_tagged += 1
            expected_counts.update(hits)
    assert tagged == posts
    assert (report.posts_in, report.tagged) == (len(posts), expected_tagged)
    assert report.term_counts == expected_counts


def test_empty_lexicons_match_nothing():
    assert KeywordSet(seeds=()).match("anything at all") == set()
    assert scanned_locations("anything at all", Gazetteer(), (), 0.0, 0.0) == []
    assert scanned_sentiment("anything at all", {}) == 0.0
    assert scanned_topics("anything at all", {}) == set()


# -- a lexicon change is seen by the very next match ------------------------------


def test_promoted_keyword_matches_the_next_post():
    for mode in ("substring", "token"):
        keywords = KeywordSet(seeds=("virus",), match_mode=mode)
        post = make_post(text="Facemask mandate")
        assert match_keywords(post, keywords) == clean_post(post, keywords).matched_terms == set()
        keywords.add("facemask")
        assert match_keywords(post, keywords) == clean_post(post, keywords).matched_terms == {"facemask"}
        assert keywords.active_terms() == ["facemask", "virus"]


def test_refreshed_misinfo_term_tags_the_next_window(tmp_path):
    keyword_set = MisinfoKeywordSet()
    first = [make_enriched(post_id=1, text="drink bleach now", created_at=T0)]
    _, before = tag_misinformation_window(first, keyword_set)
    assert before.tagged == 0

    feed = tmp_path / "terms.json"
    feed.write_text(json.dumps({"terms": ["bleach"]}))
    assert refresh_misinfo_keywords([{"path": str(feed)}], keyword_set) == ["bleach"]

    second = [make_enriched(post_id=2, text="drink bleach now", created_at=T0 + 60)]
    tagged, after = tag_misinformation_window(second, keyword_set)
    assert tagged[0].misinfo_terms == {"bleach"}
    assert after.tagged == 1


def test_new_cache_entry_matches_the_next_post():
    """A reported region matches every post from its report's date on."""
    ttl = 7 * 86400.0
    gazetteer = Gazetteer(["california"])
    regions = case_regions([CaseReport(date=1.0, region="Sturgis", new_cases=1)])
    assert scanned_locations("rally in sturgis", gazetteer, regions, ttl, now=0.0) == []
    assert scanned_locations("rally in sturgis", gazetteer, regions, ttl, now=1.0) == ["sturgis"]
    # a gazetteer hit is the gazetteer's alone; the regions stay as built
    assert scanned_locations("california cases", gazetteer, regions, ttl, now=2.0) == ["california"]
    assert regions == (("sturgis", 1.0),)


# -- the one scan against the per-lexicon functions it replaced -------------------

# Overlapping terms (coronavirus/corona/virus, facemask/mask, "died" in both
# default lexicons), multi-word terms, a prefix term, a keyword that is also a
# gazetteer name ("wuhan"), a term in three lexicons ("virus"), and regions
# beside the gazetteer's. Token terms sit beside terms that are no whole
# ``TOKEN_RE`` token: punctuation ("u.s.", "#ncov"), non-ASCII letters
# ("pandémie", "zürich", whose ASCII part "rich" is a token term of its
# own), digits and "_" inside a token ("covid_19", "5g").
KEYWORD_POOL = ["corona", "coronavirus", "virus", "mask", "facemask", "covid-19", "wuhan", "stay home",
                "u.s.", "#ncov", "pandémie", "covid_19", "rich"]
PLACE_POOL = ["new york", "california", "wuhan", "hubei", "zürich"]
REGION_POOL = ["sturgis", "madrid", "new york", "lombardy"]
MISINFO_POOL = ["plandemic", "bioweapon", "5g towers", "microchip", "virus", "5g"]
# a multi-word phrase, one inside a token term, single words that are
# (or, as a stopword, are not) drift candidates
TRACKED_POOL = ["stay home", "5g towers", "lockdown", "virus", "the", "rich"]
UNION_TERMS = sorted({
    *KEYWORD_POOL, *PLACE_POOL, *REGION_POOL, *MISINFO_POOL, *DEFAULT_SENTIMENT_LEXICON,
    *(term for terms in DEFAULT_GROUP_LEXICONS.values() for term in terms),
})
assert {"died", "hospitaliz", "死", "tested positive", "loss of taste"} <= set(UNION_TERMS)
# each term, its two halves and two casings, runs of whitespace and word
# ends, hyphens alone, doubled or at a word's ends, digits, "_", and ASCII
# letters run into non-ASCII ones
SCAN_PIECES = sorted({
    piece
    for term in UNION_TERMS + TRACKED_POOL
    for piece in (term, term[: len(term) // 2], term[len(term) // 2 :], term.upper(), term.title())
    if piece
}) + [" ", "  ", "\t", "\n ", "-", "--", "-virus", "virus-", "_", "19", "0", ", ", "ed", "s", "news",
      "ZÜRICH", "Pandémie", "é", "ü", "lockdowns", "the"]
scan_texts = st.lists(st.sampled_from(SCAN_PIECES), max_size=10).map("".join)
# report dates against the posts' time: expired under a 7-day TTL, live, on
# the post's own instant, dated ahead
report_offsets = st.sampled_from([-10 * DAY, -7 * DAY, -DAY, 0.0, DAY])


@settings(max_examples=300, deadline=None)
@given(
    seeds=st.lists(st.sampled_from(KEYWORD_POOL), max_size=4, unique=True),
    promoted=st.lists(st.sampled_from(KEYWORD_POOL), max_size=2),
    mode=st.sampled_from(["substring", "token"]),
    places=st.lists(st.sampled_from(PLACE_POOL), max_size=3),
    reports=st.lists(st.tuples(st.sampled_from(REGION_POOL), report_offsets), max_size=4),
    misinfo_seeds=st.lists(st.sampled_from(MISINFO_POOL), max_size=2),
    refreshed=st.lists(st.sampled_from(MISINFO_POOL), max_size=2),
    tombstones=st.lists(st.sampled_from(MISINFO_POOL), max_size=2),
    tracked=st.lists(st.sampled_from(TRACKED_POOL), max_size=3),
    texts=st.lists(scan_texts, min_size=1, max_size=4),
    retweet=st.booleans(),
)
def test_one_scan_equals_the_per_lexicon_functions(
    seeds, promoted, mode, places, reports, misinfo_seeds, refreshed, tombstones, tracked, texts, retweet
):
    """Every ``EnrichedPost`` field, sentiment by ``==`` and the drift
    candidates and tracked phrases in order, equals the one built from one
    scan per lexicon and ``tokenize``, while both term sets grow between
    posts as a promotion and a refresh grow them."""
    keywords = KeywordSet(seeds=seeds, match_mode=mode)
    misinfo = MisinfoKeywordSet(seeds=misinfo_seeds, tombstones=tombstones)
    gazetteer = Gazetteer(places)
    regions = case_regions(
        CaseReport(date=T0 + offset, region=region, new_cases=1) for region, offset in reports
    )
    authoritative = AuthoritativeSourceList(["who.int"])
    lexicons = Lexicons(
        keywords, gazetteer, regions, 7 * DAY, DEFAULT_SENTIMENT_LEXICON, DEFAULT_GROUP_LEXICONS, misinfo,
        tuple(tracked),
    )
    recent = RecentMatches(ttl=DAY)
    recent.put(99, ("corona",), T0)
    for i, text in enumerate(texts):
        post = make_post(i, text, T0, channel=("who.int", "twitter")[i % 2],
                         is_retweet_of=99 if retweet else None)
        one = clean_post(post, keywords, recent, lexicons=lexicons, authoritative=authoritative)
        each = oracle.clean_post(
            post, keywords, recent, gazetteer=gazetteer, regions=regions, region_ttl=7 * DAY,
            sentiment=DEFAULT_SENTIMENT_LEXICON, groups=DEFAULT_GROUP_LEXICONS,
            authoritative=authoritative, misinfo=misinfo, tracked_phrases=tuple(tracked),
        )
        if each is None:
            assert one is None
        else:
            for field in fields(EnrichedPost):
                got, want = getattr(one, field.name), getattr(each, field.name)
                assert (type(got), got) == (type(want), want), field.name
        if promoted:
            keywords.add(promoted.pop())
        if refreshed:
            misinfo.add(refreshed.pop())


# -- the token memo -----------------------------------------------------------------


def _default_lexicons(keywords, misinfo, tracked=()):
    return Lexicons(
        keywords, Gazetteer(PLACE_POOL), (), 0.0, DEFAULT_SENTIMENT_LEXICON, DEFAULT_GROUP_LEXICONS,
        misinfo, tracked,
    )


def _union(lexicons):
    keywords = lexicons.keywords
    scanned = keywords.terms if keywords.match_mode == "substring" else ()
    return {*scanned, *lexicons._fixed, *lexicons.misinfo.active}


def _assert_scan_is_the_oracle(lexicons, text):
    """``scan`` gives one ``in`` per union term, and ``drift_candidates``."""
    lowered = text.lower()
    present, candidates, phrases = lexicons.scan(lowered, TOKEN_RE.findall(lowered))
    assert present == {term for term in _union(lexicons) if term in lowered}
    assert (candidates, phrases) == oracle.drift_candidates(text, lexicons.tracked_phrases)


@settings(max_examples=200, deadline=None)
@given(
    texts=st.lists(scan_texts, min_size=1, max_size=5),
    added=st.lists(st.tuples(st.booleans(), st.sampled_from(KEYWORD_POOL + MISINFO_POOL)), min_size=1, max_size=4),
    tracked=st.lists(st.sampled_from(TRACKED_POOL), max_size=3),
)
def test_memo_sees_a_term_added_between_posts(texts, added, tracked):
    """A promotion or a refresh between posts is seen by the next scan,
    for tokens the memo learned before it as well as new ones: every text
    is scanned before and after each add, and each scan is the oracle's."""
    keywords = KeywordSet(seeds=("corona",))
    misinfo = MisinfoKeywordSet(seeds=())
    lexicons = _default_lexicons(keywords, misinfo, tuple(tracked))
    for text in texts:
        _assert_scan_is_the_oracle(lexicons, text)
    for promote, term in added:
        (keywords if promote else misinfo).add(term)
        for text in texts:
            _assert_scan_is_the_oracle(lexicons, text)


def test_build_empties_the_memo():
    keywords = KeywordSet(seeds=("mask",))
    lexicons = _default_lexicons(keywords, MisinfoKeywordSet(seeds=()))
    _assert_scan_is_the_oracle(lexicons, "facemask shortage")
    assert set(lexicons._memo) == {"facemask", "shortage"}
    assert lexicons._memo["facemask"] == ("facemask", ("mask",))
    keywords.add("face")
    _assert_scan_is_the_oracle(lexicons, "")
    assert lexicons._memo == {}
    _assert_scan_is_the_oracle(lexicons, "facemask")
    candidate, terms = lexicons._memo["facemask"]
    assert candidate == "facemask" and sorted(terms) == ["face", "mask"]


@settings(max_examples=100, deadline=None)
@given(
    texts=st.lists(scan_texts, min_size=1, max_size=12),
    cap=st.integers(1, 4),
    tracked=st.lists(st.sampled_from(TRACKED_POOL), max_size=2),
)
def test_memo_stays_within_its_cap(texts, cap, tracked):
    """With a cap below the distinct tokens of the stream, and of a single
    post, the memo never holds more than the cap and every scan is the
    oracle's."""
    from unittest import mock

    import driftstream.enrich.clean as clean

    lexicons = _default_lexicons(KeywordSet(seeds=("corona", "covid-19")), MisinfoKeywordSet(), tuple(tracked))
    with mock.patch.object(clean, "TOKEN_MEMO_CAP", cap):
        for text in texts:
            _assert_scan_is_the_oracle(lexicons, text)
            assert len(lexicons._memo) <= cap


def test_memo_holds_no_more_than_the_cap_over_many_tokens(monkeypatch):
    import driftstream.enrich.clean as clean

    monkeypatch.setattr(clean, "TOKEN_MEMO_CAP", 8)
    lexicons = _default_lexicons(KeywordSet(seeds=("corona",)), MisinfoKeywordSet())
    sizes = []
    for i in range(40):
        _assert_scan_is_the_oracle(lexicons, f"corona{i} word{i} coronavirus")
        sizes.append(len(lexicons._memo))
    assert max(sizes) == 8 and min(sizes) < 8  # filled to the cap and emptied, more than once
    assert sizes.count(8) > 1
