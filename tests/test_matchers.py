"""Compiled lexicon matchers against their per-term oracles.

Each matcher takes the post text lowercased once and scans a lexicon
compiled once per change. The oracles below are the per-term scans the
matchers replaced; every compiled path must give exactly their answer,
including the float sum of sentiment, and must see a lexicon change on the
very next match.
"""

from __future__ import annotations

import json
from collections import Counter

from hypothesis import given
from hypothesis import strategies as st

from driftstream.enrich.locations import (
    CaseReport,
    Gazetteer,
    LocationCache,
    absorb_authoritative_locations,
    extract_locations,
    normalize_location,
)
from driftstream.enrich.sentiment import compile_sentiment_lexicon, score_sentiment
from driftstream.enrich.topics import assign_topic_groups, compile_group_lexicons
from driftstream.keywords import TOKEN_RE, KeywordEntry, KeywordSet, match_keywords
from driftstream.misinfo.keywords import MisinfoKeywordSet, refresh_misinfo_keywords
from driftstream.misinfo.tagging import tag_misinformation_window

from conftest import T0, make_enriched, make_post

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
        return {t for t, e in keywords.entries.items() if e.active and t in lowered}
    tokens = TOKEN_RE.findall(lowered)
    hits = set()
    for term, entry in keywords.entries.items():
        if not entry.active:
            continue
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


def cache_oracle(cache: LocationCache, text: str, now: float) -> set[str]:
    lowered = text.lower()
    return {
        loc
        for loc, last_seen in cache._entries.items()
        if last_seen <= now and now - last_seen <= cache.ttl and loc in lowered
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
    for i, term in enumerate(learned):
        keywords.add(KeywordEntry(term=term, origin="learned", active=i % 2 == 0))
    assert keywords.match(text.lower()) == keyword_oracle(keywords, text)
    assert match_keywords(make_post(text=text), keywords) == keyword_oracle(keywords, text)


@given(terms, texts)
def test_gazetteer_lookup_equals_oracle(names, text):
    gazetteer = Gazetteer(names)
    expected = gazetteer_oracle({normalize_location(n) for n in names}, text)
    assert gazetteer.lookup(text.lower()) == expected


@given(
    st.lists(st.tuples(st.sampled_from(TERMS), st.integers(0, 10)), max_size=8),
    st.integers(0, 12),
    texts,
)
def test_location_cache_match_equals_oracle(inserts, now, text):
    cache = LocationCache(ttl=3.0)
    for loc, seen in inserts:
        cache.insert(loc, float(seen))
    assert cache.match(text.lower(), float(now)) == cache_oracle(cache, text, float(now))


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
    gazetteer = Gazetteer(GAZETTEER_NAMES)
    cache = LocationCache(ttl=ttl)
    reference = WriteBackCache(ttl)
    names = {normalize_location(n) for n in GAZETTEER_NAMES}
    events = [("case", region, t) for region, t in reports_before] + events
    for kind, value, t in events:
        if kind == "case":
            absorb_authoritative_locations(CaseReport(date=float(t), region=value, new_cases=1), cache)
            reference.insert(value, float(t), "authoritative")
            continue
        held = len(cache)
        assert extract_locations(value.lower(), gazetteer, cache, float(t)) == reference.extract(
            names, value, float(t)
        )
        assert len(cache) == held


@given(st.dictionaries(st.sampled_from(TERMS + ["", "C++"]), weights, max_size=10), texts)
def test_sentiment_equals_oracle_exactly(lexicon, text):
    # ``==`` on the float: the sum must add the same terms in the same order.
    assert score_sentiment(text.lower(), compile_sentiment_lexicon(lexicon)) == sentiment_oracle(
        text, lexicon
    )


@given(
    st.dictionaries(
        st.sampled_from(["deaths_hospitalizations", "positive_tests", "symptomatic"]),
        st.lists(st.sampled_from(TERMS + [""]), max_size=4).map(tuple),
    ),
    texts,
)
def test_topics_equal_oracle(group_lexicons, text):
    compiled = compile_group_lexicons(group_lexicons)
    assert assign_topic_groups(text.lower(), compiled) == topics_oracle(text, group_lexicons)


@given(terms, st.lists(texts, max_size=12), st.lists(st.booleans(), max_size=12))
def test_window_tagging_equals_oracle(seed_terms, window_texts, authoritative):
    keyword_set = MisinfoKeywordSet(seeds=seed_terms)
    posts = [make_enriched(post_id=i, text=t, created_at=T0 + i) for i, t in enumerate(window_texts)]
    for post, flag in zip(posts, authoritative):
        post.authoritative = flag
    tagged, report = tag_misinformation_window(posts, keyword_set)

    snapshot = keyword_set.active_terms()
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
    assert Gazetteer().lookup("anything at all") == set()
    assert score_sentiment("anything at all", compile_sentiment_lexicon({})) == 0.0
    assert assign_topic_groups("anything at all", compile_group_lexicons({})) == set()


# -- a lexicon change is seen by the very next match ------------------------------


def test_promoted_keyword_matches_the_next_post():
    for mode in ("substring", "token"):
        keywords = KeywordSet(seeds=("virus",), match_mode=mode)
        post = make_post(text="Facemask mandate")
        assert match_keywords(post, keywords) == set()
        keywords.add(KeywordEntry(term="facemask", origin="learned", promoted_at=1.0))
        assert match_keywords(post, keywords) == {"facemask"}
        assert keywords.active_terms() == ["facemask", "virus"]


def test_refreshed_misinfo_term_tags_the_next_window(tmp_path):
    keyword_set = MisinfoKeywordSet()
    first = [make_enriched(post_id=1, text="drink bleach now", created_at=T0)]
    _, before = tag_misinformation_window(first, keyword_set)
    assert before.tagged == 0

    feed = tmp_path / "terms.json"
    feed.write_text(json.dumps({"terms": ["bleach"]}))
    assert refresh_misinfo_keywords([{"path": str(feed)}], keyword_set, now=T0 + 30) == ["bleach"]

    second = [make_enriched(post_id=2, text="drink bleach now", created_at=T0 + 60)]
    tagged, after = tag_misinformation_window(second, keyword_set)
    assert tagged[0].misinfo_terms == {"bleach"}
    assert after.tagged == 1


def test_new_cache_entry_matches_the_next_post():
    cache = LocationCache(ttl=7 * 86400.0)
    gazetteer = Gazetteer(["california"])
    assert extract_locations("rally in sturgis", gazetteer, cache, now=0.0) == []
    cache.insert("Sturgis", now=0.0)
    assert extract_locations("rally in sturgis", gazetteer, cache, now=1.0) == ["sturgis"]
    # a gazetteer hit does not enter the cache; the gazetteer matches it
    assert extract_locations("california cases", gazetteer, cache, now=2.0) == ["california"]
    assert cache.match("california again", now=3.0) == set()
