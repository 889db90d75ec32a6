from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from driftstream.keywords import KeywordSet, RecentMatches, match_keywords, tokenize

from conftest import make_post


def test_sample_text_matches_seed():
    keywords = KeywordSet(seeds=("coronavirus", "covid-19"))
    post = make_post(text="Coronavirus will spread in California, health officials say")
    assert match_keywords(post, keywords) == {"coronavirus"}


def test_no_match_on_plain_text():
    keywords = KeywordSet()
    assert match_keywords(make_post(text="hello world"), keywords) == set()


def test_matching_is_case_insensitive():
    keywords = KeywordSet(seeds=("wuhan",))
    assert match_keywords(make_post(text="WUHAN lockdown"), keywords) == {"wuhan"}


def test_substring_mode_matches_inside_words():
    keywords = KeywordSet(seeds=("corona",))
    assert match_keywords(make_post(text="coronavirus spreading"), keywords) == {"corona"}


def test_token_mode_requires_word_boundary():
    keywords = KeywordSet(seeds=("corona",), match_mode="token")
    assert match_keywords(make_post(text="coronavirus spreading"), keywords) == set()
    assert match_keywords(make_post(text="corona spreading"), keywords) == {"corona"}


def test_token_mode_matches_multiword_phrase():
    keywords = KeywordSet(seeds=("bill gates",), match_mode="token")
    assert match_keywords(make_post(text="they say Bill Gates did it"), keywords) == {"bill gates"}
    assert match_keywords(make_post(text="gates bill reversed"), keywords) == set()


# Token-mode pieces: inner, doubled, leading and trailing hyphens, dots,
# ``_``, digits, uppercase and non-ASCII letters, and separators that are
# whitespace to ``str.split`` (an ideographic space, a tab) but not tokens.
TOKEN_WORDS = ["a", "b", "ab", "a-b", "a--b", "-a", "b-", "u.s.", "u", "s", "a_b", "_", "5g", "Ab", "é", "aé", "b2"]
TOKEN_SEPARATORS = [" ", "  ", "\u3000", "\t", "-", "--", ".", ",", "é", ""]


def _contiguous_token_terms(terms, text: str) -> set[str]:
    """Brute force: a term matches when some run of consecutive tokens of
    the lowered text, space-joined, equals its words space-joined."""
    from driftstream.keywords import TOKEN_RE

    tokens = TOKEN_RE.findall(text.lower())
    runs = {" ".join(tokens[i:j]) for i in range(len(tokens)) for j in range(i + 1, len(tokens) + 1)}
    return {term for term in terms if " ".join(term.split()) in runs}


@given(
    st.lists(
        st.tuples(st.lists(st.sampled_from(TOKEN_WORDS), min_size=1, max_size=3),
                  st.sampled_from([" ", "  ", "\u3000", "\t"])).map(lambda words_gap: words_gap[1].join(words_gap[0])),
        min_size=1, max_size=6,
    ),
    st.lists(st.sampled_from(TOKEN_WORDS + TOKEN_SEPARATORS), max_size=16).map("".join),
)
@example(["u.s.", "a b", "a-b", "a\u3000b"], "The U.S. said a--b, a b-c a\u3000b")
def test_token_mode_equals_contiguous_tokens(terms, text):
    keywords = KeywordSet(seeds=terms, match_mode="token")
    assert keywords.match(text.lower()) == _contiguous_token_terms(keywords.terms, text)


def test_seeds_are_normalized_once():
    keywords = KeywordSet(seeds=(" Mask", "mask"))
    assert len(keywords.active_terms()) == 1
    assert keywords.seeds == {"mask"}
    assert keywords.add(" MASK ") is False
    assert keywords.active_terms() == ["mask"]


@pytest.mark.parametrize("blank", ["", "   ", "\t\n"])
def test_blank_term_raises(blank):
    with pytest.raises(ValueError, match="non-empty"):
        KeywordSet(seeds=("virus", blank))
    with pytest.raises(ValueError, match="non-empty"):
        KeywordSet(seeds=("virus",)).add(blank)


def test_monotonicity_enlarging_set_never_shrinks_matches():
    small = KeywordSet(seeds=("virus",))
    big = KeywordSet(seeds=("virus",))
    big.add("mask")
    for text in ("the virus", "mask on", "virus and mask", "nothing"):
        post = make_post(text=text)
        assert match_keywords(post, small) <= match_keywords(post, big)


def test_get_on_empty_store_is_absent():
    store = RecentMatches(ttl=10.0)
    assert store.get(1) is None
    assert len(store) == 0
    assert store.sweep(5.0) == 0


def test_put_then_get():
    store = RecentMatches(ttl=10.0)
    store.put(1, ("flu",), now=0.0)
    assert store.get(1) == ("flu",)
    assert store.get(2) is None
    assert len(store) == 1


def test_expired_entry_is_absent():
    store = RecentMatches(ttl=1.0)
    store.put(1, ("flu",), now=0.0)
    assert store.sweep(2.0) == 1
    assert store.get(1) is None
    assert len(store) == 0


def test_retweet_of_matching_post_matches():
    recent = RecentMatches(ttl=86400.0)
    keywords = KeywordSet(seeds=("pandemic",))
    original = make_post(post_id=7, text="pandemic worsening")
    assert match_keywords(original, keywords) == {"pandemic"}
    recent.put(7, tuple(sorted({"pandemic"})), now=1000.0)

    retweet = make_post(post_id=8, text="so it begins", is_retweet_of=7)
    assert match_keywords(retweet, keywords, recent) == {"pandemic"}


def test_retweet_inheritance_expires_with_ttl():
    recent = RecentMatches(ttl=86400.0)
    recent.put(7, ("pandemic",), now=0.0)
    retweet = make_post(post_id=8, text="so it begins", is_retweet_of=7)
    keywords = KeywordSet(seeds=("pandemic",))
    assert recent.sweep(90000.0) == 1
    assert match_keywords(retweet, keywords, recent) == set()
    assert len(recent) == 0


def test_retweet_alive_just_before_expiry():
    recent = RecentMatches(ttl=10.0)
    recent.put(7, ("pandemic",), now=0.0)
    retweet = make_post(post_id=8, text="so it begins", is_retweet_of=7)
    keywords = KeywordSet(seeds=("pandemic",))
    assert recent.sweep(9.999) == 0
    assert match_keywords(retweet, keywords, recent) == {"pandemic"}
    assert recent.sweep(10.0) == 1  # expired at exactly put time + ttl
    assert match_keywords(retweet, keywords, recent) == set()


def test_retweet_of_unknown_post_does_not_match():
    recent = RecentMatches(ttl=86400.0)
    keywords = KeywordSet(seeds=("pandemic",))
    retweet = make_post(post_id=8, text="so it begins", is_retweet_of=99)
    assert match_keywords(retweet, keywords, recent) == set()


def test_reput_replaces_terms_refreshes_expiry_and_moves_to_back():
    recent = RecentMatches(ttl=10.0)
    recent.put(7, ("pandemic",), now=0.0)
    recent.put(8, ("virus",), now=1.0)
    recent.put(7, ("mask",), now=2.0)
    assert list(recent.items()) == [(8, 11.0, ("virus",)), (7, 12.0, ("mask",))]
    assert recent.sweep(11.0) == 1  # 8 expires; 7 was refreshed to 12
    assert recent.get(7) == ("mask",) and recent.get(8) is None
    assert recent.sweep(12.0) == 1
    assert len(recent) == 0


def test_sweep_without_argument_uses_last_now():
    recent = RecentMatches(ttl=10.0)
    assert recent.sweep() == 0
    recent.put(7, ("pandemic",), now=0.0)
    recent.sweep(5.0)
    assert recent.sweep() == 0 and recent.get(7) == ("pandemic",)
    recent.put(8, ("virus",), now=5.0)
    recent.sweep(12.0)
    assert recent.sweep() == 0 and len(recent) == 1


class _OldStoreSemantics:
    """The retweet store as it was: ``(value, now + ttl)`` per key, absent
    once ``now >= expiry``, never dropped early."""

    def __init__(self, ttl):
        self.ttl = ttl
        self.entries = {}

    def put(self, key, value, now):
        self.entries[key] = (value, now + self.ttl)

    def get(self, key, now):
        hit = self.entries.get(key)
        return None if hit is None or now >= hit[1] else hit[0]


# Ids that take the side dict whenever they are put: negative, past int64,
# or below an id already appended once a rising id passes them.
_IDS = (-(2**63) - 1, -3, 0, 1, 3, 5, 2**63 - 1, 2**63, 2**64 + 5)

_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("advance"), st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5, 7.0])),
        st.tuples(st.just("put"), st.sampled_from(_IDS)),
        st.tuples(st.just("rise"), st.integers(1, 3)),
        st.tuples(st.just("sweep"), st.booleans()),
    ),
    max_size=60,
)


@given(
    ttl=st.sampled_from([0.5, 1.0, 3.0, 0.1 + 0.2]),
    start=st.sampled_from([0.0, 1e9 + 0.3]),
    steps=_STEPS,
)
# two column ids and a side id; the columns empty by expiry (and compact),
# then the side id, a column id and a rising id are put again
@example(ttl=1.0, start=0.0, steps=[
    ("rise", 1), ("rise", 2), ("put", 1), ("put", 1), ("advance", 2.5),
    ("put", 1), ("put", 3), ("rise", 1), ("advance", 0.5), ("put", 3), ("sweep", False),
])
# the columns emptied by expiry (and compacted) while the side holds id 3,
# which is then put again: it stays in the side dict
@example(ttl=3.0, start=0.0, steps=[("put", 5), ("advance", 1.0), ("put", 3), ("advance", 2.5), ("put", 3)])
# an expired entry left behind the head (no compaction yet), then read and re-put
@example(ttl=1.0, start=0.0, steps=[
    ("rise", 1), ("advance", 0.5), ("rise", 1), ("rise", 1), ("advance", 0.5), ("put", 1),
])
# a compaction that keeps a dead entry (id 3, re-put), which a later sweep drops
@example(ttl=1.0, start=0.0, steps=[
    ("rise", 1), ("rise", 1), ("advance", 0.5), ("rise", 1), ("put", 3),
    ("advance", 0.5), ("advance", 0.5), ("put", 3), ("sweep", False),
])
# a re-put column id, an out-of-order id and ids past int64 and below zero,
# swept in part: a dead entry swept past, then a compaction
@example(ttl=3.0, start=0.0, steps=[
    ("put", 5), ("put", 3), ("put", 2**63), ("put", -3), ("advance", 1.0),
    ("rise", 2), ("put", 5), ("rise", 1), ("advance", 2.5), ("sweep", True),
    ("advance", 1.0), ("put", 8), ("advance", 7.0), ("put", 2**63 - 1), ("rise", 1),
])
def test_recent_matches_agrees_with_old_store_semantics(ttl, start, steps):
    """Puts at a non-decreasing ``now``, swept on every advance as the runner
    does: after every step each id reads as the old store read it, the index
    holds exactly the old store's live entries (by ``items`` and ``len``),
    each sweep returns how many it dropped, and no sweep, at ``now`` or with
    no argument, leaves an expired entry behind. Ids come rising (the column
    path), out of order, re-put, negative and past int64 (the side dict)."""
    recent, old = RecentMatches(ttl), _OldStoreSemantics(ttl)
    now = start
    rising = 0
    recent.sweep(now)
    for i, (op, arg) in enumerate(steps):
        held = len(recent)
        if op == "advance":
            now += arg
            dropped = recent.sweep(now)
        elif op in ("put", "rise"):
            post_id = rising + arg if op == "rise" else arg
            if 0 <= post_id < 2**63:
                rising = max(rising, post_id)
            recent.put(post_id, (f"t{i}",), now)
            old.put(post_id, (f"t{i}",), now)
        else:
            dropped = recent.sweep(now) if arg else recent.sweep()
        if op in ("advance", "sweep"):
            assert dropped == held - len(recent)
            assert all(expiry > now for _, expiry, _ in recent.items())
        live = {
            post_id: (expiry, terms)
            for post_id, (terms, expiry) in old.entries.items()
            if now < expiry
        }
        entries = list(recent.items())
        assert {post_id: (expiry, terms) for post_id, expiry, terms in entries} == live
        assert len(entries) == len(recent) == len(live)
        for post_id in {*_IDS, *range(7), *old.entries, rising + 1}:
            assert recent.get(post_id) == old.get(post_id, now)
    expiries = [expiry for _, expiry, _ in recent.items()]
    assert expiries == sorted(expiries)


def test_recent_matches_costs_under_40_bytes_an_entry():
    """Rising ids take the flat columns: an int64, a float64 and a shared
    tuple's list slot, about 24 bytes an entry with the columns' spare room.
    Each put passes a tuple of its own, as the runner does: equal ones are
    kept once."""
    import tracemalloc

    recent = RecentMatches(86400.0)
    terms = ("pandemic", "virus")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for post_id in range(10**6, 10**6 + 100_000):
            recent.put(post_id, tuple(sorted(terms)), post_id * 0.001)  # equal, not the same
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(recent) == 100_000
    assert recent.get(10**6 + 99_999) == terms
    assert held / 100_000 < 40


def test_match_against_brute_force_oracle_on_synthetic_corpus(tmp_path):
    import json

    from driftstream.sources.synthetic import SyntheticConfig, generate_synthetic

    corpus = generate_synthetic(
        SyntheticConfig(seed=3, duration_minutes=60, base_rate_per_minute=80), tmp_path
    )
    keywords = KeywordSet(seeds=("corona", "covid-19", "pandemic", "virus", "wuhan"))
    terms = keywords.active_terms()
    with open(corpus.archive_path, encoding="utf-8") as f:
        for line in f:
            obj = json.loads(line)
            post = make_post(post_id=obj["id"], text=obj["text"])
            oracle = {t for t in terms if t in obj["text"].lower()}
            assert match_keywords(post, keywords) == oracle


def test_tokenize_drops_stopwords_and_short_tokens():
    tokens = tokenize("The mask and a 5g it-is wuhan-virus x")
    assert "the" not in tokens and "and" not in tokens
    assert "mask" in tokens
    assert "wuhan-virus" in tokens
    assert "x" not in tokens


@given(
    st.lists(
        st.sampled_from(["The", "mask", "MASK", "and", "5g", "it-is", "wuhan-virus", "x", "covid-19",
                         "-", " ", "  ", ",", "über", "a_b", "mask-"]),
        max_size=20,
    ).map("".join)
    | st.text(max_size=60)
)
def test_tokenize_is_the_set_of_the_token_list(text):
    """``tokenize`` returns the distinct tokens that the token list (what it
    returned before it returned a set) holds."""
    from driftstream.keywords import DEFAULT_STOPWORDS, MIN_TOKEN_LEN, TOKEN_RE

    token_list = [
        t for t in TOKEN_RE.findall(text.lower()) if len(t) >= MIN_TOKEN_LEN and t not in DEFAULT_STOPWORDS
    ]
    tokens = tokenize(text)
    assert isinstance(tokens, set)
    assert tokens == set(token_list)


@given(st.text(max_size=200))
def test_match_never_raises_and_stays_within_set(text):
    keywords = KeywordSet()
    hits = keywords.match(text)
    assert hits <= set(keywords.active_terms())
