from __future__ import annotations

import pytest
from hypothesis import given
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
    store.put(1, ["flu"], now=0.0)
    assert store.get(1) == ["flu"]
    assert store.get(2) is None
    assert len(store) == 1


def test_expired_entry_is_absent():
    store = RecentMatches(ttl=1.0)
    store.put(1, ["flu"], now=0.0)
    assert store.sweep(2.0) == 1
    assert store.get(1) is None
    assert len(store) == 0


def test_retweet_of_matching_post_matches():
    recent = RecentMatches(ttl=86400.0)
    keywords = KeywordSet(seeds=("pandemic",))
    original = make_post(post_id=7, text="pandemic worsening")
    assert match_keywords(original, keywords) == {"pandemic"}
    recent.put(7, sorted({"pandemic"}), now=1000.0)

    retweet = make_post(post_id=8, text="so it begins", is_retweet_of=7)
    assert match_keywords(retweet, keywords, recent) == {"pandemic"}


def test_retweet_inheritance_expires_with_ttl():
    recent = RecentMatches(ttl=86400.0)
    recent.put(7, ["pandemic"], now=0.0)
    retweet = make_post(post_id=8, text="so it begins", is_retweet_of=7)
    keywords = KeywordSet(seeds=("pandemic",))
    assert recent.sweep(90000.0) == 1
    assert match_keywords(retweet, keywords, recent) == set()
    assert len(recent) == 0


def test_retweet_alive_just_before_expiry():
    recent = RecentMatches(ttl=10.0)
    recent.put(7, ["pandemic"], now=0.0)
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
    recent.put(7, ["pandemic"], now=0.0)
    recent.put(8, ["virus"], now=1.0)
    recent.put(7, ["mask"], now=2.0)
    assert list(recent._entries) == [8, 7]
    assert recent.sweep(11.0) == 1  # 8 expires; 7 was refreshed to 12
    assert recent.get(7) == ["mask"] and recent.get(8) is None
    assert recent.sweep(12.0) == 1
    assert len(recent) == 0


def test_sweep_without_argument_uses_last_now():
    recent = RecentMatches(ttl=10.0)
    assert recent.sweep() == 0
    recent.put(7, ["pandemic"], now=0.0)
    recent.sweep(5.0)
    assert recent.sweep() == 0 and recent.get(7) == ["pandemic"]
    recent.put(8, ["virus"], now=5.0)
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


_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("advance"), st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5, 7.0])),
        st.tuples(st.just("put"), st.integers(0, 6)),
        st.tuples(st.just("sweep"), st.booleans()),
    ),
    max_size=60,
)


@given(
    ttl=st.sampled_from([0.5, 1.0, 3.0, 0.1 + 0.2]),
    start=st.sampled_from([0.0, 1e9 + 0.3]),
    steps=_STEPS,
)
def test_recent_matches_agrees_with_old_store_semantics(ttl, start, steps):
    """Puts at a non-decreasing ``now``, swept on every advance as the runner
    does: after every step each id reads as the old store read it, and no
    sweep, at ``now`` or with no argument, leaves an expired entry behind."""
    recent, old = RecentMatches(ttl), _OldStoreSemantics(ttl)
    now = start
    recent.sweep(now)
    for i, (op, arg) in enumerate(steps):
        if op == "advance":
            now += arg
            recent.sweep(now)
        elif op == "put":
            recent.put(arg, [f"t{i}"], now)
            old.put(arg, [f"t{i}"], now)
        elif arg:
            recent.sweep(now)
        else:
            recent.sweep()
        if op in ("advance", "sweep"):
            assert all(expiry > now for expiry, _ in recent._entries.values())
        for post_id in range(7):
            assert recent.get(post_id) == old.get(post_id, now)
    expiries = [expiry for expiry, _ in recent._entries.values()]
    assert expiries == sorted(expiries)


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
