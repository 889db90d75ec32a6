"""Drift adaptation: co-occurrence counting, scoring, promotion, trending."""

from __future__ import annotations

import math
from collections import Counter, deque
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftstream.drift.adapter import DriftAdapter
from driftstream.drift.cooccurrence import CooccurrenceStats, observe_post, score_candidate
from driftstream.drift.promotion import PromotionPolicy, promote_keywords
from driftstream.drift.trending import TrendingHistory
from driftstream.keywords import KeywordSet, match_keywords, tokenize
from driftstream.misinfo.keywords import MisinfoKeywordSet

from conftest import make_enriched


# -- brute-force oracles for the incremental window state ------------------------


def recount_window(posts, keywords):
    """Brute-force recount over a window's posts (conservation checks)."""
    stats = CooccurrenceStats()
    for enriched in posts:
        observe_post(stats, enriched, keywords)
    return stats


def rising_ratios(history):
    """(current + 1) / (trailing mean + 1) for every term ever counted."""
    if len(history) < 2:
        raise ValueError("need at least 2 windows of history")
    current = history[-1]
    trailing = history[:-1]
    vocabulary = set(current)
    for window in trailing:
        vocabulary.update(window)
    ratios = {}
    for term in vocabulary:
        mean = sum(w.get(term, 0) for w in trailing) / len(trailing)
        ratios[term] = (current.get(term, 0) + 1.0) / (mean + 1.0)
    return ratios


def detect_trending(history, k):
    """Top-k terms by rising ratio; alphabetical tie-break for stability."""
    ratios = rising_ratios(history)
    ranked = sorted(ratios.items(), key=lambda item: (-item[1], item[0]))
    return [term for term, _ in ranked[: max(k, 0)]]


def _observe_texts(stats, keywords, texts, tracked_phrases=()):
    posts = []
    for i, text in enumerate(texts):
        matched = keywords.match(text)
        post = make_enriched(
            post_id=i, text=text, relevance=bool(matched), matched_terms=matched,
            tracked_phrases=tracked_phrases,
        )
        observe_post(stats, post, keywords)
        posts.append(post)
    return posts


class TestObservePost:
    def test_counts_candidates_and_pairs(self):
        keywords = KeywordSet(seeds=("pandemic",))
        stats = CooccurrenceStats()
        _observe_texts(stats, keywords, ["facemask shortage pandemic"])
        # manual count oracle: one post, three candidate terms, seed matched
        assert stats.total_posts == 1
        assert stats.seed_posts == 1
        assert stats.term_counts["facemask"] == 1
        assert stats.pair_counts["facemask"] == 1
        assert stats.term_counts["shortage"] == 1

    def test_no_seed_match_leaves_pairs_unchanged(self):
        keywords = KeywordSet(seeds=("pandemic",))
        stats = CooccurrenceStats()
        _observe_texts(stats, keywords, ["facemask shortage everywhere"])
        assert stats.pair_counts["facemask"] == 0
        assert stats.seed_posts == 0
        assert stats.term_counts["facemask"] == 1

    def test_term_counted_once_per_post(self):
        keywords = KeywordSet(seeds=("pandemic",))
        stats = CooccurrenceStats()
        _observe_texts(stats, keywords, ["facemask facemask facemask"])
        assert stats.term_counts["facemask"] == 1

    def test_total_posts_conserved(self):
        keywords = KeywordSet(seeds=("pandemic",))
        stats = CooccurrenceStats()
        texts = [f"word{i} pandemic" if i % 2 else f"word{i}" for i in range(50)]
        _observe_texts(stats, keywords, texts)
        assert stats.total_posts == 50
        assert stats.seed_posts == 25

    def test_learned_entry_does_not_count_as_seed_side(self):
        keywords = KeywordSet(seeds=("pandemic",))
        keywords.add("facemask")
        stats = CooccurrenceStats()
        # matches only the learned term: must not increment the seed side
        _observe_texts(stats, keywords, ["facemask outside"])
        assert stats.seed_posts == 0
        assert stats.pair_counts["outside"] == 0

    def test_recount_oracle_agrees_with_incremental(self):
        keywords = KeywordSet(seeds=("pandemic", "virus"))
        stats = CooccurrenceStats()
        texts = [
            "facemask pandemic city",
            "virus numbers rising",
            "coffee weather",
            "facemask weekend",
            "pandemic facemask icu",
        ]
        posts = _observe_texts(stats, keywords, texts)
        recount = recount_window(posts, keywords)
        assert recount.term_counts == stats.term_counts
        assert recount.pair_counts == stats.pair_counts
        assert (recount.total_posts, recount.seed_posts) == (
            stats.total_posts,
            stats.seed_posts,
        )

    def test_tracked_phrase_counted(self):
        keywords = KeywordSet(seeds=("pandemic",))
        stats = CooccurrenceStats()
        _observe_texts(stats, keywords, ["bill gates pandemic rumor"], tracked_phrases=("bill gates",))
        assert stats.term_counts["bill gates"] == 1
        assert stats.pair_counts["bill gates"] == 1


class TestScoreCandidate:
    def test_hand_computed_small_table(self):
        # 10 posts: 4 seed posts, "facemask" in 3 of them and nowhere else
        stats = CooccurrenceStats()
        stats.total_posts = 10
        stats.seed_posts = 4
        stats.term_counts["facemask"] = 3
        stats.pair_counts["facemask"] = 3
        expected_pmi = math.log((3 * 10) / (3 * 4))
        assert score_candidate(stats, "facemask", "pmi") == pytest.approx(
            1.0 / (1.0 + math.exp(-expected_pmi))
        )
        # jaccard = n(t,s) / (n(t) + n(seeds) - n(t,s)) = 3 / (3 + 4 - 3)
        assert score_candidate(stats, "facemask", "jaccard") == pytest.approx(3 / 4)

    def test_jaccard_reduces_to_ratio_when_term_only_in_seed_posts(self):
        stats = CooccurrenceStats()
        stats.total_posts = 20
        stats.seed_posts = 8
        stats.term_counts["facemask"] = 5
        stats.pair_counts["facemask"] = 5
        assert score_candidate(stats, "facemask", "jaccard") == pytest.approx(5 / 8)

    def test_zero_pair_count_scores_zero(self):
        stats = CooccurrenceStats()
        stats.total_posts = 10
        stats.seed_posts = 5
        stats.term_counts["weather"] = 4
        assert score_candidate(stats, "weather", "pmi") == 0.0
        assert score_candidate(stats, "weather", "jaccard") == 0.0

    def test_unknown_term_scores_zero(self):
        assert score_candidate(CooccurrenceStats(), "ghost") == 0.0

    def test_unknown_scorer_rejected(self):
        stats = CooccurrenceStats()
        stats.term_counts["x"] = stats.pair_counts["x"] = 1
        stats.total_posts = stats.seed_posts = 1
        with pytest.raises(ValueError):
            score_candidate(stats, "x", "cosine")

    def test_planted_term_tops_synthetic_window(self, tmp_path):
        from driftstream.enrich.clean import clean_post
        from driftstream.sources.archive import posts_from_archive
        from driftstream.sources.synthetic import (
            DriftTermSchedule,
            SyntheticConfig,
            generate_synthetic,
        )

        config = SyntheticConfig(
            seed=3,
            duration_minutes=30,
            base_rate_per_minute=60,
            drift_schedule=[DriftTermSchedule("facemask", 0, 1700, p_co=0.5)],
        )
        corpus = generate_synthetic(config, tmp_path)
        keywords = KeywordSet(seeds=config.seed_keywords)
        stats = CooccurrenceStats()
        for post in posts_from_archive(corpus.archive_path):
            enriched = clean_post(post, keywords)
            observe_post(stats, enriched, keywords)
        scores = {
            term: score_candidate(stats, term)
            for term, count in stats.term_counts.items()
            if count >= 25 and term not in keywords
        }
        assert max(scores, key=scores.get) == "facemask"


class TestPromotion:
    def test_promotes_qualifying_candidate(self):
        keywords = KeywordSet(seeds=("pandemic",))
        stats = CooccurrenceStats()
        stats.total_posts = 100
        stats.seed_posts = 30
        stats.term_counts["facemask"] = 30
        stats.pair_counts["facemask"] = 30
        policy = PromotionPolicy(min_count=25, min_score=0.7)
        promoted = promote_keywords(stats, policy, keywords)
        assert promoted == [("facemask", score_candidate(stats, "facemask"))]
        assert "facemask" in keywords
        assert keywords.seeds == {"pandemic"}

    def test_below_threshold_promotes_nothing(self):
        keywords = KeywordSet(seeds=("pandemic",))
        stats = CooccurrenceStats()
        stats.total_posts = 100
        stats.seed_posts = 50
        stats.term_counts["weather"] = 30
        stats.pair_counts["weather"] = 1
        promoted = promote_keywords(stats, PromotionPolicy(), keywords)
        assert promoted == []

    def test_promotion_idempotent(self):
        keywords = KeywordSet(seeds=("pandemic",))
        stats = CooccurrenceStats()
        stats.total_posts = 100
        stats.seed_posts = 30
        stats.term_counts["facemask"] = 30
        stats.pair_counts["facemask"] = 30
        policy = PromotionPolicy()
        first = promote_keywords(stats, policy, keywords)
        second = promote_keywords(stats, policy, keywords)
        assert [term for term, _ in first] == ["facemask"]
        assert second == []
        assert keywords.active_terms() == ["facemask", "pandemic"]

    def test_min_count_gate(self):
        keywords = KeywordSet(seeds=("pandemic",))
        stats = CooccurrenceStats()
        stats.total_posts = 100
        stats.seed_posts = 30
        stats.term_counts["facemask"] = 10
        stats.pair_counts["facemask"] = 10
        assert promote_keywords(stats, PromotionPolicy(min_count=25), keywords) == []

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            PromotionPolicy(min_count=0)
        with pytest.raises(ValueError):
            PromotionPolicy(min_score=0)
        with pytest.raises(ValueError):
            PromotionPolicy(scorer="magic")


class TestTrending:
    def test_flat_counts_stable_ordering(self):
        history = [Counter({"a": 10, "b": 10}), Counter({"a": 10, "b": 10})]
        ratios = rising_ratios(history)
        assert ratios["a"] == pytest.approx(1.0)
        assert detect_trending(history, 2) == ["a", "b"]  # alphabetical tie-break

    def test_jumping_term_ranked_first(self):
        history = [Counter({"a": 5, "spike": 0}), Counter({"a": 5, "spike": 100})]
        # hand computation: spike (100+1)/(0+1)=101, a (5+1)/(5+1)=1
        ratios = rising_ratios(history)
        assert ratios["spike"] == pytest.approx(101.0)
        assert detect_trending(history, 1) == ["spike"]

    def test_k_larger_than_vocabulary_returns_all(self):
        history = [Counter({"a": 1}), Counter({"b": 2})]
        assert set(detect_trending(history, 50)) == {"a", "b"}

    def test_requires_two_windows(self):
        with pytest.raises(ValueError):
            detect_trending([Counter()], 3)


class TestDriftAdapter:
    def _post(self, i, text, t, keywords):
        matched = keywords.match(text)
        return make_enriched(
            post_id=i, text=text, created_at=t, relevance=bool(matched), matched_terms=matched
        )

    def test_promotion_fires_on_slide_boundary_and_updates_keywords(self):
        keywords = KeywordSet(seeds=("pandemic",))
        adapter = DriftAdapter(
            keywords,
            policy=PromotionPolicy(min_count=5, min_score=0.6),
            window_length=600.0,
            slide=600.0,
        )
        # facemask rides only the seed posts; the off-topic half provides
        # the contrast that gives it lift over the base rate
        for i in range(20):
            text = "facemask pandemic rising" if i % 2 == 0 else "coffee weather"
            adapter.observe(self._post(i, text, float(i), keywords))
        assert "facemask" not in keywords
        assert adapter.audit == []
        adapter.observe(self._post(99, "pandemic again", 650.0, keywords))
        # the audit is the record of the promotion
        assert any(e.term == "facemask" for e in adapter.audit)
        assert "facemask" in keywords
        assert {e.term: e.promoted_at for e in adapter.audit}["facemask"] == 600.0
        # promotion is permanent: solo posts now match
        solo = make_enriched(post_id=100, text="facemask only", created_at=700.0)
        assert "facemask" in match_keywords(solo.post, keywords)

    def test_flush_evaluates_open_bucket(self):
        keywords = KeywordSet(seeds=("pandemic",))
        adapter = DriftAdapter(
            keywords, PromotionPolicy(min_count=5, min_score=0.6), 600.0, 600.0
        )
        for i in range(20):
            text = "facemask pandemic" if i % 2 == 0 else "coffee weather"
            adapter.observe(self._post(i, text, float(i), keywords))
        assert adapter.audit == []
        adapter.flush()
        assert any(e.term == "facemask" for e in adapter.audit)

    def test_late_post_counts_toward_the_open_slide(self):
        keywords = KeywordSet(seeds=("pandemic",))
        adapter = DriftAdapter(keywords, window_length=600.0, slide=600.0)
        for i, t in enumerate((0.0, 650.0, 10.0)):
            adapter.observe(self._post(i, "pandemic update", t, keywords))
        (closed,) = adapter._buckets
        assert (closed.index, closed.stats.total_posts) == (0, 1)
        assert (adapter._current.index, adapter._current.stats.total_posts) == (1, 2)

    def test_window_must_be_multiple_of_slide(self):
        with pytest.raises(ValueError):
            DriftAdapter(KeywordSet(), window_length=900.0, slide=600.0)

    def test_correlation_decays_in_solo_phase_but_promotion_sticks(self, tmp_path):
        from driftstream.drift.cooccurrence import CooccurrenceStats, observe_post, score_candidate
        from driftstream.enrich.clean import clean_post
        from driftstream.sources.archive import posts_from_archive
        from driftstream.sources.synthetic import (
            DriftTermSchedule,
            SyntheticConfig,
            generate_synthetic,
        )
        from driftstream.timeutil import parse_timestamp

        config = SyntheticConfig(
            seed=9,
            duration_minutes=80,
            base_rate_per_minute=60,
            drift_schedule=[DriftTermSchedule("facemask", 0, 2400, p_co=0.5, p_solo=0.3)],
        )
        corpus = generate_synthetic(config, tmp_path)
        keywords = KeywordSet(seeds=config.seed_keywords)
        solo_start = parse_timestamp(config.start_time) + 2400

        co_stats = CooccurrenceStats()
        solo_stats = CooccurrenceStats()
        for post in posts_from_archive(corpus.archive_path):
            enriched = clean_post(post, keywords)
            target = co_stats if post.created_at < solo_start else solo_stats
            observe_post(target, enriched, keywords)

        co_score = score_candidate(co_stats, "facemask")
        solo_score = score_candidate(solo_stats, "facemask")
        assert solo_score < co_score  # the term acquired its own context

        # promotion earned during the co phase survives the decay
        promoted = promote_keywords(co_stats, PromotionPolicy(min_count=25, min_score=0.7), keywords)
        assert any(term == "facemask" for term, _ in promoted)
        promote_keywords(solo_stats, PromotionPolicy(min_count=25, min_score=0.7), keywords)
        assert "facemask" in keywords

    def test_piggyback_skips_empty_slides_and_the_final_flush(self):
        keywords = KeywordSet(seeds=("pandemic",))
        adapter = DriftAdapter(keywords, None, 1200.0, 600.0, misinfo=MisinfoKeywordSet())

        def post(i, t, rumor=False):
            text = "miraclecure plandemic" if rumor else "weather coffee"
            return make_enriched(post_id=i, text=text, created_at=t, relevance=False,
                                 misinfo_terms={"plandemic"} if rumor else set())

        for i in range(6):
            adapter.observe(post(i, float(i)))  # slide 0
        for i in range(3):  # slide 4, after three empty slides
            adapter.observe(post(10 + i, 2400.0 + i, rumor=True))
            adapter.observe(post(20 + i, 2410.0 + i))
        assert adapter.piggyback == []
        adapter.observe(post(30, 3000.0))  # opens slide 5
        # window = slides 0 and 4: N=12, n(misinfo)=n(t)=n(t, misinfo)=3 -> lift 4,
        # score 0.8; counting the empty slides instead would leave N=6, score 0.67
        assert adapter.piggyback == [{"window_end": 3000.0, "candidates": ["miraclecure"]}]
        adapter.observe(post(31, 3001.0))
        adapter.flush()  # slides 4-5 would score 0.73, but flush runs promotion only
        assert len(adapter.piggyback) == 1
        assert adapter.audit == []  # no policy, no promotion

    def test_audit_records_promotions(self):
        keywords = KeywordSet(seeds=("pandemic",))
        adapter = DriftAdapter(
            keywords, PromotionPolicy(min_count=3, min_score=0.6), 600.0, 600.0
        )
        for i in range(10):
            text = "facemask pandemic" if i % 2 == 0 else "coffee weather"
            adapter.observe(self._post(i, text, float(i), keywords))
        adapter.flush()
        terms = [e.term for e in adapter.audit]
        assert "facemask" in terms
        event = next(e for e in adapter.audit if e.term == "facemask")
        assert event.window_end - event.window_start == 600.0


# -- running window sums equal a fresh merge --------------------------------------

WORDS = ("pandemic", "facemask", "plandemic", "coffee", "weather", "rally", "stay home")


class _CheckedAdapter(DriftAdapter):
    """Checks, after every slide close, the running sum promotion scores and
    the window sum piggyback reads against ``_merged`` of their buckets.
    ``fallbacks`` counts the piggyback reads that merged afresh because an
    empty slide sat in promotion's window.

    It also keeps its own counts, taken with ``Counter.update`` and
    ``Counter.subtract`` only, and checks that the closed bucket, the
    promotion window and the trending history's trailing sum equal them."""

    checks = 0
    fallbacks = 0

    def __init__(self, *args, tracked_phrases=(), **kwargs):
        super().__init__(*args, **kwargs)
        self.tracked_phrases = tracked_phrases  # the recount's, from the post texts
        self.posts = {}  # slide index -> the posts counted into that slide
        self.recounts = deque(maxlen=self._buckets.maxlen)  # per bucket in the window
        self.window_recount = _recount([], self.keywords, self.tracked_phrases)

    def observe(self, enriched):
        super().observe(enriched)
        self.posts.setdefault(self._current.index, []).append(enriched)

    def _close_current(self):
        evicted = self.recounts[0] if len(self.recounts) == self.recounts.maxlen else None
        closed = super()._close_current()
        bucket = _recount(self.posts.pop(closed.index, []), self.keywords, self.tracked_phrases)
        _assert_sum(closed.stats, bucket)
        self.recounts.append(bucket)
        window = self.window_recount
        for name in _COUNTERS:
            getattr(window, name).update(getattr(bucket, name))
            if evicted is not None:
                getattr(window, name).subtract(getattr(evicted, name))
            setattr(window, name, +getattr(window, name))  # drop the zeros subtract leaves
        for name in ("total_posts", "seed_posts", "misinfo_posts"):
            setattr(window, name, getattr(window, name) + getattr(bucket, name)
                    - (getattr(evicted, name) if evicted is not None else 0))
        _assert_sum(self._window_stats, window)
        return closed

    def _evaluate(self, closed_index):
        _assert_sum(self._window_stats, self._merged(self._buckets))
        self.checks += 1
        return super()._evaluate(closed_index)

    def _detect_piggyback(self, closed):
        super()._detect_piggyback(closed)
        history = list(self._trending.history)
        trailing = Counter()
        for counts in history[:-1]:
            trailing.update(counts)
        assert history[-1] is closed.stats.term_counts
        assert self._trending.trailing == trailing
        assert all(n > 0 for n in self._trending.trailing.values())

    def _piggyback_stats(self):
        stats = super()._piggyback_stats()
        _assert_sum(stats, self._merged(self._piggyback_buckets))
        if stats is not self._window_stats:
            _CheckedAdapter.fallbacks += 1
        return stats


_COUNTERS = ("term_counts", "pair_counts", "misinfo_pair_counts")


def _recount(posts, keywords, tracked_phrases):
    """The stats of ``posts`` counted with ``Counter.update``, one post at a
    time, as ``observe_post`` defines them."""
    stats = CooccurrenceStats()
    for enriched in posts:
        text = enriched.post.text
        candidates = set(tokenize(text)) | {p for p in tracked_phrases if p in text.lower()}
        seed_matched = not keywords.seeds.isdisjoint(enriched.matched_terms)
        stats.total_posts += 1
        stats.seed_posts += seed_matched
        stats.misinfo_posts += bool(enriched.misinfo_terms)
        stats.term_counts.update(candidates)
        if seed_matched:
            stats.pair_counts.update(candidates)
        if enriched.misinfo_terms:
            stats.misinfo_pair_counts.update(candidates)
    return stats


def _assert_sum(running, merged):
    assert running == merged
    for name in _COUNTERS:
        assert all(n > 0 for n in getattr(running, name).values())  # Counter == ignores zero counts


# each post: slides to skip before it (0 = same slide, >1 = a gap of empty
# slides), a late flag (a time in an earlier slide), its words, a misinfo tag
posts_strategy = st.lists(
    st.tuples(
        st.sampled_from((0, 0, 0, 1, 1, 2, 5)),
        st.booleans(),
        st.lists(st.sampled_from(WORDS), max_size=4),
        st.booleans(),
    ),
    max_size=60,
)


def test_running_window_sums_equal_fresh_merge():
    """Every window sum the adapter reads equals a fresh merge, and the
    streams drawn take piggyback's fresh-merge branch at least once."""
    _CheckedAdapter.fallbacks = 0
    _check_window_sums()
    assert _CheckedAdapter.fallbacks > 0


@settings(max_examples=60, deadline=None)
@given(posts_strategy, st.sampled_from((1, 2, 3)), st.booleans())
# slides 0, 2, 3 and 4: closing slide 3 leaves empty slide 1 in promotion's window
@example([(0, False, ["pandemic"], True), (2, False, ["coffee"], False),
          (1, False, ["rally"], True), (1, False, [], False)], 3, False)
def _check_window_sums(posts, buckets_per_window, promote):
    keywords = KeywordSet(seeds=("pandemic",))
    adapter = _CheckedAdapter(
        keywords,
        PromotionPolicy(min_count=2, min_score=0.5) if promote else None,
        window_length=600.0 * buckets_per_window,
        slide=600.0,
        tracked_phrases=("stay home",),
        trending_history=3,
        misinfo=MisinfoKeywordSet(),
        trending_k=3,
    )
    slide = 0
    indices = []
    for i, (skip, late, words, rumor) in enumerate(posts):
        slide += skip
        t = 600.0 * (slide - 1 if late and slide else slide) + i
        indices.append(slide - 1 if late and slide else slide)
        text = " ".join(words)
        matched = keywords.match(text)
        post = make_enriched(post_id=i, text=text, created_at=t, relevance=bool(matched),
                             matched_terms=matched, misinfo_terms={"plandemic"} if rumor else set(),
                             tracked_phrases=("stay home",))
        adapter.observe(post)
    adapter.flush()
    # A slide closes when it, or one of the window's slides before it, holds
    # a post (a late post counts into the open slide): a gap closes the
    # window's slides after its last post, then skips to the next post.
    counted = set(accumulate(indices, max))
    closes = sum(
        1
        for index in range(min(counted), max(counted) + 1)
        if any(index - back in counted for back in range(buckets_per_window + 1))
    ) if posts else 0
    assert adapter.checks == closes


@given(
    st.sets(st.text(max_size=3), max_size=20),
    st.dictionaries(st.text(max_size=3), st.integers(1, 5), max_size=10),
)
def test_count_elements_counts_as_counter_update(candidates, held):
    """``observe_post`` counts through ``collections._count_elements``, the C
    helper ``Counter.update`` ends in, which is private to CPython. It must
    exist, be the C helper, and count a candidate set exactly as
    ``Counter.update`` does: same counts, same key order."""
    from collections import _count_elements

    assert type(_count_elements).__name__ == "builtin_function_or_method"
    counted, updated = Counter(held), Counter(held)
    _count_elements(counted, candidates)
    updated.update(candidates)
    assert list(counted.items()) == list(updated.items())


def test_subtract_undoes_merge_and_drops_zero_counts():
    keywords = KeywordSet(seeds=("pandemic",))
    first, second = CooccurrenceStats(), CooccurrenceStats()
    _observe_texts(first, keywords, ["facemask pandemic", "coffee weather"])
    _observe_texts(second, keywords, ["facemask pandemic rally"])
    total = CooccurrenceStats()
    total.merge(first)
    total.merge(second)
    total.subtract(first)
    assert total == second
    assert set(total.term_counts) == set(second.term_counts)  # no "coffee": 0
    assert set(total.pair_counts) == set(second.pair_counts)


history_strategy = st.lists(
    st.dictionaries(st.sampled_from("abcdefgh"), st.integers(1, 4), max_size=6).map(Counter),
    max_size=12,
)


@given(history_strategy, st.integers(1, 7), st.integers(0, 10))
def test_trending_history_equals_detect_trending(windows, depth, k):
    """``top`` equals the recount for a drawn k and for every k from 0 to
    past the newest window's vocabulary, on both sides of the count at
    which terms seen only in the trailing windows can rank."""
    trending = TrendingHistory(depth)
    for pushed, counts in enumerate(windows, 1):
        trending.push(counts)
        history = list(trending.history)
        assert history == windows[:pushed][-depth:]
        expected_trailing = sum(history[:-1], Counter())
        assert trending.trailing == expected_trailing
        assert all(n > 0 for n in trending.trailing.values())
        if len(history) >= 2:
            for each in (k, *range(len(history[-1]) + 3)):
                assert trending.top(each) == detect_trending(history, each)
        else:
            with pytest.raises(ValueError):
                trending.top(k)
