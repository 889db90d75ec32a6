"""Event clusters, evidence accumulation, and the teamed classifier."""

from __future__ import annotations

import itertools
import math
import random
from collections import defaultdict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from driftstream.core.windows import assign_window
from driftstream.corroboration.clusters import (
    ClusterFeatures,
    EventCluster,
    cluster_features,
    form_clusters,
)
from driftstream.corroboration.evidence import (
    ClusterStore,
    Evidence,
    MatchRule,
    StatusChange,
    attach_evidence,
    resolve_status,
)
from driftstream.corroboration.team import (
    Member,
    TeamedClassifier,
    add_member,
    default_team,
    keyword_presence_member,
    update_weights,
)
from driftstream.timeutil import DAY, HOUR, parse_timestamp

from conftest import make_enriched

T0 = parse_timestamp("2020-08-07T12:00:00Z")


def _located(post_id, location, t=T0, text="crowd gathering rally", misinfo=None):
    return make_enriched(
        post_id=post_id,
        text=text,
        created_at=t,
        locations=[location] if isinstance(location, str) else list(location),
        misinfo_terms=misinfo or set(),
    )


class TestFormClusters:
    def test_five_posts_same_place_hour_one_cluster(self):
        posts = [_located(i, "sturgis", T0 + i * 60) for i in range(5)]
        clusters = form_clusters(posts, window_length=HOUR)
        assert len(clusters) == 1
        cluster = clusters[0]
        assert cluster.location == "sturgis"
        assert cluster.post_ids == {0, 1, 2, 3, 4}
        assert cluster.window == assign_window(T0, HOUR)

    def test_posts_without_locations_form_nothing(self):
        posts = [make_enriched(post_id=i, locations=[]) for i in range(5)]
        assert form_clusters(posts) == []

    def test_min_cluster_size_threshold(self):
        posts = [_located(i, "sturgis") for i in range(2)]
        assert form_clusters(posts, min_cluster_size=3) == []

    def test_misinfo_tagged_posts_excluded(self):
        posts = [_located(i, "sturgis") for i in range(3)]
        posts.append(_located(9, "sturgis", misinfo={"plandemic"}))
        clusters = form_clusters(posts, min_cluster_size=3)
        assert len(clusters) == 1
        assert 9 not in clusters[0].post_ids

    def test_multi_location_post_joins_k_clusters(self):
        posts = [_located(i, "sturgis") for i in range(3)]
        posts += [_located(10 + i, "madrid") for i in range(3)]
        posts.append(_located(99, ("sturgis", "madrid")))
        clusters = form_clusters(posts, min_cluster_size=3)
        by_location = {c.location: c for c in clusters}
        assert 99 in by_location["sturgis"].post_ids
        assert 99 in by_location["madrid"].post_ids

    def test_membership_matches_brute_force_regrouping(self):
        rng = random.Random(77)
        locations = ["sturgis", "madrid", "hubei"]
        posts = [
            _located(i, rng.choice(locations), T0 + rng.uniform(0, 4 * HOUR))
            for i in range(200)
        ]
        clusters = form_clusters(posts, window_length=HOUR, min_cluster_size=1)

        oracle: dict = defaultdict(set)
        for post in posts:
            window_start = (post.post.created_at // HOUR) * HOUR
            oracle[(post.locations[0], window_start)].add(post.post.id)
        assert {(c.location, c.window.window_start): c.post_ids for c in clusters} == dict(oracle)
        # every member satisfies the (location, window) predicate
        by_id = {p.post.id: p for p in posts}
        for cluster in clusters:
            for pid in cluster.post_ids:
                post = by_id[pid]
                assert cluster.location in post.locations
                assert cluster.window.contains(post.post.created_at)

    def test_topic_terms_include_matched_keywords_and_common_tokens(self):
        posts = [
            _located(i, "sturgis", T0 + i, text="rally crowd coronavirus")
            for i in range(4)
        ]
        for p in posts:
            p.matched_terms = {"coronavirus"}
        (cluster,) = form_clusters(posts, min_cluster_size=3)
        assert "coronavirus" in cluster.topic_terms
        assert "rally" in cluster.topic_terms


def _cluster(location="sturgis", window_start=T0 - T0 % HOUR):
    posts = [_located(i, location, window_start + i) for i in range(4)]
    (cluster,) = form_clusters(posts, window_length=HOUR, min_cluster_size=3)
    return cluster, posts


def _evidence(ev_id, kind="supporting", location="sturgis", t=None, terms=("rally",)):
    return Evidence(
        id=ev_id,
        kind=kind,
        source="nytimes.com",
        location=location,
        time=T0 + 10 * DAY if t is None else t,
        terms=set(terms),
        arrived_at=T0 + 10 * DAY if t is None else t,
    )


class TestAttachEvidence:
    def test_matching_evidence_attaches(self):
        cluster, _ = _cluster()
        ev = _evidence("ev-1")
        assert attach_evidence(cluster, ev, MatchRule(lag_tolerance=14 * DAY)) is True
        assert cluster.evidence_ids == {"ev-1"}

    def test_location_mismatch_no_attach(self):
        cluster, _ = _cluster()
        assert attach_evidence(cluster, _evidence("ev-1", location="madrid")) is False
        assert cluster.evidence_ids == set()

    def test_time_beyond_lag_tolerance_no_attach(self):
        cluster, _ = _cluster()
        late = _evidence("ev-1", t=T0 + 30 * DAY)
        assert attach_evidence(cluster, late, MatchRule(lag_tolerance=14 * DAY)) is False

    def test_no_term_overlap_no_attach(self):
        cluster, _ = _cluster()
        assert attach_evidence(cluster, _evidence("ev-1", terms=("volcano",))) is False

    def test_double_attach_is_idempotent(self):
        cluster, _ = _cluster()
        ev = _evidence("ev-1")
        attach_evidence(cluster, ev)
        attach_evidence(cluster, ev)
        assert cluster.evidence_ids == {"ev-1"}

    def test_location_normalization_applies(self):
        built, _ = _cluster()
        cluster = EventCluster(id="c", location="Sturgis ", window=built.window,
                               topic_terms=set(built.topic_terms))
        assert cluster.location == "sturgis"
        assert attach_evidence(cluster, _evidence("ev-1", location=" STURGIS")) is True

    def test_topic_terms_lowercased_when_cluster_is_built(self):
        built, _ = _cluster()
        cluster = EventCluster(id="c", location="sturgis", window=built.window,
                               topic_terms={"Rally", "CROWD"})
        assert cluster.topic_terms == {"rally", "crowd"}
        assert attach_evidence(cluster, _evidence("ev-1", terms=("RALLY",))) is True


class TestResolveStatus:
    def _with_evidence(self, kinds):
        cluster, _ = _cluster()
        store = {}
        for i, kind in enumerate(kinds):
            ev = _evidence(f"ev-{i}", kind=kind)
            store[ev.id] = ev
            attach_evidence(cluster, ev)
        return cluster, store

    def test_no_evidence_tentative(self):
        cluster, store = self._with_evidence([])
        assert resolve_status(cluster, store) == "tentative"

    def test_two_supporting_corroborated(self):
        cluster, store = self._with_evidence(["supporting", "supporting"])
        assert resolve_status(cluster, store) == "corroborated"

    def test_net_contradicting_refuted(self):
        cluster, store = self._with_evidence(["contradicting", "supporting", "contradicting"])
        assert resolve_status(cluster, store) == "refuted"

    def test_balanced_evidence_tentative(self):
        cluster, store = self._with_evidence(["supporting", "contradicting"])
        assert resolve_status(cluster, store) == "tentative"

    def test_all_permutations_of_four_items_agree(self):
        kinds = ["supporting", "supporting", "contradicting", "supporting"]
        outcomes = set()
        for order in itertools.permutations(range(len(kinds))):
            cluster, _ = _cluster()
            store = {}
            for idx in order:
                ev = _evidence(f"ev-{idx}", kind=kinds[idx])
                store[ev.id] = ev
                attach_evidence(cluster, ev)
            outcomes.add(resolve_status(cluster, store))
        assert outcomes == {"corroborated"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            _evidence("ev-1", kind="maybe")


class TestRetroactiveCorrect:
    def _store_with_cluster(self):
        cluster, posts = _cluster()
        store = ClusterStore(rule=MatchRule(lag_tolerance=14 * DAY))
        store.add_cluster(cluster, cluster_features(cluster, posts))
        return store, cluster

    def test_sturgis_flip_to_corroborated(self):
        store, cluster = self._store_with_cluster()
        changes = store.ingest_evidence(_evidence("ev-news"))
        assert [(c.cluster_id, c.old_status, c.new_status) for c in changes] == [
            (cluster.id, "tentative", "corroborated")
        ]
        assert cluster.status == "corroborated"
        assert store.change_log == changes

    def test_non_matching_evidence_changes_nothing(self):
        store, _ = self._store_with_cluster()
        changes = store.ingest_evidence(_evidence("ev-x", location="nowhere"))
        assert changes == []

    def test_two_orderings_identical_final_statuses(self):
        items = [
            _evidence("ev-a", kind="supporting"),
            _evidence("ev-b", kind="contradicting"),
            _evidence("ev-c", kind="supporting"),
            _evidence("ev-d", kind="supporting"),
        ]
        finals = []
        for order in (items, list(reversed(items))):
            store, cluster = self._store_with_cluster()
            for ev in order:
                store.ingest_evidence(ev)
            finals.append(cluster.status)
        assert finals[0] == finals[1] == "corroborated"

    def test_flip_triggers_weight_update(self):
        store, _ = self._store_with_cluster()
        team = default_team(("coronavirus",), eta=0.5)
        before = list(team.raw_weights)
        store.ingest_evidence(_evidence("ev-bad", kind="contradicting"), classifier=team)
        assert team.raw_weights != before

    def test_repeated_id_changes_nothing(self):
        store, sturgis = self._store_with_cluster()
        madrid, _ = _cluster("madrid")
        store.add_cluster(madrid)
        store.ingest_evidence(_evidence("ev-1", kind="supporting"))
        assert store.ingest_evidence(_evidence("ev-1", kind="contradicting", location="madrid")) == []
        assert (sturgis.status, madrid.status) == ("corroborated", "tentative")
        assert madrid.evidence_ids == set() and store.evidence["ev-1"].kind == "supporting"
        assert resolve_status(sturgis, store.evidence) == "corroborated"

    def test_settled_status_never_changes_without_new_evidence(self):
        store, cluster = self._store_with_cluster()
        store.ingest_evidence(_evidence("ev-1"))
        settled = cluster.status
        # re-resolving with the same evidence set is a fixed point
        assert resolve_status(cluster, store.evidence) == settled


def _scan_every_cluster(store, ev, classifier):
    """ingest_evidence as a scan of every cluster in id order."""
    store.evidence[ev.id] = ev
    changes = []
    for cluster_id in sorted(store.clusters):
        cluster = store.clusters[cluster_id]
        if not attach_evidence(cluster, ev, store.rule):
            continue
        old, new = cluster.status, resolve_status(cluster, store.evidence)
        if new == old:
            continue
        cluster.status = new
        changes.append(StatusChange(cluster_id, old, new, ev.id))
        features = store.features.get(cluster_id)
        if features is not None:
            outcome = 1 if ev.kind == "supporting" else -1
            classifier.update(classifier.member_votes(features), outcome)
    store.change_log.extend(changes)
    return changes


# spellings that normalize to three places, plus one no cluster has
PLACES = ("Sturgis", " sturgis", "New  York", "new york", "madrid", "Lombardy")
cluster_specs = st.lists(
    st.tuples(
        st.integers(0, 9),  # id: a repeated id re-adds (replaces) the cluster
        st.sampled_from(PLACES[:5]),
        st.integers(0, 72),  # window start, hours after T0
        st.sets(st.sampled_from(("rally", "virus", "crowd")), max_size=2),
        st.integers(1, 9),  # size
    ),
    max_size=25,
)
evidence_item = st.tuples(
    st.sampled_from(("supporting", "contradicting")),
    st.sampled_from(PLACES),
    st.integers(-24, 96),  # hours after T0
    st.sets(st.sampled_from(("rally", "virus", "crowd", "flood")), min_size=1, max_size=2),
)
evidence_specs = st.lists(evidence_item, max_size=20)


class TestLocationIndex:
    """ingest_evidence tries only the clusters at the evidence's location."""

    @given(cluster_specs, evidence_specs)
    def test_same_flips_and_weights_as_a_scan_of_every_cluster(self, clusters, evidence):
        stores = []
        for _ in range(2):
            store = ClusterStore(rule=MatchRule(lag_tolerance=DAY))
            for n, place, hours, terms, size in clusters:
                start = T0 + hours * HOUR
                cluster = EventCluster(
                    id=f"c{n}", location=place, window=assign_window(start, HOUR),
                    post_ids=set(range(size)), topic_terms=set(terms),
                )
                store.add_cluster(cluster, ClusterFeatures(size, 1, 0.5, frozenset(terms)))
            stores.append((store, default_team(("rally",), eta=0.5)))
        (indexed, team), (scanned, oracle_team) = stores
        for i, (kind, place, hours, terms) in enumerate(evidence):
            ev = Evidence(id=f"ev-{i}", kind=kind, source="who.int", location=place,
                          time=T0 + hours * HOUR, terms=set(terms))
            assert indexed.ingest_evidence(ev, classifier=team) == _scan_every_cluster(
                scanned, ev, oracle_team
            )
        assert indexed.change_log == scanned.change_log
        assert team.raw_weights == oracle_team.raw_weights
        assert indexed.export() == scanned.export()

    def test_re_added_cluster_moves_to_its_new_location(self, monkeypatch):
        import driftstream.corroboration.evidence as evidence_module

        tried = []

        def counting_attach(cluster, ev, rule=None):
            tried.append((cluster.id, ev.id))
            return attach_evidence(cluster, ev, rule)

        monkeypatch.setattr(evidence_module, "attach_evidence", counting_attach)
        store = ClusterStore(rule=MatchRule(lag_tolerance=14 * DAY))
        cluster, _ = _cluster("sturgis")
        store.add_cluster(cluster)
        moved = EventCluster(id=cluster.id, location="Madrid", window=cluster.window,
                             post_ids=set(cluster.post_ids), topic_terms=set(cluster.topic_terms))
        store.add_cluster(moved)
        assert store.ingest_evidence(_evidence("ev-1", location="sturgis")) == []
        changes = store.ingest_evidence(_evidence("ev-2", location="madrid"))
        assert [(c.cluster_id, c.new_status) for c in changes] == [(cluster.id, "corroborated")]
        assert cluster.evidence_ids == set()
        # each item is tried once, against the one cluster at its location
        assert tried == [(cluster.id, "ev-2")]


class TestRepeatedEvidenceIds:
    @given(cluster_specs, st.lists(st.tuples(st.integers(0, 3), evidence_item), max_size=20))
    def test_status_is_resolved_from_the_stored_evidence(self, clusters, evidence):
        """Items reuse ids; a repeated id changes nothing, and every status
        stays what ``resolve_status`` gives over the store."""
        store = ClusterStore(rule=MatchRule(lag_tolerance=DAY))
        for n, place, hours, terms, size in clusters:
            store.add_cluster(EventCluster(
                id=f"c{n}", location=place, window=assign_window(T0 + hours * HOUR, HOUR),
                post_ids=set(range(size)), topic_terms=set(terms),
            ))
        for n, (kind, place, hours, terms) in evidence:
            ev = Evidence(id=f"ev-{n}", kind=kind, source="who.int", location=place,
                          time=T0 + hours * HOUR, terms=set(terms))
            repeated = ev.id in store.evidence
            before = (store.export(), len(store.change_log))
            store.ingest_evidence(ev)
            if repeated:
                assert (store.export(), len(store.change_log)) == before
            for cluster in store.clusters.values():
                assert cluster.status == resolve_status(cluster, store.evidence)


class TestTeamedClassifier:
    def _features(self, terms=("bleach",)):
        cluster, posts = _cluster()
        cluster.topic_terms = set(terms)
        return cluster_features(cluster, posts)

    def test_single_member_full_vote(self):
        team = TeamedClassifier([Member("one", lambda f: 1.0)])
        assert team.predict(self._features()) == 1.0

    def test_two_members_half_weights(self):
        team = TeamedClassifier(
            [Member("zero", lambda f: 0.0), Member("one", lambda f: 1.0)]
        )
        assert team.predict(self._features()) == pytest.approx(0.5)

    def test_prediction_matches_hand_weighted_sum(self):
        rng = random.Random(3)
        for _ in range(25):
            votes = [rng.random() for _ in range(4)]
            team = TeamedClassifier(
                [Member(str(i), lambda f, v=v: v) for i, v in enumerate(votes)]
            )
            team.update([rng.random() for _ in range(4)], rng.choice([1, -1]))
            weights = team.weights
            expected = sum(w * v for w, v in zip(weights, votes))
            assert team.predict(self._features()) == pytest.approx(expected)

    def test_identical_votes_leave_normalized_weights_unchanged(self):
        team = TeamedClassifier([Member("a", lambda f: 1.0), Member("b", lambda f: 1.0)])
        before = team.weights
        update_weights(team, [1.0, 1.0], outcome=-1)
        assert team.weights == pytest.approx(before)

    def test_single_refutation_closed_form(self):
        team = TeamedClassifier([Member("a", lambda f: 1.0), Member("b", lambda f: 0.5)], eta=0.5)
        w0 = team.raw_weights[0]
        update_weights(team, [1.0, 0.5], outcome=-1)
        # member a voted 1.0 against a refutation: factor e^-0.5 exactly
        assert team.raw_weights[0] == pytest.approx(w0 * math.exp(-0.5), abs=1e-12)
        # member b voted 0.5: 2v-1 = 0, factor 1
        assert team.raw_weights[1] == pytest.approx(0.5, abs=1e-12)

    def test_k_refutations_decay_exactly(self):
        eta = 0.5
        team = TeamedClassifier(
            [Member("optimist", lambda f: 1.0), Member("half", lambda f: 0.5)], eta=eta
        )
        w0 = team.raw_weights[0]
        k = 7
        for _ in range(k):
            update_weights(team, [1.0, 0.5], outcome=-1)
        assert team.raw_weights[0] == pytest.approx(w0 * math.exp(-k * eta), rel=1e-12)

    def test_weights_positive_and_normalized_after_any_sequence(self):
        rng = random.Random(11)
        team = TeamedClassifier([Member(str(i), lambda f: 0.5) for i in range(5)], eta=0.7)
        for _ in range(200):
            votes = [rng.random() for _ in range(5)]
            update_weights(team, votes, rng.choice([1, -1]))
        assert all(w > 0 for w in team.weights)
        assert sum(team.weights) == pytest.approx(1.0, abs=1e-9)

    def test_vote_out_of_range_rejected(self):
        team = TeamedClassifier([Member("a", lambda f: 1.0)])
        with pytest.raises(ValueError):
            update_weights(team, [1.5], outcome=1)
        with pytest.raises(ValueError):
            update_weights(team, [0.5], outcome=0)

    def test_needs_at_least_one_member(self):
        with pytest.raises(ValueError):
            TeamedClassifier([])

    @given(
        st.lists(st.floats(min_value=0, max_value=1), min_size=3, max_size=3),
        st.lists(st.sampled_from([1, -1]), min_size=1, max_size=30),
    )
    def test_weight_invariants_hold_under_hypothesis(self, votes, outcomes):
        team = TeamedClassifier([Member(str(i), lambda f: 0.0) for i in range(3)], eta=0.3)
        for outcome in outcomes:
            update_weights(team, votes, outcome)
        assert all(w > 0 for w in team.weights)
        assert sum(team.weights) == pytest.approx(1.0, abs=1e-9)


class TestAddMember:
    def test_one_member_team_becomes_half_half(self):
        team = TeamedClassifier([Member("a", lambda f: 1.0)])
        team.add_member(Member("b", lambda f: 0.0))
        assert team.weights == pytest.approx([0.5, 0.5])

    def test_trend_member_scores_on_matching_topic_terms(self):
        team = TeamedClassifier([Member("a", lambda f: 0.0)])
        trend_posts = [
            make_enriched(post_id=i, text="bleach cure bleach nonsense") for i in range(3)
        ]
        add_member(team, trend_posts)
        cluster, posts = _cluster()
        cluster.topic_terms = {"bleach", "rally"}
        features = cluster_features(cluster, posts)
        assert team.members[-1](features) == 1.0
        assert team.members[-1].id.startswith("trend:")
        cluster.topic_terms = {"rally"}
        features = cluster_features(cluster, posts)
        assert team.members[-1](features) == 0.0

    def test_add_preserves_relative_weights_of_existing(self):
        team = TeamedClassifier([Member("a", lambda f: 0.0), Member("b", lambda f: 0.0)])
        update_weights(team, [1.0, 0.0], outcome=1)
        ratio_before = team.weights[0] / team.weights[1]
        team.add_member(Member("c", lambda f: 0.0))
        assert team.weights[2] == pytest.approx(1.0 / 3.0)
        assert team.weights[0] / team.weights[1] == pytest.approx(ratio_before)
        assert sum(team.weights) == pytest.approx(1.0)

    def test_empty_trend_rejected(self):
        team = TeamedClassifier([Member("a", lambda f: 0.0)])
        with pytest.raises(ValueError):
            add_member(team, [])

    def test_predictions_on_term_disjoint_clusters_track_renormalization(self):
        base = TeamedClassifier([Member("a", lambda f: 0.4), Member("b", lambda f: 0.8)])
        cluster, posts = _cluster()
        cluster.topic_terms = {"rally"}  # disjoint from the trend terms below
        features = cluster_features(cluster, posts)
        before = base.predict(features)
        trend_posts = [make_enriched(post_id=i, text="bleach bleach") for i in range(2)]
        add_member(base, trend_posts)
        after = base.predict(features)
        # new member scores 0 on disjoint clusters: prediction scales by m/(m+1)
        assert after == pytest.approx(before * 2.0 / 3.0)
