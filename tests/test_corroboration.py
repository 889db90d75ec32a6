"""Event clusters, evidence accumulation, and the teamed classifier."""

from __future__ import annotations

import itertools
import math
import random
from collections import defaultdict
from dataclasses import replace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from driftstream.core.windows import assign_window, window_start
from driftstream.corroboration.clusters import EventCluster, form_clusters
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
    default_team,
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
        assert [(c.location, c.window.window_start) for c in clusters] == sorted(oracle)  # location, then window
        # every member satisfies the (location, window) predicate
        by_id = {p.post.id: p for p in posts}
        for cluster in clusters:
            for pid in cluster.post_ids:
                post = by_id[pid]
                assert cluster.location in post.locations
                assert cluster.window.window_start <= post.post.created_at < cluster.window.window_end

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

    def test_cluster_terms_are_one_frozenset(self):
        """A formed cluster holds its terms as one frozenset; so does a
        cluster whose terms were lowercased when it was built."""
        cluster, _ = _cluster()
        assert type(cluster.topic_terms) is frozenset
        mixed = EventCluster(id="c", location="sturgis", window=cluster.window, topic_terms={"Rally"})
        assert type(mixed.topic_terms) is frozenset

    @given(st.lists(
        st.tuples(
            st.integers(0, 5),  # id: shared across locations and windows
            st.sampled_from(("sturgis", "madrid", ("sturgis", "madrid"), ())),
            st.integers(0, 2 * 60),  # minutes after T0: up to three hourly windows
            st.sampled_from(("twitter", "reddit", "who.int")),
            st.sampled_from((0.0, 0.25, -0.5, 1.0, -0.1)),
            st.booleans(),  # misinformation-tagged
            st.integers(1, 2),  # copies of the post in the window's list
        ),
        max_size=30,
    ), st.integers(1, 3))
    @example([(0, "sturgis", 0, "twitter", 0.25, False, 2), (1, "sturgis", 1, "twitter", 0.0, False, 1),
              (1, "madrid", 2, "reddit", 1.0, False, 1)], 2)
    def test_features_equal_a_recount_of_each_group(self, specs, min_size):
        """Each cluster's size, channels and mean absolute sentiment are
        those of the posts of its (location, window) group, in list order:
        a post listed twice counts once in the size and twice in the mean,
        and a post elsewhere that shares a member's id counts not at all."""
        posts = []
        for post_id, location, minutes, channel, sentiment, misinfo, copies in specs:
            post = make_enriched(post_id=post_id, text="crowd gathering rally", created_at=T0 + minutes * 60,
                                 locations=[location] if isinstance(location, str) else list(location),
                                 misinfo_terms={"plandemic"} if misinfo else set(),
                                 sentiment=sentiment, channel=channel)
            posts += [post] * copies
        clusters = form_clusters(posts, window_length=HOUR, min_cluster_size=min_size)

        groups: dict = defaultdict(list)
        for post in posts:
            if not post.misinfo_terms:
                for location in post.locations:
                    groups[(location, window_start(post.post.created_at, HOUR))].append(post)
        expected = {
            key: (
                len({p.post.id for p in group}),
                len({p.post.channel for p in group}),
                sum(abs(p.sentiment) for p in group) / len(group),
            )
            for key, group in groups.items()
            if len({p.post.id for p in group}) >= min_size
        }
        assert {
            (c.location, c.window.window_start): (c.size, c.channels, c.mean_abs_sentiment) for c in clusters
        } == expected


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
        cluster, _ = _cluster()
        store = ClusterStore(rule=MatchRule(lag_tolerance=14 * DAY))
        store.add_cluster(cluster)
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
        old = cluster.status
        kinds = [store.evidence[ev_id].kind for ev_id in cluster.evidence_ids]
        cluster.net = kinds.count("supporting") - kinds.count("contradicting")
        new = cluster.status
        assert new == resolve_status(cluster, store.evidence)
        if new == old:
            continue
        changes.append(StatusChange(cluster_id, old, new, ev.id))
        outcome = 1 if ev.kind == "supporting" else -1
        classifier.update(classifier.member_votes(cluster), outcome)
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
        st.sampled_from((1.0, 0.3, 3.0, 25.0)),  # window length, hours
    ),
    max_size=25,
)
evidence_item = st.tuples(
    st.sampled_from(("supporting", "contradicting")),
    st.sampled_from(PLACES),
    st.integers(-24, 96) | st.floats(-30, 100),  # hours after T0
    st.sets(st.sampled_from(("rally", "virus", "crowd", "flood")), min_size=1, max_size=2),
)
evidence_specs = st.lists(evidence_item, max_size=20)
# no tolerance, a finite one, and one that never expires
lag_tolerances = st.sampled_from((0.0, DAY, 0.37 * DAY, math.inf))


def _spec_cluster(n, place, hours, terms, size, length):
    return EventCluster(
        id=f"c{n}", location=place, window=assign_window(T0 + hours * HOUR, length * HOUR),
        post_ids=set(range(size)), topic_terms=set(terms), channels=1, mean_abs_sentiment=0.5,
    )


def _spec_evidence(i, kind, place, hours, terms):
    return Evidence(id=f"ev-{i}", kind=kind, source="who.int", location=place,
                    time=T0 + hours * HOUR, terms=set(terms))


class TestLocationIndex:
    """ingest_evidence tries only the clusters at the evidence's location."""

    @given(cluster_specs, evidence_specs, lag_tolerances)
    def test_same_flips_and_weights_as_a_scan_of_every_cluster(self, clusters, evidence, lag):
        stores = []
        for _ in range(2):
            store = ClusterStore(rule=MatchRule(lag_tolerance=lag))
            for n, place, hours, terms, size, length in clusters:
                store.add_cluster(_spec_cluster(n, place, hours, terms, size, length))
            stores.append((store, default_team(("rally",), eta=0.5)))
        (indexed, team), (scanned, oracle_team) = stores
        for i, (kind, place, hours, terms) in enumerate(evidence):
            ev = _spec_evidence(i, kind, place, hours, terms)
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


class TestCandidates:
    """The store tries only the clusters whose window lies within the lag
    tolerance of the evidence's time, found by bisecting window starts."""

    @given(cluster_specs, evidence_specs, lag_tolerances)
    def test_candidates_hold_every_match_of_a_location_scan_in_id_order(self, clusters, evidence, lag):
        rule = MatchRule(lag_tolerance=lag)
        store = ClusterStore(rule=rule)
        for spec in clusters:
            store.add_cluster(_spec_cluster(*spec))

        def matched(cluster_ids, ev):
            # attach_evidence as the predicate, on a copy that keeps no attachment
            return [cid for cid in cluster_ids
                    if attach_evidence(replace(store.clusters[cid], evidence_ids=set()), ev, rule)]

        for i, spec in enumerate(evidence):
            ev = _spec_evidence(i, *spec)
            located = sorted(cid for cid, c in store.clusters.items() if c.location == ev.location)
            candidates = store._candidates(ev)
            assert candidates == sorted(candidates) and set(candidates) <= set(located)
            assert matched(candidates, ev) == matched(located, ev)
            if lag == math.inf:
                assert candidates == located

    @pytest.mark.parametrize("days", [2, 4, 8, 16])
    def test_attach_attempts_per_attachment_stay_bounded_as_the_stream_grows(self, days, monkeypatch):
        """At a one-day tolerance an item can match only the clusters of
        about two days, so attempts per attached item stay below a constant
        however long the stream runs. A scan of every cluster at the
        location makes 24 × days attempts per item, ~8 per attachment at 16
        days."""
        import driftstream.corroboration.evidence as evidence_module

        attempts = []

        def counting_attach(cluster, ev, rule=None):
            attempts.append(cluster.id)
            return attach_evidence(cluster, ev, rule)

        monkeypatch.setattr(evidence_module, "attach_evidence", counting_attach)
        store = ClusterStore(rule=MatchRule(lag_tolerance=DAY))
        for place in ("sturgis", "madrid"):
            for hour in range(24 * days):  # one hourly cluster per place, every hour
                store.add_cluster(_spec_cluster(f"{place}-{hour:04d}", place, hour, {"rally"}, 3, 1.0))
        for i, hour in enumerate(range(0, 24 * days, 6)):
            store.ingest_evidence(_spec_evidence(i, "supporting", ("sturgis", "madrid")[i % 2], hour + 0.5, {"rally"}))
        attached = sum(len(c.evidence_ids) for c in store.clusters.values())
        assert attached >= 4 * days * 24  # each item matches ~a day of clusters
        assert len(attempts) / attached < 1.1


class TestRepeatedEvidenceIds:
    @given(cluster_specs, st.lists(st.tuples(st.integers(0, 3), evidence_item), max_size=20))
    def test_status_is_resolved_from_the_stored_evidence(self, clusters, evidence):
        """Items reuse ids; a repeated id changes nothing, and every status
        stays what ``resolve_status`` gives over the store."""
        store = ClusterStore(rule=MatchRule(lag_tolerance=DAY))
        for spec in clusters:
            store.add_cluster(_spec_cluster(*spec))
        for n, (kind, place, hours, terms) in evidence:
            ev = _spec_evidence(n, kind, place, hours, terms)
            repeated = ev.id in store.evidence
            before = (store.export(), len(store.change_log))
            store.ingest_evidence(ev)
            if repeated:
                assert (store.export(), len(store.change_log)) == before
            for cluster in store.clusters.values():
                assert cluster.status == resolve_status(cluster, store.evidence)

    @given(st.lists(st.one_of(
        cluster_specs.map(lambda specs: ("add", specs)),
        st.tuples(st.integers(0, 3), evidence_item).map(lambda item: ("ingest", item)),
    ), max_size=30), lag_tolerances)
    def test_running_tally_gives_the_status_resolve_status_recounts(self, operations, lag):
        """Attaches, repeated ids and cluster replacements interleaved: the
        status read off the running tally every cluster holds is the one
        ``resolve_status`` recounts from the stored evidence."""
        store = ClusterStore(rule=MatchRule(lag_tolerance=lag))
        for operation, spec in operations:
            if operation == "add":
                for cluster_spec in spec:
                    store.add_cluster(_spec_cluster(*cluster_spec))
            else:
                n, (kind, place, hours, terms) = spec
                store.ingest_evidence(_spec_evidence(n, kind, place, hours, terms))
            for cluster in store.clusters.values():
                expected = resolve_status(cluster, store.evidence)
                assert cluster.status == expected

    def test_a_re_added_cluster_keeps_the_tally_of_its_attachments(self):
        """Storing the same cluster object again keeps both its attached ids
        and their tally, so later items go on from the recount."""
        store = ClusterStore(rule=MatchRule(lag_tolerance=14 * DAY))
        cluster, _ = _cluster()
        store.add_cluster(cluster)
        store.ingest_evidence(_evidence("ev-1", kind="supporting"))
        store.add_cluster(cluster)
        for ev_id, kind in (("ev-2", "contradicting"), ("ev-3", "contradicting"), ("ev-4", "supporting")):
            store.ingest_evidence(_evidence(ev_id, kind=kind))
            expected = resolve_status(cluster, store.evidence)
            assert cluster.status == expected
        assert [(c.evidence_id, c.new_status) for c in store.change_log] == [
            ("ev-1", "corroborated"), ("ev-2", "tentative"), ("ev-3", "refuted"), ("ev-4", "tentative"),
        ]


def _scored(size, channels, mean_abs_sentiment, terms):
    """A cluster holding the features the team scores."""
    return EventCluster(
        id="c", location="sturgis", window=assign_window(T0, HOUR), post_ids=set(range(size)),
        topic_terms=frozenset(terms), channels=channels, mean_abs_sentiment=mean_abs_sentiment,
    )


class TestTeamedClassifier:
    def test_single_member_full_vote(self):
        team = TeamedClassifier([Member("one", lambda f: 1.0)])
        assert team.predict(_cluster()[0]) == 1.0

    def test_two_members_half_weights(self):
        team = TeamedClassifier(
            [Member("zero", lambda f: 0.0), Member("one", lambda f: 1.0)]
        )
        assert team.predict(_cluster()[0]) == pytest.approx(0.5)

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
            assert team.predict(_cluster()[0]) == pytest.approx(expected)

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

    @pytest.mark.parametrize(
        "cluster, votes",
        [
            (_scored(5, 2, 0.3, {"bleach", "rally"}), [1.0, 0.5, 0.3, 2 / 3]),
            (_scored(30, 5, 1.4, {"rally"}), [0.0, 1.0, 1.0, 1.0]),
            (_scored(5, 5, 1.4, {"mask"}), [1.0, 0.5, 1.0, 1.0]),
            (_scored(30, 2, 0.3, ()), [0.0, 1.0, 0.3, 2 / 3]),
        ],
    )
    def test_default_team_votes(self, cluster, votes):
        """The run's team: seed presence (a seed counts once stripped and
        lowercased, a blank one never), size / 10, the mean absolute
        sentiment and channels / 3, each capped at 1."""
        team = default_team([" Bleach ", "MASK", "  "], eta=0.5)
        assert [member.id for member in team.members] == ["keywords", "size", "sentiment", "diversity"]
        assert team.member_votes(cluster) == votes

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

