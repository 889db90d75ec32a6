"""Deterministic single-process pipeline runner.

The runner advances every stage in lockstep, record by record and window
by window, driven purely by event time. That makes two runs over the same
archive and config byte-identical — the property the report-bundle
determinism contract depends on. Every stage reads event time only: the
watermark is the largest event time seen so far, and no wall-clock value
ever reaches an output file.

Dataflow per record: parse -> one EnrichedPost (relevance, locations,
sentiment, topic groups, authoritative and misinformation tags) ->
minute-window report. A retweet of a relevant post inherits that post's
terms while the retweet-closure index (``store``, a RecentMatches) holds
them; the index drops expired entries on every watermark advance. It keeps
a post's id, expiry and terms as flat columns, about 24 bytes a post while
ids rise with time, so it holds a day of a high-rate stream cheaply.
A post's empty tags are shared immutables (see ``EnrichedPost``).
Each post's text is lowercased once on ingest and scanned once by
``TOKEN_RE``: the union of every substring lexicon (``Lexicons``) is read
off its tokens through a memo of the terms each token contains, plus one
``in`` for each term that is not a whole token, and every tag is read off
the terms present. The union is rebuilt, and the memo emptied, only when a
term set grows: a promotion, or a refresh that adds an active term. The
same tokens give the post's drift candidates, which the drift stage and
the clusters count without tokenizing the text again.
A window reports the misinformation set as it stands at its close: the set
only grows, so buffered posts are re-tagged only when a refresh adds an
active term, and a closing window reads the tags its posts hold, through
``window_tally`` (which ``window_report`` wraps) straight into its row.
Minute and cluster windows are buffered by window index ``t // length``
and close once the watermark's index passes theirs; each buffer keeps the
indexes it holds in a heap and pops its head while that is below the
watermark's index, so an advance that closes nothing costs one compare.
Tagged windows then feed the drift stage, cluster formation and the analytics
tables (``TableCounts``, which ``report`` feeds too). The drift stage owns the
one slide window: it counts each post once and, on every slide close,
runs keyword promotion and then piggyback detection. Evidence is applied
after stream exhaustion, in arrival order, with retroactive correction:
each item is tried only against the clusters at its location whose window
lies within its lag tolerance, and a flip is read off a running tally.
A count that a stage already records is read off that record, never kept
twice: the summary's ``tagged`` sums the ``windows.csv`` rows,
``promoted_terms`` is the length of the drift audit and ``status_changes``
that of the cluster store's change log.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from heapq import heappop, heappush
from pathlib import Path
from typing import Optional

from ..analytics.correlation import CorrelationResult, correlate_regions, daily_series
from ..analytics.tables import TableCounts, emit_report, write_csv, write_json, write_jsonl
from ..corroboration.clusters import cluster_features, form_clusters
from ..corroboration.evidence import ClusterStore, MatchRule, load_evidence_feed
from ..corroboration.team import default_team
from ..drift.adapter import DriftAdapter
from ..drift.promotion import PromotionPolicy
from ..enrich.clean import Lexicons, clean_post
from ..enrich.locations import Gazetteer, case_regions, load_case_reports
from ..enrich.model import EnrichedPost
from ..enrich.sentiment import DEFAULT_SENTIMENT_LEXICON
from ..enrich.topics import DEFAULT_GROUP_LEXICONS
from ..keywords import KeywordSet, RecentMatches
from ..misinfo.keywords import MisinfoKeywordSet, refresh_misinfo_keywords
from ..misinfo.tagging import AuthoritativeSourceList, top_terms, window_tally
from ..sources.archive import posts_from_archive
from ..sources.posts import Post
from ..timeutil import DAY
from .config import PipelineConfig


@dataclass
class RunResult:
    out_dir: Path
    summary: dict
    report_paths: list[Path] = field(default_factory=list)
    posts_per_sec: Optional[float] = None
    # as ``MisinfoKeywordSet.skipped``: reported by the CLI, kept out of the bundle
    misinfo_skipped: dict[tuple[str, Optional[int]], str] = field(default_factory=dict)


class WindowBuffers(dict):
    """Posts buffered by window index ``t // length``.

    The indexes held also sit in a heap: ``add`` pushes an index when it
    opens that window, a late post's included, and ``pop_ready`` pops while
    the head is below the watermark's index.
    """

    def __init__(self, length: float):
        super().__init__()
        self.length = length
        self._indexes: list[float] = []

    def add(self, event_time: float, post: EnrichedPost) -> None:
        index = event_time // self.length
        posts = self.get(index)
        if posts is not None:
            posts.append(post)
            return
        self[index] = [post]
        heappush(self._indexes, index)

    def pop_ready(self, upto: Optional[float]) -> list[list[EnrichedPost]]:
        """Remove the windows whose index is below that of ``upto`` (all of
        them when ``upto`` is None) and return their posts, oldest first."""
        current = math.inf if upto is None else upto // self.length
        indexes = self._indexes
        popped = []
        while indexes and indexes[0] < current:
            popped.append(self.pop(heappop(indexes)))
        return popped


class PipelineRunner:
    def __init__(self, config: PipelineConfig):
        self.config = config
        self.store = RecentMatches(config.keywords.retweet_ttl)
        self.keywords = KeywordSet(
            seeds=config.keywords.seeds, match_mode=config.keywords.match_mode
        )
        self.misinfo_set = MisinfoKeywordSet(
            seeds=config.misinfo.seeds, tombstones=config.misinfo.tombstones
        )
        self.drift = DriftAdapter(
            self.keywords,
            policy=PromotionPolicy(
                min_count=config.drift.min_count,
                min_score=config.drift.min_score,
                scorer=config.drift.scorer,
            )
            if config.drift.enabled
            else None,
            window_length=config.drift.window,
            slide=config.drift.slide,
            misinfo=self.misinfo_set,
            trending_k=config.drift.trending_k,
            piggyback_threshold=config.misinfo.piggyback_threshold,
        )
        self.authoritative = AuthoritativeSourceList(config.authoritative)
        # the case feed's (region, last_seen) entries, fixed once ``run`` reads it
        self.location_cache: tuple[tuple[str, float], ...] = ()
        self.lexicons = self._lexicons()
        self.team = default_team(config.keywords.seeds, eta=config.clusters.eta)
        self.cluster_store = ClusterStore(
            rule=MatchRule(lag_tolerance=config.clusters.lag_tolerance)
        )

        # streaming state
        self._minute_buffers = WindowBuffers(config.misinfo.window)
        self._cluster_buffers = WindowBuffers(config.clusters.window)
        self._watermark: Optional[float] = None
        self._next_refresh: Optional[float] = None

        # outputs
        self.window_rows: list[tuple] = []
        self.counters: Counter = Counter()
        self.rejections: Counter = Counter()
        self.table_counts = TableCounts()
        self.social_day_counts: dict[str, Counter] = defaultdict(Counter)  # region -> day epoch -> count
        self.case_day_counts: dict[str, Counter] = {}  # region -> day epoch -> new cases

    # -- per-record path ------------------------------------------------------

    def ingest_post(self, parsed: Post) -> None:
        self.counters["records_in"] += 1
        self._advance_watermark(parsed.created_at)
        enriched = clean_post(
            parsed, self.keywords, self.store, parsed.text.lower(),
            lexicons=self.lexicons, authoritative=self.authoritative,
        )
        if enriched is None:
            self.counters["discarded"] += 1
            return
        if enriched.relevance:
            self.counters["relevant"] += 1
            self.store.put(parsed.id, tuple(enriched.matched_terms), self._watermark)
        if enriched.authoritative:
            self.counters["authoritative"] += 1

        self._minute_buffers.add(parsed.created_at, enriched)

    def _lexicons(self) -> Lexicons:
        """The lexicons every post is tagged from, with the case regions held now."""
        enrichment = self.config.enrichment
        return Lexicons(
            self.keywords, Gazetteer(enrichment.gazetteer), self.location_cache, enrichment.location_cache_ttl,
            DEFAULT_SENTIMENT_LEXICON, DEFAULT_GROUP_LEXICONS, self.misinfo_set,
            self.config.keywords.tracked_phrases,
        )

    def _advance_watermark(self, event_time: float) -> None:
        if self._watermark is not None and event_time <= self._watermark:
            return
        self._watermark = event_time
        self.store.sweep(event_time)
        if self._next_refresh is None or event_time >= self._next_refresh:
            self._refresh_misinfo(event_time)
        self._flush_minute_windows(upto=event_time)
        self._flush_cluster_windows(upto=event_time)

    def _refresh_misinfo(self, now: float) -> None:
        misinfo = self.misinfo_set
        active = len(misinfo.active)
        added = refresh_misinfo_keywords(list(self.config.misinfo.sources), misinfo)
        self.counters["misinfo_terms_added"] += len(added)
        if len(misinfo.active) > active:  # the set only grows: re-tag what a close will report
            for posts in self._minute_buffers.values():
                for post in posts:
                    post.misinfo_terms = misinfo.match(post.post.text.lower())
        interval = self.config.misinfo.refresh_interval
        self._next_refresh = (now // interval + 1) * interval

    # -- windowed stages --------------------------------------------------------

    def _flush_minute_windows(self, upto: Optional[float]) -> None:
        for posts in self._minute_buffers.pop_ready(upto):
            start, tagged, term_counts = window_tally(posts, self.config.misinfo.window)
            top = ";".join(top_terms(term_counts)) if term_counts else ""
            self.window_rows.append((start, len(posts), tagged, top))
            for post in posts:
                self._route_tagged(post)

    def _route_tagged(self, enriched: EnrichedPost) -> None:
        created = enriched.post.created_at
        self.drift.observe(enriched)

        if enriched.relevance and enriched.locations and not enriched.misinfo_terms:
            self._cluster_buffers.add(created, enriched)

        self.table_counts.add(enriched.post, enriched.locations, enriched.topic_groups)
        if enriched.relevance and not enriched.misinfo_terms:
            day_epoch = (created // DAY) * DAY
            for location in enriched.locations:
                self.social_day_counts[location][day_epoch] += 1

    def _flush_cluster_windows(self, upto: Optional[float]) -> None:
        for posts in self._cluster_buffers.pop_ready(upto):
            clusters = form_clusters(
                posts,
                window_length=self.config.clusters.window,
                min_cluster_size=self.config.clusters.min_size,
            )
            for cluster in clusters:
                features = cluster_features(cluster, posts)
                cluster.team_score = self.team.predict(features)
                self.cluster_store.add_cluster(cluster, features)
            self.counters["clusters"] += len(clusters)

    # -- run ----------------------------------------------------------------------

    def run(self) -> RunResult:
        config = self.config
        started = time.monotonic()

        if config.case_feed:
            reports = load_case_reports(config.case_feed)
            for report in reports:
                if report.region:
                    self.counters["case_reports"] += 1
                    cases = self.case_day_counts.setdefault(report.region, Counter())
                    cases[(report.date // DAY) * DAY] += report.new_cases
            self.location_cache = case_regions(reports)
            self.lexicons = self._lexicons()

        for post in posts_from_archive(config.archive, self.rejections, config.speed):
            if config.until is not None and post.created_at > config.until:
                break
            self.ingest_post(post)

        # end of stream: close everything still buffered
        self._flush_minute_windows(upto=None)
        self.drift.flush()
        self._flush_cluster_windows(upto=None)

        if config.evidence_feed:
            for ev in load_evidence_feed(config.evidence_feed):
                self.cluster_store.ingest_evidence(ev, classifier=self.team)

        elapsed = time.monotonic() - started
        report_paths = self._write_reports()
        summary = self._summary()
        report_paths.append(write_json(Path(config.out_dir) / "summary.json", summary))
        posts_per_sec = (
            self.counters["records_in"] / elapsed if elapsed > 0 else None
        )
        return RunResult(
            Path(config.out_dir), summary, report_paths, posts_per_sec, self.misinfo_set.skipped
        )

    # -- reporting ------------------------------------------------------------------

    def _write_reports(self) -> list[Path]:
        out = Path(self.config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        changes = (
            (c.cluster_id, c.old_status, c.new_status, c.evidence_id)
            for c in self.cluster_store.change_log
        )
        return [
            write_csv(
                out / "windows.csv", ["window_start", "posts_in", "tagged", "top_terms"], self.window_rows
            ),
            write_json(out / "clusters.json", self.cluster_store.export()),
            write_csv(
                out / "changes.csv", ["cluster_id", "old_status", "new_status", "evidence_id"], changes
            ),
            write_jsonl(out / "keywords.jsonl", (event.to_json_obj() for event in self.drift.audit)),
            write_jsonl(out / "piggyback.jsonl", self.drift.piggyback),
            *emit_report(self.table_counts.as_tables(), self._correlation_results(), out),
        ]

    def _correlation_results(self) -> list[CorrelationResult]:
        if not self.case_day_counts:
            return []
        social = {
            region: daily_series(region, dict(counts))
            for region, counts in self.social_day_counts.items()
        }
        cases_series = {r: daily_series(r, dict(c)) for r, c in self.case_day_counts.items()}
        return correlate_regions(social, cases_series, max_lag=self.config.max_lag_days)

    def _summary(self) -> dict:
        # Deterministic by construction: counts and event-time values only.
        return {
            "records_in": self.counters.get("records_in", 0),
            "rejections": dict(sorted(self.rejections.items())),
            "discarded": self.counters.get("discarded", 0),
            "relevant": self.counters.get("relevant", 0),
            "authoritative": self.counters.get("authoritative", 0),
            "tagged": sum(row[2] for row in self.window_rows),
            "windows": len(self.window_rows),
            "clusters": self.counters.get("clusters", 0),
            "promoted_terms": len(self.drift.audit),
            "misinfo_terms_added": self.counters.get("misinfo_terms_added", 0),
            # a repeated evidence id changes nothing, so the store holds
            # exactly the items applied
            "evidence_applied": len(self.cluster_store.evidence),
            "status_changes": len(self.cluster_store.change_log),
            "case_reports": self.counters.get("case_reports", 0),
            "active_keywords": self.keywords.active_terms(),
        }


def run_pipeline(config: PipelineConfig) -> RunResult:
    runner = PipelineRunner(config)
    return runner.run()
