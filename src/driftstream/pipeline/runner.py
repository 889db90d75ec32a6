"""Deterministic single-process pipeline runner.

The runner advances every stage in lockstep, record by record and window
by window, driven purely by event time. That makes two runs over the same
archive, config, and seed byte-identical — the property the report-bundle
determinism contract depends on. Every stage reads event time only: the
watermark is the largest event time seen so far, and no wall-clock value
ever reaches an output file.

Dataflow per record: parse -> clean/relevance -> locations -> sentiment ->
topic groups -> authoritative tag -> minute-window misinformation tagging.
A retweet of a relevant post inherits that post's terms while the
retweet-closure index (``store``, a RecentMatches) holds them; the index
drops expired entries on every watermark advance.
Each post's text is lowercased once per post on ingest, and that one
lowered string feeds keyword matching, locations, sentiment and topic
groups; misinformation tagging lowercases each post once more when its
window closes. Lexicons are compiled once per change, not once per post.
Minute and cluster windows are buffered by window index ``t // length``
and close once the watermark's index passes theirs. Tagged windows then
feed the drift stage, cluster formation and the analytics tables
(``TableCounts``, which ``report`` feeds too). The drift stage owns the
one slide window: it counts each post once and, on every slide close,
runs keyword promotion and then piggyback detection. Evidence is applied
after stream exhaustion, in arrival order, with retroactive correction.
"""

from __future__ import annotations

import csv
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from ..analytics.correlation import CorrelationResult, correlate_regions, daily_series
from ..analytics.tables import TableCounts, emit_report
from ..corroboration.clusters import cluster_features, form_clusters
from ..corroboration.evidence import ClusterStore, MatchRule, load_evidence_feed
from ..corroboration.team import default_team
from ..drift.adapter import DriftAdapter
from ..drift.promotion import PromotionPolicy
from ..enrich.clean import clean_post
from ..enrich.locations import (
    Gazetteer,
    LocationCache,
    absorb_authoritative_locations,
    extract_locations,
    load_case_reports,
)
from ..enrich.model import EnrichedPost
from ..enrich.sentiment import (
    DEFAULT_SENTIMENT_LEXICON,
    compile_sentiment_lexicon,
    load_sentiment_lexicon,
    score_sentiment,
)
from ..enrich.topics import (
    DEFAULT_GROUP_LEXICONS,
    assign_topic_groups,
    compile_group_lexicons,
    load_group_lexicons,
)
from ..keywords import KeywordSet, RecentMatches
from ..misinfo.keywords import MisinfoKeywordSet, refresh_misinfo_keywords
from ..misinfo.tagging import AuthoritativeSourceList, tag_authoritative, tag_misinformation_window
from ..sources.archive import posts_from_archive
from ..sources.posts import Post
from ..timeutil import DAY
from .config import PipelineConfig


@dataclass
class RunResult:
    exit_code: int
    out_dir: Path
    summary: dict
    report_paths: list[Path] = field(default_factory=list)
    posts_per_sec: Optional[float] = None


def _pop_ready(
    buffers: dict[float, list[EnrichedPost]], length: float, upto: Optional[float]
) -> list[list[EnrichedPost]]:
    """Remove the buffered windows, keyed by window index ``t // length``,
    whose index is below that of ``upto`` (all of them when ``upto`` is
    None) and return their posts, oldest window first."""
    if not buffers:
        return []
    current = float("inf") if upto is None else upto // length
    ready = sorted(index for index in buffers if index < current)
    return [buffers.pop(index) for index in ready]


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
            tracked_phrases=config.keywords.tracked_phrases,
            misinfo=self.misinfo_set,
            trending_k=config.drift.trending_k,
            piggyback_threshold=config.misinfo.piggyback_threshold,
        )
        self.authoritative = AuthoritativeSourceList(config.authoritative)
        gaz_names = list(config.enrichment.gazetteer)
        if config.enrichment.gazetteer_file:
            gaz_names.extend(
                line.strip()
                for line in Path(config.enrichment.gazetteer_file).read_text().splitlines()
                if line.strip()
            )
        self.gazetteer = Gazetteer(gaz_names)
        self.location_cache = LocationCache(ttl=config.enrichment.location_cache_ttl)
        # Both lexicons are fixed for a run, so each is compiled here once.
        self.sentiment_lexicon = compile_sentiment_lexicon(
            load_sentiment_lexicon(config.enrichment.sentiment_lexicon_file)
            if config.enrichment.sentiment_lexicon_file
            else DEFAULT_SENTIMENT_LEXICON
        )
        self.group_lexicons = compile_group_lexicons(
            load_group_lexicons(config.enrichment.group_lexicons_file)
            if config.enrichment.group_lexicons_file
            else DEFAULT_GROUP_LEXICONS
        )
        self.team = default_team(config.keywords.seeds, eta=config.clusters.eta)
        self.cluster_store = ClusterStore(
            rule=MatchRule(lag_tolerance=config.clusters.lag_tolerance)
        )

        # streaming state; window buffers are keyed by window index t // length
        self._minute_buffers: dict[float, list[EnrichedPost]] = {}
        self._cluster_buffers: dict[float, list[EnrichedPost]] = {}
        self._watermark: Optional[float] = None
        self._next_refresh: Optional[float] = None

        # outputs
        self.window_rows: list[tuple] = []
        self.counters: Counter = Counter()
        self.rejections: Counter = Counter()
        self.table_counts = TableCounts()
        self.social_day_counts: dict[str, Counter] = {}  # region -> day epoch -> count
        self.case_day_counts: dict[str, Counter] = {}  # region -> day epoch -> new cases

    # -- per-record path ------------------------------------------------------

    def ingest_post(self, parsed: Post) -> None:
        self.counters["records_in"] += 1
        self._advance_watermark(parsed.created_at)
        lowered = parsed.text.lower()
        enriched = clean_post(parsed, self.keywords, self.store, lowered)
        if enriched is None:
            self.counters["discarded"] += 1
            return
        if enriched.relevance:
            self.counters["relevant"] += 1
            self.store.put(parsed.id, sorted(enriched.matched_terms), self._watermark)
        enriched.locations = extract_locations(
            lowered, self.gazetteer, self.location_cache, now=parsed.created_at
        )
        enriched.sentiment = score_sentiment(lowered, self.sentiment_lexicon)
        enriched.topic_groups = assign_topic_groups(lowered, self.group_lexicons)
        tag_authoritative(enriched, self.authoritative)
        if enriched.authoritative:
            self.counters["authoritative"] += 1

        index = parsed.created_at // self.config.misinfo.window
        self._minute_buffers.setdefault(index, []).append(enriched)

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
        added = refresh_misinfo_keywords(
            list(self.config.misinfo.sources), self.misinfo_set, now
        )
        self.counters["misinfo_terms_added"] += len(added)
        interval = self.config.misinfo.refresh_interval
        self._next_refresh = (now // interval + 1) * interval

    # -- windowed stages --------------------------------------------------------

    def _flush_minute_windows(self, upto: Optional[float]) -> None:
        length = self.config.misinfo.window
        for posts in _pop_ready(self._minute_buffers, length, upto):
            tagged_posts, report = tag_misinformation_window(
                posts, self.misinfo_set, window_length=length
            )
            self.window_rows.append(
                (
                    report.window.window_start,
                    report.posts_in,
                    report.tagged,
                    ";".join(report.top_terms()),
                )
            )
            self.counters["tagged"] += report.tagged
            for post in tagged_posts:
                self._route_tagged(post)

    def _route_tagged(self, enriched: EnrichedPost) -> None:
        created = enriched.post.created_at
        self.counters["promoted_terms"] += len(self.drift.observe(enriched))

        if enriched.relevance and enriched.locations and not enriched.misinfo_terms:
            index = created // self.config.clusters.window
            self._cluster_buffers.setdefault(index, []).append(enriched)

        self.table_counts.add(enriched.post, enriched.locations, enriched.topic_groups)
        if enriched.relevance and not enriched.misinfo_terms:
            day_epoch = (created // DAY) * DAY
            for location in enriched.locations:
                self.social_day_counts.setdefault(location, Counter())[day_epoch] += 1

    def _flush_cluster_windows(self, upto: Optional[float]) -> None:
        length = self.config.clusters.window
        for posts in _pop_ready(self._cluster_buffers, length, upto):
            clusters = form_clusters(
                posts,
                window_length=length,
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
            for report in load_case_reports(config.case_feed):
                if absorb_authoritative_locations(report, self.location_cache):
                    self.counters["case_reports"] += 1
                    cases = self.case_day_counts.setdefault(report.region, Counter())
                    cases[(report.date // DAY) * DAY] += report.new_cases
                else:
                    self.counters["case_reports_skipped"] += 1

        for post in posts_from_archive(config.archive, self.rejections, config.speed):
            if config.until is not None and post.created_at > config.until:
                break
            self.ingest_post(post)

        # end of stream: close everything still buffered
        self._flush_minute_windows(upto=None)
        self.counters["promoted_terms"] += len(self.drift.flush())
        self._flush_cluster_windows(upto=None)

        if config.evidence_feed:
            for ev in load_evidence_feed(config.evidence_feed):
                changes = self.cluster_store.ingest_evidence(ev, classifier=self.team)
                self.counters["evidence_applied"] += 1
                self.counters["status_changes"] += len(changes)

        elapsed = time.monotonic() - started
        report_paths = self._write_reports()
        summary = self._summary()
        summary_path = Path(config.out_dir) / "summary.json"
        summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        report_paths.append(summary_path)
        posts_per_sec = (
            self.counters["records_in"] / elapsed if elapsed > 0 else None
        )
        return RunResult(0, Path(config.out_dir), summary, report_paths, posts_per_sec)

    # -- reporting ------------------------------------------------------------------

    def _write_reports(self) -> list[Path]:
        out = Path(self.config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths: list[Path] = []

        windows_path = out / "windows.csv"
        with open(windows_path, "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(["window_start", "posts_in", "tagged", "top_terms"])
            for row in self.window_rows:
                writer.writerow(row)
        paths.append(windows_path)

        clusters_path = out / "clusters.json"
        clusters_path.write_text(
            json.dumps(self.cluster_store.export(), indent=2, sort_keys=True) + "\n"
        )
        paths.append(clusters_path)

        changes_path = out / "changes.csv"
        with open(changes_path, "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(["cluster_id", "old_status", "new_status", "evidence_id"])
            for change in self.cluster_store.change_log:
                writer.writerow(
                    [change.cluster_id, change.old_status, change.new_status, change.evidence_id]
                )
        paths.append(changes_path)

        audit_path = out / "keywords.jsonl"
        with open(audit_path, "w", encoding="utf-8") as f:
            for event in self.drift.audit:
                f.write(json.dumps(event.to_json_obj(), sort_keys=True) + "\n")
        paths.append(audit_path)

        piggyback_path = out / "piggyback.jsonl"
        with open(piggyback_path, "w", encoding="utf-8") as f:
            for row in self.drift.piggyback:
                f.write(json.dumps(row, sort_keys=True) + "\n")
        paths.append(piggyback_path)

        results = self._correlation_results()
        paths.extend(emit_report(self.table_counts.as_tables(), results, out))
        return paths

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
            "tagged": self.counters.get("tagged", 0),
            "windows": len(self.window_rows),
            "clusters": self.counters.get("clusters", 0),
            "promoted_terms": self.counters.get("promoted_terms", 0),
            "misinfo_terms_added": self.counters.get("misinfo_terms_added", 0),
            "evidence_applied": self.counters.get("evidence_applied", 0),
            "status_changes": self.counters.get("status_changes", 0),
            "case_reports": self.counters.get("case_reports", 0),
            "active_keywords": self.keywords.active_terms(),
        }


def run_pipeline(config: PipelineConfig) -> RunResult:
    runner = PipelineRunner(config)
    return runner.run()
