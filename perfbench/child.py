"""One measured repetition, run in a fresh process by ``run.py``.

Usage: ``python3 perfbench/child.py '<json spec>'`` with ``src`` on
``PYTHONPATH``. The spec names the workload kind (``pipeline`` or
``replay``), the corpus directory, a work directory, whether to trace, where
to write the traced spans, and whether to stop once set up.

Protocol on stdout: the line ``READY`` as soon as the program is set up (a
constructed ``PipelineRunner``, or the imported CLI for a replay), then one
JSON line with the results. Timings cover only calls into the program's
public entry points, with a fixed reference job timed right before and after
them; checks run after ``ru_maxrss`` is read, so they do not count towards
peak memory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import resource
import shutil
import sys
import time
from pathlib import Path

from tracer import Tracer, percentile


# A fixed job that uses none of the program: plain-Python JSON decoding, string
# scanning, regex tokenizing and dict counting, the operations the pipeline
# spends its time on. Timing it next to each measured call gives the speed of
# the core at that moment.
_REF_TOKEN = re.compile(r"[0-9a-z_]+")
_REF_TERMS = ("corona", "virus", "mask", "pandemic", "wuhan", "covid-19", "lockdown", "madrid")
_REF_LINES = [
    json.dumps({"id": i, "text": f"Corona virus update {i} in California: stay home, {i % 13} new cases",
                "created_at": "2020-03-01T00:00:00Z", "lang": "en"})
    for i in range(500)
]


def reference_s(sync_dir: Path | None = None, rounds: int = 20, syncs: int = 800) -> float:
    """Seconds the fixed reference job takes now, on this process's core.

    With ``sync_dir`` the job also makes ``syncs`` fsynced appends to a file
    there, so that it feels the disk as a replay into the durable log does.
    """
    started = time.perf_counter()
    counts: dict = {}
    for _ in range(rounds):
        for line in _REF_LINES:
            text = json.loads(line)["text"].lower()
            for term in _REF_TERMS:
                if term in text:
                    counts[term] = counts.get(term, 0) + 1
            for token in _REF_TOKEN.findall(text):
                counts[token] = counts.get(token, 0) + 1
    sorted(counts.items())
    if sync_dir is not None:
        path = sync_dir / "reference.bin"
        with open(path, "ab") as f:
            for _ in range(syncs):
                f.write(_REF_LINES[0].encode())
                f.flush()
                os.fsync(f.fileno())
        path.unlink()
    return time.perf_counter() - started


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ready() -> None:
    sys.stdout.write("READY\n")
    sys.stdout.flush()


# The parser's rejection reasons; each is reported, zero when none occurred.
REJECTION_REASONS = ("bad_id", "bad_json", "bad_timestamp", "bad_utf8", "empty", "missing_field")

# Per-layer values that only a pipeline run produces; a replay reports zero.
PIPELINE_ONLY = (
    "keywords.relevant_ratio", "keywords.active_terms", "misinfo.tagged_ratio",
    "enrich.location_cache_entries", "core.store_entries_end", "core.store_expired_held",
)

# -- tracing hooks -------------------------------------------------------------

# (module, attribute, metric name) for plain timed wraps, bound at every call
# site. Results that feed counts get their own callbacks in ``install_hooks``.
TIMED = [
    ("driftstream.keywords", "match_keywords", "keywords.match"),
    ("driftstream.keywords", "tokenize", "keywords.tokenize"),
    ("driftstream.enrich.clean", "clean_post", "enrich.clean"),
    ("driftstream.enrich.locations", "extract_locations", "enrich.locations"),
    ("driftstream.enrich.sentiment", "score_sentiment", "enrich.sentiment"),
    ("driftstream.enrich.topics", "assign_topic_groups", "enrich.topics"),
    ("driftstream.misinfo.tagging", "tag_misinformation_window", "misinfo.tag"),
    ("driftstream.misinfo.keywords", "refresh_misinfo_keywords", "misinfo.refresh"),
    ("driftstream.misinfo.piggyback", "observe_misinfo_cooccurrence", "misinfo.piggyback_observe"),
    ("driftstream.misinfo.piggyback", "detect_piggyback", "misinfo.piggyback_detect"),
    ("driftstream.drift.trending", "detect_trending", "misinfo.piggyback_trending"),
    ("driftstream.drift.adapter", "DriftAdapter.observe", "drift.observe"),
    ("driftstream.drift.cooccurrence", "CooccurrenceStats.merge", "drift.merge"),
    ("driftstream.corroboration.clusters", "cluster_features", "corroboration.features"),
    ("driftstream.corroboration.evidence", "resolve_status", "corroboration.resolve"),
    ("driftstream.analytics.tables", "emit_report", "analytics.emit"),
    ("driftstream.analytics.correlation", "correlate_regions", "analytics.correlate"),
    ("driftstream.core.store", "SharedStore.put", "core.store_put"),
    ("driftstream.core.log", "DurableLog.append", "core.log_append"),
    ("driftstream.pipeline.runner", "PipelineRunner._write_reports", "pipeline.report_write"),
]


def install_hooks(tracer: Tracer) -> None:
    import driftstream.cli  # noqa: F401 - loads every module whose names get wrapped
    import driftstream.pipeline.runner as runner_mod

    counts = tracer.counts
    for module, attr, name in TIMED:
        tracer.hook(module, attr, name)

    def parsed(result, args, start, duration):
        reason = getattr(result, "reason", None)
        if reason is not None:
            counts["sources.rejected." + reason] += 1

    tracer.hook("driftstream.sources.posts", "parse_post", "sources.parse", on_result=parsed)

    def store_get(result, args, start, duration):
        key = args[1] if len(args) > 1 else ""
        if result and isinstance(key, str) and key.startswith("match:"):
            counts["keywords.retweet_inherited"] += 1

    tracer.hook("driftstream.core.store", "SharedStore.get", "core.store_get", on_result=store_get)

    def promoted(result, args, start, duration):
        counts["drift.promotions"] += len(result)
        tracer.span("drift.promote", start, duration, promoted=len(result))

    tracer.hook("driftstream.drift.promotion", "promote_keywords", "drift.promote", on_result=promoted)

    def formed(result, args, start, duration):
        counts["corroboration.clusters"] += len(result)

    tracer.hook("driftstream.corroboration.clusters", "form_clusters", "corroboration.form", on_result=formed)

    def attached(result, args, start, duration):
        counts["corroboration.attach_matches"] += bool(result)

    tracer.hook("driftstream.corroboration.evidence", "attach_evidence", "corroboration.attach", on_result=attached)

    def evidence(result, args, start, duration):
        counts["corroboration.status_changes"] += len(result)
        tracer.span("corroboration.evidence", start, duration, evidence=args[1].id, changes=len(result))

    tracer.hook(
        "driftstream.corroboration.evidence", "ClusterStore.ingest_evidence", "corroboration.evidence",
        on_result=evidence,
    )
    tracer.hook("driftstream.core.log", "DurableLog.replay_from", "core.log_replay", generator=True)

    # ingest_post: self time, the stall of calls that close a window, and the
    # buffer depths sampled before each call that opens a new minute window.
    cls = getattr(runner_mod, "PipelineRunner", None)
    original = getattr(cls, "ingest_post", None)
    if original is None:
        tracer.missing.append("driftstream.pipeline.runner.PipelineRunner.ingest_post")
        return
    agg = tracer.aggregate("pipeline.ingest")
    enter, exit_ = tracer.enter, tracer.exit
    newest = [None]

    def ingest_post(self, post):
        window = self.config.misinfo.window
        index = post.created_at // window
        if newest[0] is None or index > newest[0]:
            newest[0] = index
            for attr, metric in (("_minute_buffers", "pipeline.minute_buffer_max"),
                                 ("_cluster_buffers", "pipeline.cluster_buffer_max")):
                depth = sum(len(v) for v in getattr(self, attr, {}).values())
                counts[metric] = max(counts[metric], depth)
        rows = len(self.window_rows)
        start = enter()
        try:
            original(self, post)
        finally:
            duration = exit_(agg, start)
        emitted = len(self.window_rows) - rows
        if emitted:
            tracer.span("pipeline.window_close", start, duration, rows=emitted)

    cls.ingest_post = ingest_post


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values from the tracer alone (bundle-derived ones are added by the caller)."""
    t, c = tracer, tracer.counts
    closes = [s["duration_s"] * 1000.0 for s in t.spans if s["name"] == "pipeline.window_close"]
    attempts = t.calls("corroboration.attach")
    metrics = {
        "sources.parse_calls": t.calls("sources.parse"),
        "sources.parse_s": t.self_s("sources.parse"),
        "keywords.match_calls": t.calls("keywords.match"),
        "keywords.match_s": t.self_s("keywords.match"),
        "keywords.tokenize_calls": t.calls("keywords.tokenize"),
        "keywords.tokenize_s": t.self_s("keywords.tokenize"),
        "keywords.retweet_inherited": c["keywords.retweet_inherited"],
        "enrich.clean_s": t.self_s("enrich.clean"),
        "enrich.locations_s": t.self_s("enrich.locations"),
        "enrich.sentiment_s": t.self_s("enrich.sentiment"),
        "enrich.topics_s": t.self_s("enrich.topics"),
        "misinfo.tag_windows": t.calls("misinfo.tag"),
        "misinfo.tag_s": t.self_s("misinfo.tag"),
        "misinfo.refresh_calls": t.calls("misinfo.refresh"),
        "misinfo.refresh_s": t.self_s("misinfo.refresh"),
        "misinfo.piggyback_s": sum(
            t.self_s(n) for n in ("misinfo.piggyback_observe", "misinfo.piggyback_detect", "misinfo.piggyback_trending")
        ),
        "drift.observe_calls": t.calls("drift.observe"),
        "drift.observe_s": t.self_s("drift.observe"),
        "drift.promote_calls": t.calls("drift.promote"),
        "drift.promote_s": t.self_s("drift.promote"),
        "drift.merge_calls": t.calls("drift.merge"),
        "drift.merge_s": t.self_s("drift.merge"),
        "drift.promotions": c["drift.promotions"],
        "corroboration.form_s": t.self_s("corroboration.form"),
        "corroboration.clusters": c["corroboration.clusters"],
        "corroboration.features_s": t.self_s("corroboration.features"),
        "corroboration.evidence_calls": t.calls("corroboration.evidence"),
        "corroboration.evidence_s": t.self_s("corroboration.evidence"),
        "corroboration.attach_attempts": attempts,
        "corroboration.attach_s": t.self_s("corroboration.attach"),
        "corroboration.attach_match_ratio": c["corroboration.attach_matches"] / attempts if attempts else 0.0,
        "corroboration.resolve_calls": t.calls("corroboration.resolve"),
        "corroboration.status_changes": c["corroboration.status_changes"],
        "analytics.emit_s": t.self_s("analytics.emit"),
        "analytics.correlate_s": t.self_s("analytics.correlate"),
        "core.store_puts": t.calls("core.store_put"),
        "core.store_gets": t.calls("core.store_get"),
        "core.store_s": t.self_s("core.store_put") + t.self_s("core.store_get"),
        "core.log_appends": t.calls("core.log_append"),
        "core.log_append_s": t.self_s("core.log_append"),
        "core.log_replay_records": t.calls("core.log_replay"),
        "core.log_replay_s": t.self_s("core.log_replay"),
        "pipeline.ingest_self_s": t.self_s("pipeline.ingest"),
        "pipeline.window_closes": len(closes),
        "pipeline.window_close_ms.p50": percentile(closes, 50),
        "pipeline.window_close_ms.p99": percentile(closes, 99),
        "pipeline.minute_buffer_max": c["pipeline.minute_buffer_max"],
        "pipeline.cluster_buffer_max": c["pipeline.cluster_buffer_max"],
        "pipeline.report_write_s": t.total_s("pipeline.report_write"),
    }
    for reason in REJECTION_REASONS:
        metrics["sources.rejected." + reason] = c["sources.rejected." + reason]
    return metrics


# -- workloads ---------------------------------------------------------------------


def run_pipeline_rep(spec: dict, tracer: Tracer | None) -> dict:
    from driftstream.pipeline.config import load_config
    from driftstream.pipeline.runner import PipelineRunner

    corpus = Path(spec["corpus"])
    out_dir = Path(spec["work"]) / "bundle"
    config = load_config(corpus / "pipeline.json")
    config.out_dir = str(out_dir)
    runner = PipelineRunner(config)
    _ready()
    ref_before = reference_s()
    if spec["setup_only"]:
        return {"reference_s": [ref_before]}
    if tracer is not None:
        install_hooks(tracer)

    started = time.perf_counter()
    result = runner.run()
    wall = time.perf_counter() - started
    peak = _maxrss_mb()
    ref_after = reference_s()

    summary = result.summary
    report = {"wall_s": wall, "reference_s": [ref_before, ref_after], "peak_rss_mb": peak,
              "summary": summary, "bundle": str(out_dir)}
    if tracer is not None:
        metrics = layer_metrics(tracer)
        records = summary["records_in"]
        kept = records - summary["discarded"]
        metrics["keywords.relevant_ratio"] = summary["relevant"] / records if records else 0.0
        metrics["keywords.active_terms"] = len(summary["active_keywords"])
        metrics["misinfo.tagged_ratio"] = summary["tagged"] / kept if kept else 0.0
        metrics["enrich.location_cache_entries"] = len(runner.location_cache)
        # Expired entries still held: sweep() is public and the run is over,
        # so sweeping now changes nothing the bundle shows.
        live = len(runner.store)
        expired = runner.store.sweep()
        metrics["core.store_entries_end"] = live + expired
        metrics["core.store_expired_held"] = expired
        metrics["core.log_bytes"] = 0
        report["metrics"] = metrics
    return report


def _expected_payloads(archive: Path) -> list[tuple[dict, float]]:
    """(payload, event time) of every valid archive line, computed without the program."""
    from datetime import datetime, timezone

    expected = []
    with open(archive, "rb") as f:
        for raw in f:
            try:
                obj = json.loads(raw.decode("utf-8"))
                stamp = obj["created_at"]
                if stamp.endswith("Z"):
                    when = datetime.fromisoformat(stamp[:-1] + "+00:00")
                else:
                    when = datetime.strptime(stamp, "%a %b %d %H:%M:%S %z %Y")
                payload = {
                    "id": int(obj["id"]),
                    "created_at": datetime.fromtimestamp(int(when.timestamp()), tz=timezone.utc).strftime(
                        "%Y-%m-%dT%H:%M:%SZ"
                    ),
                    "text": obj["text"],
                    "lang": obj.get("lang", "und"),
                    "channel": obj.get("channel", "twitter"),
                }
                if not payload["text"]:
                    continue
            except (UnicodeDecodeError, ValueError, KeyError, TypeError, AttributeError):
                continue  # a planted malformed line
            if obj.get("retweeted_id") is not None:
                payload["retweeted_id"] = int(obj["retweeted_id"])
            expected.append((payload, when.timestamp()))
    return expected


def _same(record, offset: int, expected: tuple[dict, float]) -> bool:
    payload, event_time = expected
    return record.offset == offset and record.payload == payload and record.event_time == event_time


def run_replay_rep(spec: dict, tracer: Tracer | None) -> dict:
    from driftstream.cli import main
    from driftstream.core.log import DurableLog

    corpus = Path(spec["corpus"])
    archive = corpus / "archive.jsonl"
    log_dir = Path(spec["work"]) / "log"
    shutil.rmtree(log_dir, ignore_errors=True)
    _ready()
    ref_before = reference_s(sync_dir=Path(spec["work"]))
    if spec["setup_only"]:
        return {"reference_s": [ref_before]}
    if tracer is not None:
        install_hooks(tracer)

    captured = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        code = main(["replay", "--archive", str(archive), "--speed", "max", "--out", str(log_dir)])
    wall = time.perf_counter() - started
    ref_after = reference_s(sync_dir=Path(spec["work"]))
    if code != 0:
        raise RuntimeError(f"replay exited with {code}")
    replay_out = json.loads(captured.getvalue().strip().splitlines()[-1])

    # Read-back: the whole log from offset 0, then seeded random offsets.
    log = DurableLog(log_dir)
    total = log.next_offset
    rng = random.Random(spec["seed"])
    offsets = sorted(rng.randrange(total) for _ in range(20)) if total else []
    chunk = 500
    read = 0
    started = time.perf_counter()
    for _ in log.replay_from(0):
        read += 1
    for offset in offsets:
        gen = log.replay_from(offset)
        for _, _record in zip(range(chunk), gen):
            read += 1
        gen.close()
    readback_wall = time.perf_counter() - started
    peak = _maxrss_mb()
    metrics = layer_metrics(tracer) if tracer is not None else None

    # Checks, after the timed part: every record equal to the archive, in order.
    expected = _expected_payloads(archive)
    digest = hashlib.sha256()
    mismatched = 0
    seen = 0
    for offset, record in enumerate(log.replay_from(0)):
        seen += 1
        line = json.dumps([record.offset, record.key, record.event_time, record.payload], sort_keys=True)
        digest.update(line.encode("utf-8") + b"\n")
        if offset >= len(expected) or not _same(record, offset, expected[offset]):
            mismatched += 1
    for offset in offsets:
        for i, record in zip(range(offset, offset + chunk), log.replay_from(offset)):
            if i >= len(expected) or not _same(record, i, expected[i]):
                mismatched += 1
    log.close()
    log_bytes = sum(p.stat().st_size for p in log_dir.iterdir() if p.is_file())

    report = {
        "wall_s": wall,
        "reference_s": [ref_before, ref_after],
        "readback_s": readback_wall,
        "readback_records": read,
        "peak_rss_mb": peak,
        "replay": replay_out,
        "expected_records": len(expected),
        "read_back_failed": mismatched + abs(len(expected) - seen),
        "digest": digest.hexdigest(),
    }
    if metrics is not None:
        metrics["core.log_bytes"] = log_bytes
        metrics.update(dict.fromkeys(PIPELINE_ONLY, 0))
        report["metrics"] = metrics
    shutil.rmtree(log_dir, ignore_errors=True)
    return report


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    tracer = Tracer() if spec["trace"] else None
    run = run_pipeline_rep if spec["kind"] == "pipeline" else run_replay_rep
    report = run(spec, tracer)
    if tracer is not None:
        report["missing_hooks"] = tracer.missing
        with open(spec["spans"], "w", encoding="utf-8") as f:
            for span in tracer.spans:
                f.write(json.dumps(span, sort_keys=True) + "\n")
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
