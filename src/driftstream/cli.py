"""Command-line entry point.

Subcommands: run (full pipeline), synth (generate a corpus), replay (parse
an archive, optionally appending its posts to a durable log), report (stats
tables from an archive), keywords (active keyword set at a point in time),
clusters (inspect a run's cluster export). Exit codes: 0 success, 2
validation error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from collections import Counter
from pathlib import Path

# Only what `replay` runs is imported here: each other command imports its
# own modules, so a short replay job does not load the pipeline.
from .core.log import DurableLog, LogAppendError
from .core.records import encode_post_record
from .sources.archive import posts_from_archive

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

# Encoded body bytes per group commit in `replay --out`: one fsync acknowledges
# a batch, and the batch is all the replay holds in memory. At about 240 bytes
# a post, 1 MiB is some 4,300 records, so the parse and encode time of a batch
# dwarfs even a slow disk's fsync.
REPLAY_BATCH_BYTES = 1 << 20


def _load_config(path: str, flags: dict | None = None):
    """The pipeline config at ``path``, or None once each of its errors is
    printed on a line of its own."""
    from .pipeline.config import ConfigError, load_config

    try:
        return load_config(path, flags)
    except ConfigError as exc:
        for error in exc.errors:
            print(f"config error: {error}", file=sys.stderr)
        return None


def _cmd_run(args: argparse.Namespace) -> int:
    from .pipeline.runner import run_pipeline

    config = _load_config(args.config, {"out_dir": args.out_dir, "until": args.until})
    if config is None:
        return EXIT_VALIDATION
    try:
        result = run_pipeline(config)
    except Exception as exc:  # noqa: BLE001 - surface as runtime exit code
        print(f"pipeline failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    for (path, index), reason in result.misinfo_skipped.items():
        where = path if index is None else f"{path} term {index}"
        print(f"misinfo: skipped {where}: {reason}", file=sys.stderr)
    print(json.dumps(result.summary, indent=2, sort_keys=True))
    print(f"reports written to {result.out_dir}", file=sys.stderr)
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    from .pipeline.config import read_document
    from .sources.synthetic import SyntheticConfig, generate_synthetic

    try:
        config = SyntheticConfig.from_dict(read_document(Path(args.config)) or {})
    except (ValueError, TypeError) as exc:  # SyntheticConfigError is a ValueError
        print(f"synth config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        corpus = generate_synthetic(config, args.out)
    except OSError as exc:
        print(f"synth: --out: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(
        json.dumps(
            {
                "archive": str(corpus.archive_path),
                "truth": str(corpus.truth_path),
                **corpus.stats,
            },
            indent=2,
        )
    )
    return EXIT_OK


def _cmd_replay(args: argparse.Namespace) -> int:
    try:
        open(args.archive, "rb").close()  # before --out creates a log
    except OSError as exc:
        print(f"replay: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    log = None
    if args.out:
        try:
            log = DurableLog(args.out)
        except OSError as exc:
            print(f"replay: --out: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
    # Paced, the pause before a post is its event-time gap from the previous
    # post over the speed, and each record is committed before that pause: a
    # budget of one byte commits every record, as no body is empty.
    paced = args.speed != "max"
    budget = 1 if paced else REPLAY_BATCH_BYTES
    batch: list[bytes] = []
    batch_bytes = 0  # encoded body bytes in batch
    records = appended = 0  # posts read, records acked by the log
    previous = math.inf  # the event time of the post before; none before the first
    rejections: Counter = Counter()
    try:
        for post in posts_from_archive(args.archive, rejections):
            if paced and post.created_at > previous:
                time.sleep((post.created_at - previous) / args.speed)
            previous = post.created_at
            records += 1
            if log is None:
                continue
            body = encode_post_record(post, time.time())
            batch.append(body)
            batch_bytes += len(body)
            if batch_bytes >= budget:
                appended += len(log.append_many(batch))
                batch, batch_bytes = [], 0
        if log is not None:
            appended += len(log.append_many(batch))
    except LogAppendError as exc:
        print(f"replay failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"replay: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    finally:
        if log is not None:
            log.close()
    print(json.dumps({
        "records_in": records, "records_out": appended, "errors": 0,
        "rejections": dict(sorted(rejections.items())),
    }))
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    from .analytics.tables import TableCounts, emit_report
    from .enrich.clean import is_blank

    counts = TableCounts()
    try:
        for post in posts_from_archive(args.archive):
            if not is_blank(post):  # run discards these too
                counts.add(post)
        paths = emit_report(counts.as_tables(("month", "language")), [], args.out)
    except OSError as exc:
        print(f"report: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    for path in paths:
        print(path)
    return EXIT_OK


def _cmd_keywords(args: argparse.Namespace) -> int:
    from .keywords import DEFAULT_SEED_KEYWORDS, KeywordSet
    from .sources.feeds import feed_field, read_feed, text, timestamp
    from .timeutil import TimestampError, format_timestamp, parse_timestamp

    def promotion(obj: dict, number: int) -> tuple[str, float]:
        """One audit line: the promoted term and when it was promoted."""
        return feed_field(obj, "term", text), feed_field(obj, "promoted_at", timestamp)

    try:
        at = parse_timestamp(args.at) if args.at else None
    except TimestampError as exc:
        print(f"--at: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    seeds = DEFAULT_SEED_KEYWORDS
    if args.config:
        config = _load_config(args.config)
        if config is None:
            return EXIT_VALIDATION
        seeds = config.keywords.seeds
    entries = [
        {"term": t, "origin": "seed", "promoted_at": None} for t in sorted(KeywordSet(seeds).seeds)
    ]
    if args.audit:
        try:
            promotions = read_feed(args.audit, promotion)
        except (OSError, ValueError) as exc:  # FeedError is a ValueError
            print(f"--audit: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        entries.extend(
            {"term": term, "origin": "learned", "promoted_at": format_timestamp(promoted_at)}
            for term, promoted_at in promotions
            if at is None or promoted_at <= at
        )
    print(json.dumps(entries, indent=2))
    return EXIT_OK


def _cmd_clusters(args: argparse.Namespace) -> int:
    path = Path(args.report_dir) / "clusters.json"
    try:
        clusters = json.loads(path.read_bytes())
        if not isinstance(clusters, list) or not all(isinstance(c, dict) and "status" in c for c in clusters):
            raise ValueError("not a list of clusters, each with a status")
    except OSError:  # missing, a directory, or a name the OS refuses
        print(f"no cluster export at {path}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or not clusters
        print(f"{path}: not a cluster export: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.status:
        clusters = [c for c in clusters if c["status"] == args.status]
    print(json.dumps(clusters, indent=2, sort_keys=True))
    return EXIT_OK


def _speed_arg(value: str) -> float | str:
    """``replay --speed``: ``"max"``, or a positive multiple of event time."""
    if value == "max":
        return value
    try:
        speed = float(value)
    except ValueError:
        speed = 0.0
    if not speed > 0:  # also rejects NaN
        raise argparse.ArgumentTypeError(f"must be a positive number or 'max', got {value!r}")
    return speed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftstream",
        description="Live-knowledge pipeline over social post streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the full pipeline from a config file")
    run.add_argument("--config", required=True)
    run.add_argument("--out-dir")
    run.add_argument("--until", help="stop at this simulated time (ISO-8601)")
    run.set_defaults(func=_cmd_run)

    synth = sub.add_parser("synth", help="generate a synthetic corpus")
    synth.add_argument("--config", required=True)
    synth.add_argument("--out", required=True)
    synth.set_defaults(func=_cmd_synth)

    replay = sub.add_parser("replay", help="replay an archive, optionally into a durable log")
    replay.add_argument("--archive", required=True)
    replay.add_argument("--speed", type=_speed_arg, default="max")
    replay.add_argument("--out", help="durable log directory to append into")
    replay.set_defaults(func=_cmd_replay)

    report = sub.add_parser("report", help="stats tables from an archive")
    report.add_argument("--archive", required=True)
    report.add_argument("--out", required=True)
    report.set_defaults(func=_cmd_report)

    keywords = sub.add_parser("keywords", help="inspect the keyword set")
    keywords.add_argument("action", choices=["show"])
    keywords.add_argument("--at", help="simulated time cutoff (ISO-8601)")
    keywords.add_argument("--audit", help="promoted-keyword audit log (keywords.jsonl)")
    keywords.add_argument("--config")
    keywords.set_defaults(func=_cmd_keywords)

    clusters = sub.add_parser("clusters", help="inspect a run's cluster export")
    clusters.add_argument("report_dir")
    clusters.add_argument("--status", choices=["tentative", "corroborated", "refuted"])
    clusters.set_defaults(func=_cmd_clusters)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
