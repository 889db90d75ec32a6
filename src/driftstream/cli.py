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
import sys
import time
from collections import Counter
from pathlib import Path

# Only what `replay` runs is imported here: each other command imports its
# own modules, so a short replay job does not load the pipeline.
from .core.log import DurableLog, LogAppendError
from .core.records import encode_post_record
from .sources.archive import Speed, parse_speed, posts_from_archive

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

# Records per group commit in `replay --out`: one fsync acknowledges a batch,
# and the batch is all the replay holds in memory.
REPLAY_BATCH = 256


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

    config = _load_config(args.config, {"out_dir": args.out_dir, "speed": args.speed, "until": args.until})
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
    corpus = generate_synthetic(config, args.out)
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
    # Paced, each record is committed before the pause ahead of the next post.
    limit = REPLAY_BATCH if args.speed == "max" else 1
    batch: list[bytes] = []
    records = appended = 0  # posts read, records acked by the log
    rejections: Counter = Counter()
    try:
        for post in posts_from_archive(args.archive, rejections, args.speed):
            records += 1
            if log is None:
                continue
            batch.append(encode_post_record(post, time.time()))
            if len(batch) == limit:
                appended += len(log.append_many(batch))
                batch = []
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
    except OSError as exc:
        print(f"report: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    paths = emit_report(counts.as_tables(("month", "language")), [], args.out)
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
    if not path.is_file():
        print(f"no cluster export at {path}", file=sys.stderr)
        return EXIT_VALIDATION
    clusters = json.loads(path.read_text())
    if args.status:
        clusters = [c for c in clusters if c["status"] == args.status]
    print(json.dumps(clusters, indent=2, sort_keys=True))
    return EXIT_OK


def _speed_arg(value: str) -> Speed:
    try:
        return parse_speed(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftstream",
        description="Live-knowledge pipeline over social post streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the full pipeline from a config file")
    run.add_argument("--config", required=True)
    run.add_argument("--out-dir")
    run.add_argument("--speed", type=_speed_arg)
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
