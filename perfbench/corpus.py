"""Seeded benchmark inputs: archives, feeds and pipeline configs per workload.

Posts come from the program's own generator (``generate_synthetic``); this
module only post-processes its archive into the shapes a real archive has
(legacy timestamps, late posts, malformed lines) and writes the evidence,
case and misinformation feeds. Everything is derived from the workload seed,
so one seed always yields byte-identical inputs.

Why each workload exists:

- ``firehose``: five dense minutes (3,400 posts per minute window), sorted ISO
  timestamps and no side feeds. Per-post parsing, keyword matching and
  enrichment dominate and every minute window is full. Corroboration, store expiry, late handling and the log do
  almost nothing, so it is the bypass side for optimisations of those.
- ``multiday``: two sparse days shaped like a real archive (legacy
  timestamps, 2% of posts up to 2 min late, planted malformed lines, two drift
  terms, an evidence feed checked against every cluster, a daily case feed).
  Windowed and corroboration work take a large share, and the span exceeds
  the 1-day retweet TTL, so unbounded state and late-event handling show here.
- ``replay_log``: ``driftstream replay --out`` into a fresh durable log and a
  read-back. The only workload on the log and the job layer: writes beside
  reads, with enrichment bypassed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from datetime import datetime, timezone
from pathlib import Path

START_TIME = "2020-03-01T00:00:00Z"
REGIONS = ("california", "new york", "hubei", "lombardy", "sturgis", "madrid")
LEGACY_FORMAT = "%a %b %d %H:%M:%S +0000 %Y"

# Workload shapes, sized so that one repetition takes about a second: close
# to the reference job timed on either side of it, and short against the
# seconds-long phases in which other tenants of a shared host slow a core. ``scale`` shrinks
# durations and feed sizes for smoke tests only; measurements use scale 1.
WORKLOADS = {
    "firehose": {
        "duration_minutes": 5.0,
        "rate_per_minute": 3400.0,
        "drift": [{"term": "facemask", "co_start": 0.0, "solo_start": 150.0, "p_co": 0.5}],
        "p_region": 0.35,
        "drift_min_count": 25,
        "p_legacy": 0.0,
        "p_late": 0.0,
        "p_malformed": 0.0,
        "evidence_items": 0,
        "case_feed": False,
        "misinfo_feed": False,
    },
    "multiday": {
        "duration_minutes": 2 * 1440.0,
        "rate_per_minute": 2.0,
        # Sparse, so most posts that are relevant name a place and each hour
        # still forms about one cluster per region; drift terms need fewer
        # co-occurrences per hour to be promoted.
        "p_region": 0.9,
        "drift_min_count": 10,
        "drift": [
            {"term": "facemask", "co_start": 0.25 * 86400, "solo_start": 0.75 * 86400, "p_co": 0.5},
            {"term": "lockdowns", "co_start": 1.0 * 86400, "solo_start": 1.5 * 86400, "p_co": 0.5},
        ],
        "p_legacy": 0.5,
        "p_late": 0.02,
        "max_late_s": 120.0,
        "p_malformed": 0.001,
        "evidence_items": 150,
        "case_feed": True,
        "misinfo_feed": True,
    },
    "replay_log": {
        "duration_minutes": 60.0,
        "rate_per_minute": 50.0,
        "drift": [],
        "p_region": 0.35,
        "drift_min_count": 25,
        "p_legacy": 0.5,
        "p_late": 0.0,
        "p_malformed": 0.001,
        "evidence_items": 0,
        "case_feed": False,
        "misinfo_feed": False,
    },
}

# One builder per rejection reason the parser reports; each yields a line
# that is rejected for exactly that reason.
MALFORMED = {
    "empty": lambda rng: b"",
    "bad_utf8": lambda rng: b'{"id": 7, "text": "\xff\xfe broken", "created_at": "2020-03-01T00:00:00Z"}',
    "bad_json": lambda rng: b'{"id": 7, "text": "truncated mid',
    "missing_field": lambda rng: json.dumps({"id": rng.randrange(10**9), "created_at": START_TIME}).encode(),
    "bad_id": lambda rng: json.dumps({"id": "x%d" % rng.randrange(1000), "text": "corona", "created_at": START_TIME}).encode(),
    "bad_timestamp": lambda rng: json.dumps({"id": rng.randrange(10**9), "text": "corona", "created_at": "yesterday"}).encode(),
}

EVIDENCE_TERMS = ("corona", "virus", "pandemic", "hospital", "outbreak", "cases", "flood", "election", "earthquake")
CORPUS_FORMAT = 2  # bump when the post-processing changes, to invalidate caches


def corpus_params(workload: str, seed: int, scale: float = 1.0) -> dict:
    params = dict(WORKLOADS[workload], workload=workload, seed=seed, scale=scale, format=CORPUS_FORMAT)
    params["duration_minutes"] = WORKLOADS[workload]["duration_minutes"] * scale
    params["evidence_items"] = int(round(WORKLOADS[workload]["evidence_items"] * scale))
    return params


def _legacy(epoch: float) -> str:
    return datetime.fromtimestamp(int(epoch), tz=timezone.utc).strftime(LEGACY_FORMAT)


def _epoch(iso: str) -> float:
    return datetime.fromisoformat(iso.replace("Z", "+00:00")).timestamp()


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def build_corpus(params: dict, out: Path) -> dict:
    """Write the archive, feeds and pipeline config for ``params`` into ``out``.

    Returns the manifest: parameters, planted rejections by reason, counts
    and the archive sha256.
    """
    from driftstream.sources.synthetic import DriftTermSchedule, SyntheticConfig, generate_synthetic

    out.mkdir(parents=True, exist_ok=True)
    seed = params["seed"]
    rng = random.Random(f"{params['workload']}:{seed}")
    raw_dir = out / "raw"
    corpus = generate_synthetic(
        SyntheticConfig(
            seed=seed,
            duration_minutes=params["duration_minutes"],
            base_rate_per_minute=params["rate_per_minute"],
            start_time=START_TIME,
            region_pool=REGIONS,
            p_region=params["p_region"],
            drift_schedule=[DriftTermSchedule(**d) for d in params["drift"]],
        ),
        raw_dir,
    )

    # Late posts: a displaced post keeps its timestamp but arrives after posts
    # up to ``max_late_s`` newer, so it lands behind the watermark.
    records = []
    with open(corpus.archive_path, "rb") as f:
        for line in f:
            obj = json.loads(line)
            epoch = _epoch(obj["created_at"])
            delay = rng.uniform(1.0, params["max_late_s"]) if rng.random() < params["p_late"] else 0.0
            records.append((epoch + delay, obj, epoch))
    late = sum(1 for arrival, _, epoch in records if arrival != epoch)
    records.sort(key=lambda r: r[0])

    planted: dict[str, int] = {}
    reasons = sorted(MALFORMED)
    legacy = 0
    lines: list[bytes] = []
    for _, obj, epoch in records:
        if rng.random() < params["p_legacy"]:
            obj["created_at"] = _legacy(epoch)
            legacy += 1
        lines.append(json.dumps(obj).encode())
        if rng.random() < params["p_malformed"]:
            reason = reasons[rng.randrange(len(reasons))]
            planted[reason] = planted.get(reason, 0) + 1
            lines.append(MALFORMED[reason](rng))
    archive = out / "archive.jsonl"
    archive.write_bytes(b"\n".join(lines) + b"\n")
    shutil.rmtree(raw_dir)

    start = _epoch(START_TIME)
    span = params["duration_minutes"] * 60.0
    config = {
        "seed": seed,
        "archive": "archive.jsonl",
        "out_dir": "bundle",
        "speed": "max",
        "enrichment": {"gazetteer": list(REGIONS)},
        "drift": {"min_count": params["drift_min_count"]},
    }
    if params["evidence_items"]:
        with open(out / "evidence.jsonl", "w", encoding="utf-8") as f:
            times = sorted(rng.uniform(start, start + span) for _ in range(params["evidence_items"]))
            for i, t in enumerate(times):
                item = {
                    "id": f"ev-{i:05d}",
                    "kind": "supporting" if rng.random() < 0.7 else "contradicting",
                    "source": rng.choice(("who.int", "cdc.gov", "jhu.edu")),
                    "location": rng.choice(REGIONS),
                    "time": datetime.fromtimestamp(int(t), tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
                    "terms": rng.sample(EVIDENCE_TERMS, k=2),
                }
                f.write(json.dumps(item) + "\n")
        config["evidence_feed"] = "evidence.jsonl"
    if params["case_feed"]:
        with open(out / "cases.jsonl", "w", encoding="utf-8") as f:
            for day in range(max(1, int(span // 86400))):
                date = datetime.fromtimestamp(start + day * 86400, tz=timezone.utc).strftime("%Y-%m-%d")
                for region in REGIONS:
                    row = {"date": date, "region": region.title(), "new_cases": rng.randrange(10, 500), "source": "jhu.edu"}
                    f.write(json.dumps(row) + "\n")
        config["case_feed"] = "cases.jsonl"
        config["max_lag_days"] = 1
    if params["misinfo_feed"]:
        (out / "misinfo_terms.json").write_text(json.dumps({"terms": ["5g towers", "microchip"]}))
        config["misinfo"] = {"sources": [{"kind": "terms_file", "path": "misinfo_terms.json"}]}
    (out / "pipeline.json").write_text(json.dumps(config, indent=2, sort_keys=True))

    return {
        "params": params,
        "posts": corpus.post_count,
        "lines": len(lines),
        "planted": dict(sorted(planted.items())),
        "late_displaced": late,
        "legacy_timestamps": legacy,
        "archive_sha256": sha256_file(archive),
    }


def ensure_corpus(cache_root: Path, workload: str, seed: int, scale: float = 1.0) -> tuple[Path, dict]:
    """The corpus directory for (workload, seed, scale), built once and cached."""
    params = corpus_params(workload, seed, scale)
    key = hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()[:12]
    final = cache_root / f"{workload}-{seed}-{key}"
    manifest_path = final / "manifest.json"
    if manifest_path.is_file():
        return final, json.loads(manifest_path.read_text())
    tmp = cache_root / f".tmp-{workload}-{seed}-{key}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    manifest = build_corpus(params, tmp)
    (tmp / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    shutil.rmtree(final, ignore_errors=True)
    os.replace(tmp, final)
    return final, manifest


def prune_cache(cache_root: Path, keep: Path, limit: int = 6) -> None:
    """Drop all but the ``limit`` most recently built corpora (never ``keep``)."""
    entries = sorted(
        (p for p in cache_root.iterdir() if p.is_dir() and p != keep),
        key=lambda p: p.stat().st_mtime,
        reverse=True,
    )
    for stale in entries[limit - 1:]:
        shutil.rmtree(stale, ignore_errors=True)
