"""Config validation, the pipeline runner, and the CLI surface."""

from __future__ import annotations

import json
import os

import pytest
import yaml

from driftstream.cli import main
from driftstream.pipeline.config import ConfigError, load_config, parse_config
from driftstream.pipeline.runner import run_pipeline
from driftstream.sources.synthetic import (
    DriftTermSchedule,
    SyntheticConfig,
    generate_synthetic,
)
from driftstream.timeutil import format_timestamp, parse_timestamp

T0 = parse_timestamp("2020-03-01T00:00:00Z")

GAZETTEER = ["california", "new york", "hubei", "lombardy", "sturgis", "madrid"]


def _fixture_corpus(tmp_path, seed=2020, minutes=45, rate=60, drift=True):
    schedule = [DriftTermSchedule("facemask", 0, 1500, p_co=0.5)] if drift else []
    return generate_synthetic(
        SyntheticConfig(
            seed=seed,
            duration_minutes=minutes,
            base_rate_per_minute=rate,
            drift_schedule=schedule,
        ),
        tmp_path / f"corpus-{seed}",
    )


def _base_config(tmp_path, corpus, **overrides):
    data = {
        "seed": 1,
        "archive": str(corpus.archive_path),
        "out_dir": str(tmp_path / "reports"),
        "enrichment": {"gazetteer": GAZETTEER},
        "drift": {"min_count": 20, "slide_minutes": 5, "window_minutes": 15},
    }
    data.update(overrides)
    return data


class TestConfigValidation:
    def test_missing_archive_names_the_field(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config({"seed": 1, "archive": str(tmp_path / "ghost.jsonl")})
        assert any(e.startswith("archive:") for e in err.value.errors)

    def test_missing_seed_reported(self, tmp_path):
        archive = tmp_path / "a.jsonl"
        archive.write_text("")
        with pytest.raises(ConfigError) as err:
            parse_config({"archive": str(archive)})
        assert any(e.startswith("seed:") for e in err.value.errors)

    def test_multiple_errors_collected(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(
                {
                    "archive": str(tmp_path / "ghost.jsonl"),
                    "drift": {"scorer": "magic"},
                    "clusters": {"min_size": 0},
                }
            )
        fields = {e.split(":")[0] for e in err.value.errors}
        assert {"seed", "archive", "drift.scorer", "clusters.min_size"} <= fields

    def test_non_numeric_fields_named_with_exit_2(self, tmp_path, capsys):
        corpus = _fixture_corpus(tmp_path, minutes=5, rate=20)
        data = _base_config(
            tmp_path,
            corpus,
            keywords={"retweet_ttl_hours": "abc"},
            drift={"min_count": "abc", "window_minutes": "x", "trending_k": "2.5"},
            enrichment={"gazetteer": GAZETTEER, "location_cache_ttl_days": [7]},
            misinfo={"window_seconds": "q", "piggyback_threshold": "high"},
            clusters={"eta": "abc", "min_size": {"n": 3}},
            until=[1],
            max_lag_days="many",
        )
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert sorted(e.split(":")[0] for e in err.value.errors) == [
            "clusters.eta",
            "clusters.min_size",
            "drift.min_count",
            "drift.trending_k",
            "drift.window_minutes",
            "enrichment.location_cache_ttl_days",
            "keywords.retweet_ttl_hours",
            "max_lag_days",
            "misinfo.piggyback_threshold",
            "misinfo.window_seconds",
            "until",
        ]
        assert "drift.min_count: must be a number, got 'abc'" in err.value.errors

        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(data))
        assert main(["run", "--config", str(path)]) == 2
        stderr = capsys.readouterr().err
        assert "misinfo.window_seconds: must be a number, got 'q'" in stderr
        assert "keywords.retweet_ttl_hours" in stderr

    def test_integer_fields_reject_fractions_with_exit_2(self, tmp_path, capsys):
        corpus = _fixture_corpus(tmp_path, minutes=5, rate=20)
        integral = parse_config(
            _base_config(
                tmp_path,
                corpus,
                drift={"min_count": 3.0, "trending_k": "4"},
                clusters={"min_size": 3},
            )
        )
        assert (integral.drift.min_count, integral.drift.trending_k) == (3, 4)
        assert integral.clusters.min_size == 3
        assert all(
            type(v) is int
            for v in (integral.drift.min_count, integral.drift.trending_k, integral.clusters.min_size)
        )

        data = _base_config(
            tmp_path,
            corpus,
            drift={"min_count": 2.5, "trending_k": "2.5"},
            clusters={"min_size": 1.9},
        )
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert sorted(err.value.errors) == [
            "clusters.min_size: must be an integer, got 1.9",
            "drift.min_count: must be an integer, got 2.5",
            "drift.trending_k: must be an integer, got '2.5'",
        ]

        path = tmp_path / "fractional.yaml"
        path.write_text(yaml.safe_dump(data))
        assert main(["run", "--config", str(path)]) == 2
        stderr = capsys.readouterr().err
        assert "drift.min_count: must be an integer, got 2.5" in stderr
        assert "clusters.min_size: must be an integer, got 1.9" in stderr

    @pytest.mark.parametrize("hours", [0, -1, -0.5, "nan", float("nan")])
    def test_nonpositive_retweet_ttl_named_with_exit_2(self, tmp_path, capsys, hours):
        corpus = _fixture_corpus(tmp_path, minutes=5, rate=20)
        data = _base_config(tmp_path, corpus, keywords={"retweet_ttl_hours": hours})
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.errors == ["keywords.retweet_ttl_hours: must be > 0"]

        path = tmp_path / "ttl.yaml"
        path.write_text(yaml.safe_dump(data))
        assert main(["run", "--config", str(path)]) == 2
        assert "keywords.retweet_ttl_hours: must be > 0" in capsys.readouterr().err

    def test_legacy_topology_key_ignored(self, tmp_path):
        corpus = _fixture_corpus(tmp_path, minutes=5, rate=20)
        data = _base_config(tmp_path, corpus, topology=[{"name": "x", "kind": "quantum"}])
        assert parse_config(data) == parse_config(_base_config(tmp_path, corpus))

    def test_default_config_wires_every_stage(self, tmp_path):
        corpus = _fixture_corpus(tmp_path, minutes=5, rate=20)
        config = parse_config(_base_config(tmp_path, corpus))
        from driftstream.pipeline.runner import PipelineRunner

        runner = PipelineRunner(config)
        assert runner.drift is not None
        assert runner.misinfo_set is not None

    def test_env_override_wins(self, tmp_path, monkeypatch):
        corpus = _fixture_corpus(tmp_path, minutes=5, rate=20)
        monkeypatch.setenv("DRIFTSTREAM_SEED", "777")
        config = parse_config(_base_config(tmp_path, corpus))
        assert config.seed == 777

    def test_yaml_file_round_trip(self, tmp_path):
        corpus = _fixture_corpus(tmp_path, minutes=5, rate=20)
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(_base_config(tmp_path, corpus)))
        config = load_config(path)
        assert config.archive == str(corpus.archive_path)


class TestRunnerIntegration:
    def test_window_conservation_and_counts(self, tmp_path):
        corpus = _fixture_corpus(tmp_path, minutes=30, rate=50)
        config = parse_config(_base_config(tmp_path, corpus))
        result = run_pipeline(config)
        summary = result.summary
        assert summary["records_in"] == corpus.post_count
        # sum of per-minute posts_in equals the cleaned stream length exactly
        import csv

        with open(result.out_dir / "windows.csv") as f:
            rows = list(csv.DictReader(f))
        assert sum(int(r["posts_in"]) for r in rows) == summary["records_in"] - summary["discarded"]

    def test_tagged_sum_matches_brute_force_recount(self, tmp_path):
        # the misinfo set is static here (no sources), so the per-window
        # snapshots all equal the seed set and a whole-corpus recount is an
        # exact oracle for the summed window tallies
        from driftstream.misinfo.keywords import MisinfoKeywordSet
        from driftstream.sources.archive import posts_from_archive

        corpus = _fixture_corpus(tmp_path, minutes=30, rate=60)
        config = parse_config(_base_config(tmp_path, corpus))
        result = run_pipeline(config)

        terms = MisinfoKeywordSet().active_terms()
        authoritative = {"who.int", "cdc.gov", "jhu.edu", "nytimes.com", "cnn.com"}
        expected = 0
        for post in posts_from_archive(corpus.archive_path):
            lowered = post.text.lower()
            if any(t in lowered for t in terms) and post.channel not in authoritative:
                expected += 1
        assert result.summary["tagged"] == expected

    def test_two_runs_are_byte_identical(self, tmp_path):
        corpus = _fixture_corpus(tmp_path, minutes=20, rate=40)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        config_a = parse_config(_base_config(tmp_path, corpus, out_dir=str(out_a)))
        config_b = parse_config(_base_config(tmp_path, corpus, out_dir=str(out_b)))
        run_pipeline(config_a)
        run_pipeline(config_b)
        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted(p.name for p in out_b.iterdir())
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_drift_enabled_promotes_and_matches_solo_posts(self, tmp_path):
        corpus = _fixture_corpus(tmp_path, minutes=45, rate=60)
        config = parse_config(_base_config(tmp_path, corpus))
        result = run_pipeline(config)
        assert "facemask" in result.summary["active_keywords"]
        audit = [
            json.loads(line)
            for line in (result.out_dir / "keywords.jsonl").read_text().splitlines()
        ]
        assert any(e["term"] == "facemask" for e in audit)

    def test_drift_disabled_never_promotes(self, tmp_path):
        corpus = _fixture_corpus(tmp_path, minutes=30, rate=50)
        config = parse_config(
            _base_config(tmp_path, corpus, drift={"enabled": False})
        )
        result = run_pipeline(config)
        assert result.summary["promoted_terms"] == 0
        assert (result.out_dir / "keywords.jsonl").read_text() == ""

    def test_until_stops_the_stream_early(self, tmp_path):
        corpus = _fixture_corpus(tmp_path, minutes=30, rate=50)
        data = _base_config(tmp_path, corpus)
        data["until"] = T0 + 600  # first 10 simulated minutes only
        config = parse_config(data)
        result = run_pipeline(config)
        assert 0 < result.summary["records_in"] < corpus.post_count

    def test_sturgis_cluster_corroborated_by_late_evidence(self, tmp_path):
        archive = tmp_path / "sturgis.jsonl"
        lines = []
        for i in range(5):
            lines.append(
                json.dumps(
                    {
                        "created_at": format_timestamp(T0 + 120 * i),
                        "id": 100 + i,
                        "text": "coronavirus crowd gathering rally in Sturgis",
                        "lang": "en",
                    }
                )
            )
        # one late irrelevant post so the cluster window closes before EOF
        lines.append(
            json.dumps(
                {
                    "created_at": format_timestamp(T0 + 7200),
                    "id": 999,
                    "text": "quiet evening",
                    "lang": "en",
                }
            )
        )
        archive.write_text("\n".join(lines) + "\n")

        evidence = tmp_path / "evidence.jsonl"
        evidence.write_text(
            json.dumps(
                {
                    "id": "news-1",
                    "kind": "supporting",
                    "source": "nytimes.com",
                    "location": "sturgis",
                    "time": format_timestamp(T0 + 10 * 86400),
                    "terms": ["rally", "outbreak"],
                }
            )
            + "\n"
        )
        config = parse_config(
            {
                "seed": 1,
                "archive": str(archive),
                "out_dir": str(tmp_path / "reports"),
                "enrichment": {"gazetteer": GAZETTEER},
                "evidence_feed": str(evidence),
            }
        )
        result = run_pipeline(config)
        clusters = json.loads((result.out_dir / "clusters.json").read_text())
        assert len(clusters) == 1
        assert clusters[0]["location"] == "sturgis"
        assert clusters[0]["status"] == "corroborated"
        changes = (result.out_dir / "changes.csv").read_text().splitlines()
        assert changes[0] == "cluster_id,old_status,new_status,evidence_id"
        assert len(changes) == 2
        assert "tentative,corroborated,news-1" in changes[1]

    def test_correlation_report_written_with_case_feed(self, tmp_path):
        corpus = _fixture_corpus(tmp_path, minutes=30, rate=50)
        cases = tmp_path / "cases.jsonl"
        cases.write_text(
            "\n".join(
                json.dumps(
                    {
                        "date": f"2020-03-{d:02d}",
                        "region": "california",
                        "new_cases": 10 * d,
                        "source": "who.int",
                    }
                )
                for d in range(1, 8)
            )
            + "\n"
        )
        config = parse_config(
            _base_config(tmp_path, corpus, case_feed=str(cases))
        )
        result = run_pipeline(config)
        correlation = (result.out_dir / "correlation.jsonl").read_text().splitlines()
        assert correlation, "expected one result per overlapping region"
        first = json.loads(correlation[0])
        assert first["region"] == "california"
        # a half-hour of posts cannot support a 21-day lag scan
        assert first["undefined_reason"] == "insufficient_overlap"


    @pytest.mark.parametrize("spelling", ["New  York", "NEW\tYORK "])
    def test_case_feed_regions_keyed_like_post_locations(self, tmp_path, spelling):
        """A case feed spelling a region with extra whitespace or capitals
        still correlates with the posts that name it."""
        corpus = _fixture_corpus(tmp_path, minutes=30, rate=50)

        def correlation(name, region_spelling):
            cases = tmp_path / f"{name}.jsonl"
            cases.write_text("".join(
                json.dumps({"date": f"2020-03-{d:02d}", "region": region,
                            "new_cases": 10 * d + k, "source": "who.int"}) + "\n"
                for d in range(1, 8)
                for k, region in enumerate(("California", region_spelling, "hubei"))
            ))
            config = parse_config(_base_config(
                tmp_path, corpus, case_feed=str(cases), out_dir=str(tmp_path / name)
            ))
            return (run_pipeline(config).out_dir / "correlation.jsonl").read_text()

        tidy = correlation("tidy", "new york")
        regions = [json.loads(line)["region"] for line in tidy.splitlines()]
        assert "new york" in regions and len(regions) == 3
        assert correlation("spelled", spelling) == tidy

    @pytest.mark.parametrize("length", [0.1, 0.3, 1.1])
    def test_non_integral_windows_one_sorted_row_each(self, tmp_path, length):
        """Sorted posts with millisecond timestamps and a window length that
        is no whole number of seconds: every window is written once, in
        order, and the rows still count every kept post."""
        import csv
        import random
        from datetime import datetime, timezone

        rng = random.Random(5)
        archive = tmp_path / "archive.jsonl"
        with open(archive, "w", encoding="utf-8") as f:
            for i, ms in enumerate(sorted(rng.randrange(300_000) for _ in range(6000))):
                stamp = datetime.fromtimestamp(T0 + ms // 1000, tz=timezone.utc)
                f.write(json.dumps({
                    "id": i + 1,
                    "created_at": stamp.strftime("%Y-%m-%dT%H:%M:%S") + f".{ms % 1000:03d}Z",
                    "text": rng.choice(["coronavirus plandemic", "hello there", "virus news"]),
                    "lang": "en",
                }) + "\n")
        config = parse_config({
            "seed": 1,
            "archive": str(archive),
            "out_dir": str(tmp_path / "reports"),
            "misinfo": {"window_seconds": length},
        })
        result = run_pipeline(config)
        with open(result.out_dir / "windows.csv") as f:
            rows = list(csv.DictReader(f))
        starts = [float(r["window_start"]) for r in rows]
        assert len(set(starts)) == len(starts)
        assert starts == sorted(starts)
        summary = result.summary
        assert summary["windows"] == len(rows)
        assert sum(int(r["posts_in"]) for r in rows) == summary["records_in"] - summary["discarded"]


# (10-minute slide, posts, text) of the piggyback archive. Slides 2-3 and 6-7
# are empty; the misinfo-seed posts carry new terms and a tracked phrase.
PIGGYBACK_SLIDES = [
    (0, 8, "coronavirus update weather news"),
    (0, 2, "plandemic truth coronavirus"),
    (1, 8, "coronavirus update weather news"),
    (1, 2, "plandemic truth coronavirus"),
    (4, 6, "coronavirus update weather news"),
    (4, 4, "plandemic miraclecure, stay home now"),
    (5, 6, "covid lockdown weather"),
    (5, 3, "bioweapon miraclecure stay home"),
    (8, 6, "coronavirus update news"),
    (8, 4, "plandemic colloidal silver, stay home"),
    (9, 5, "coronavirus weather lockdown"),
    (9, 3, "bioweapon colloidal silver"),
    (10, 6, "pandemic masks weather"),
    (10, 3, "plandemic ivermectin stay home"),
    (11, 6, "pandemic masks weather news"),
    (11, 2, "plandemic ivermectin colloidal"),
    (12, 3, "coronavirus weather"),
]


def _piggyback_archive(path):
    """Write the piggyback archive: posts 20 s apart within each slide, plus
    one post that arrives two minutes late across a slide boundary."""
    lines = []
    for slide in sorted({s for s, _, _ in PIGGYBACK_SLIDES}):
        rows = [(n, text) for s, n, text in PIGGYBACK_SLIDES if s == slide]
        t = T0 + 600 * slide + 5
        for n, text in rows:
            for _ in range(n):
                lines.append({"created_at": t, "text": text})
                t += 20
    lines.insert(
        next(i for i, row in enumerate(lines) if row["created_at"] >= T0 + 600 * 9 + 60),
        {"created_at": T0 + 600 * 9 - 60, "text": "plandemic miraclecure late stay home"},
    )
    path.write_text(
        "".join(
            json.dumps(
                {"id": i + 1, "created_at": format_timestamp(row["created_at"]),
                 "text": row["text"], "lang": "en"}
            )
            + "\n"
            for i, row in enumerate(lines)
        )
    )
    return path


def _piggyback_config(tmp_path, enabled):
    return parse_config(
        {
            "seed": 1,
            "archive": str(_piggyback_archive(tmp_path / "piggyback.jsonl")),
            "out_dir": str(tmp_path / "reports"),
            "keywords": {"tracked_phrases": ["stay home"]},
            "drift": {"enabled": enabled, "min_count": 3, "window_minutes": 30, "slide_minutes": 10},
        }
    )


class TestRetweetClosure:
    def test_duplicate_id_reput_refreshes_and_irrelevant_copy_leaves_entry(self, tmp_path):
        """A relevant copy of an id replaces its terms, refreshes its expiry
        and moves it to the back; an irrelevant copy changes nothing."""
        from conftest import make_post

        from driftstream.pipeline.runner import PipelineRunner

        corpus = _fixture_corpus(tmp_path, minutes=5, rate=20)
        runner = PipelineRunner(parse_config(_base_config(tmp_path, corpus)))
        store = runner.store
        assert store.ttl == 24 * 3600.0

        def relevant(post_id, text, hours, retweet_of=None):
            before = runner.counters["relevant"]
            runner.ingest_post(make_post(post_id, text, T0 + hours * 3600.0, is_retweet_of=retweet_of))
            return runner.counters["relevant"] > before

        assert relevant(1, "pandemic news", 0)
        assert relevant(2, "so it begins", 1, retweet_of=1)
        assert not relevant(1, "nothing here", 12)
        assert store.get(1) == ["pandemic"] and list(store._entries) == [1, 2]
        assert relevant(1, "mask mandate", 20)
        assert store.get(1) == ["mask"] and list(store._entries) == [2, 1]
        # past the first put's TTL, inside the re-put's
        assert relevant(3, "so it begins", 30, retweet_of=1)
        assert store.get(3) == ["mask"]
        assert not relevant(4, "so it begins", 45, retweet_of=1)


class TestPiggybackOutput:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_piggyback_jsonl_matches_golden(self, tmp_path, enabled):
        from pathlib import Path

        result = run_pipeline(_piggyback_config(tmp_path, enabled))
        golden = Path(__file__).parent / "data" / "golden_piggyback.jsonl"
        assert (result.out_dir / "piggyback.jsonl").read_bytes() == golden.read_bytes()
        assert (result.summary["promoted_terms"] > 0) == enabled

    def test_tokenize_runs_once_per_observed_post(self, tmp_path, monkeypatch):
        import sys

        import driftstream.keywords
        from driftstream.drift.adapter import DriftAdapter

        calls = {"tokenize": 0, "observe": 0}
        original_tokenize = driftstream.keywords.tokenize
        original_observe = DriftAdapter.observe

        def tokenize(*args, **kwargs):
            calls["tokenize"] += 1
            return original_tokenize(*args, **kwargs)

        def observe(self, enriched):
            calls["observe"] += 1
            return original_observe(self, enriched)

        # bound by name in each module that uses it
        for name, module in list(sys.modules.items()):
            if name.startswith("driftstream") and getattr(module, "tokenize", None) is original_tokenize:
                monkeypatch.setattr(module, "tokenize", tokenize)
        monkeypatch.setattr(DriftAdapter, "observe", observe)

        # no gazetteer, so no cluster forms and tokenizes on its own
        result = run_pipeline(_piggyback_config(tmp_path, enabled=True))
        assert result.summary["clusters"] == 0
        assert calls["observe"] == result.summary["records_in"] > 0
        assert calls["tokenize"] == calls["observe"]


def _multiday_config(tmp_path):
    return parse_config(_multiday_data(tmp_path))


def _multiday_data(tmp_path):
    """Three sparse days shaped like a real archive: half the timestamps in
    the legacy format, one post two minutes late, drift terms, a misinfo
    terms feed, an evidence feed and a daily case feed."""
    import random
    from datetime import datetime, timezone

    rng = random.Random(1848)
    corpus = generate_synthetic(
        SyntheticConfig(
            seed=1848,
            duration_minutes=3 * 1440,
            base_rate_per_minute=0.6,
            region_pool=tuple(GAZETTEER),
            p_region=0.9,
            drift_schedule=[
                DriftTermSchedule("facemask", 0.25 * 86400, 1.0 * 86400, p_co=0.5),
                DriftTermSchedule("lockdowns", 1.5 * 86400, 2.25 * 86400, p_co=0.5),
            ],
        ),
        tmp_path / "raw",
    )
    records = [json.loads(line) for line in corpus.archive_path.read_text().splitlines()]
    records.insert(600, records.pop(400))  # arrives behind ~200 newer posts
    for record in records:
        if rng.random() < 0.5:
            epoch = parse_timestamp(record["created_at"])
            record["created_at"] = datetime.fromtimestamp(epoch, tz=timezone.utc).strftime(
                "%a %b %d %H:%M:%S +0000 %Y"
            )
    archive = tmp_path / "archive.jsonl"
    archive.write_text("".join(json.dumps(r) + "\n" for r in records))

    terms = ("corona", "virus", "pandemic", "hospital", "outbreak", "cases", "rally")
    with open(tmp_path / "evidence.jsonl", "w", encoding="utf-8") as f:
        for i in range(80):
            item = {
                "id": f"ev-{i:03d}",
                "kind": "supporting" if rng.random() < 0.7 else "contradicting",
                "source": "who.int",
                "location": rng.choice(GAZETTEER).title(),
                "time": format_timestamp(T0 + rng.uniform(0, 3 * 86400)),
                "terms": rng.sample(terms, k=2),
            }
            f.write(json.dumps(item) + "\n")
    with open(tmp_path / "cases.jsonl", "w", encoding="utf-8") as f:
        for day in range(3):
            for region in GAZETTEER:
                row = {"date": format_timestamp(T0 + day * 86400)[:10], "region": region.title(),
                       "new_cases": rng.randrange(10, 500), "source": "jhu.edu"}
                f.write(json.dumps(row) + "\n")
    (tmp_path / "misinfo_terms.json").write_text(json.dumps({"terms": ["5g towers", "microchip"]}))
    return {
        "seed": 1,
        "archive": str(archive),
        "out_dir": str(tmp_path / "bundle"),
        "enrichment": {"gazetteer": GAZETTEER},
        "drift": {"min_count": 5},
        "evidence_feed": str(tmp_path / "evidence.jsonl"),
        "case_feed": str(tmp_path / "cases.jsonl"),
        "max_lag_days": 1,
        "misinfo": {"sources": [{"kind": "terms_file", "path": str(tmp_path / "misinfo_terms.json")}]},
    }


class TestMultidayBundle:
    # sha256 over (file name, bytes) of every bundle file, from the code
    # that recomputed every window merge, trending history and evidence scan
    GOLDEN_SHA256 = "e9058b3ed16c370a7725bd34b950876ee96b08a8a67274d724f4fdd08c0be3a4"

    def test_bundle_matches_golden(self, tmp_path):
        import hashlib

        result = run_pipeline(_multiday_config(tmp_path))
        summary = result.summary
        assert summary["promoted_terms"] and summary["status_changes"] and summary["tagged"]
        assert (result.out_dir / "piggyback.jsonl").read_text()
        digest = hashlib.sha256()
        for path in sorted(result.out_dir.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
        assert digest.hexdigest() == self.GOLDEN_SHA256

    def test_bundle_does_not_depend_on_the_hash_seed(self, tmp_path):
        """Set iteration order changes with PYTHONHASHSEED, which one process
        cannot vary; ``driftstream run`` under two seeds, each in its own
        process, writes the same bytes to every bundle file."""
        import subprocess
        import sys
        from pathlib import Path

        import driftstream

        data = _multiday_data(tmp_path)
        src = str(Path(driftstream.__file__).parents[1])
        pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        bundles = []
        for hash_seed in ("0", "1"):
            out = tmp_path / f"bundle-{hash_seed}"
            config = tmp_path / f"run-{hash_seed}.yaml"
            config.write_text(yaml.safe_dump({**data, "out_dir": str(out)}))
            subprocess.run(
                [sys.executable, "-m", "driftstream.cli", "run", "--config", str(config)],
                env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": pythonpath},
                check=True,
                capture_output=True,
                timeout=300,
            )
            bundles.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert "clusters.json" in bundles[0]
        assert bundles[0] == bundles[1]

    def test_retweet_index_holds_exactly_the_live_puts(self, tmp_path):
        """After every post, the retweet index holds exactly the ids last put
        within one TTL of the watermark, in expiry order, none expired."""
        from driftstream.pipeline.runner import PipelineRunner

        runner = PipelineRunner(_multiday_config(tmp_path))
        store, ttl = runner.store, runner.config.keywords.retweet_ttl
        last_put = {}
        put, ingest = store.put, runner.ingest_post

        def recording_put(post_id, terms, now):
            last_put[post_id] = now
            put(post_id, terms, now)

        def checked_ingest(post):
            ingest(post)
            watermark = runner._watermark
            assert set(store._entries) == {i for i, t in last_put.items() if t + ttl > watermark}
            expiries = [expiry for expiry, _ in store._entries.values()]
            assert expiries == sorted(expiries)
            assert all(expiry > watermark for expiry in expiries)

        store.put = recording_put
        runner.ingest_post = checked_ingest
        runner.run()
        assert runner._watermark - min(last_put.values()) > 2 * ttl
        assert 0 < len(store) < len(last_put)
        # what the benchmark reads after a run: nothing expired is held
        held = len(store)
        assert store.sweep() == 0
        assert len(store) == held


class TestCli:
    def test_synth_then_run_exit_zero(self, tmp_path, capsys):
        synth_config = tmp_path / "synth.yaml"
        synth_config.write_text(
            yaml.safe_dump({"seed": 4, "duration_minutes": 10, "base_rate_per_minute": 30})
        )
        assert main(["synth", "--config", str(synth_config), "--out", str(tmp_path / "c")]) == 0
        run_config = tmp_path / "run.yaml"
        run_config.write_text(
            yaml.safe_dump(
                {
                    "seed": 5,
                    "archive": str(tmp_path / "c" / "archive.jsonl"),
                    "out_dir": str(tmp_path / "reports"),
                    "enrichment": {"gazetteer": GAZETTEER},
                }
            )
        )
        assert main(["run", "--config", str(run_config)]) == 0
        summary = json.loads((tmp_path / "reports" / "summary.json").read_text())
        assert summary["records_in"] > 0

    def test_run_with_bad_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.yaml"
        config.write_text(yaml.safe_dump({"archive": "/ghost.jsonl"}))
        assert main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "seed" in err and "archive" in err

    def test_replay_counts_records(self, tmp_path, capsys):
        corpus = _fixture_corpus(tmp_path, minutes=5, rate=30)
        assert main(["replay", "--archive", str(corpus.archive_path), "--speed", "max"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["records_in"] == corpus.post_count

    def test_replay_missing_archive_exits_2(self, tmp_path):
        assert main(["replay", "--archive", str(tmp_path / "ghost.jsonl")]) == 2
        out = tmp_path / "log"
        assert main(["replay", "--archive", str(tmp_path / "ghost.jsonl"), "--out", str(out)]) == 2
        assert not out.exists()

    def test_report_missing_archive_exits_2(self, tmp_path):
        ghost = str(tmp_path / "ghost.jsonl")
        assert main(["report", "--archive", ghost, "--out", str(tmp_path / "tables")]) == 2

    @pytest.mark.parametrize("command", ["run", "replay"])
    @pytest.mark.parametrize("speed", ["abc", "0", "-2"])
    def test_bad_speed_flag_exits_2(self, capsys, command, speed):
        required = {"run": ["--config", "c.yaml"], "replay": ["--archive", "a.jsonl"]}[command]
        with pytest.raises(SystemExit) as exit_info:
            main([command, *required, "--speed", speed])
        assert exit_info.value.code == 2
        assert "--speed" in capsys.readouterr().err

    def test_replay_out_round_trip(self, tmp_path, capsys):
        from driftstream.core.log import DurableLog
        from driftstream.sources.posts import Post, parse_post

        corpus = _fixture_corpus(tmp_path, minutes=3, rate=20)
        lines = corpus.archive_path.read_bytes().splitlines()
        lines[1:1] = [b"", b"{broken", b'{"id": 1, "text": "no timestamp"}']
        archive = tmp_path / "mixed.jsonl"
        archive.write_bytes(b"\n".join(lines) + b"\n")
        expected = [p for p in map(parse_post, lines) if isinstance(p, Post)]
        assert 0 < len(expected) == len(lines) - 3

        log_dir = tmp_path / "log"
        assert main(["replay", "--archive", str(archive), "--out", str(log_dir)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"records_in": len(expected), "records_out": len(expected), "errors": 0}
        with DurableLog(log_dir) as log:
            records = list(log.replay_from(0))
        assert [r.offset for r in records] == list(range(len(expected)))
        assert [r.payload for r in records] == [p.to_payload() for p in expected]
        assert [r.event_time for r in records] == [p.created_at for p in expected]

    def test_replay_out_naming_a_file_exits_2(self, tmp_path, capsys):
        corpus = _fixture_corpus(tmp_path, minutes=1, rate=5)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["replay", "--archive", str(corpus.archive_path), "--out", str(taken)]) == 2
        assert "--out" in capsys.readouterr().err

    def test_replay_append_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        from driftstream.core.log import DurableLog, LogAppendError

        def fail(self, record):
            raise LogAppendError("disk full")

        monkeypatch.setattr(DurableLog, "append", fail)
        corpus = _fixture_corpus(tmp_path, minutes=1, rate=5)
        out = str(tmp_path / "log")
        assert main(["replay", "--archive", str(corpus.archive_path), "--out", out]) == 3
        assert "disk full" in capsys.readouterr().err

    def test_report_command_writes_tables(self, tmp_path):
        corpus = _fixture_corpus(tmp_path, minutes=5, rate=30)
        out = tmp_path / "tables"
        assert main(["report", "--archive", str(corpus.archive_path), "--out", str(out)]) == 0
        assert (out / "month.csv").exists()
        assert (out / "languages.csv").exists()

    def test_report_and_run_write_the_same_tables(self, tmp_path):
        """``report`` and ``run`` count the same posts through the same
        accumulator, on the criterion fixture corpus and on an archive where
        half the posts are blank, so they write the same month and language
        tables."""
        from pathlib import Path

        data = yaml.safe_load((Path(__file__).parent / "data" / "synth_fixture.yaml").read_text())
        corpus = generate_synthetic(SyntheticConfig.from_dict(data), tmp_path / "corpus")
        blank = tmp_path / "blank.jsonl"
        blank.write_text("".join(
            json.dumps({"id": i, "text": "   " if i % 2 else "virus cases", "lang": "en",
                        "created_at": format_timestamp(T0 + 60 * i)}) + "\n"
            for i in range(10)
        ))
        for archive, discarded in ((corpus.archive_path, 0), (blank, 5)):
            tables, reports = tmp_path / archive.stem / "tables", tmp_path / archive.stem / "reports"
            assert main(["report", "--archive", str(archive), "--out", str(tables)]) == 0
            result = run_pipeline(parse_config(
                {**_base_config(tmp_path, corpus), "archive": str(archive), "out_dir": str(reports)}
            ))
            assert result.summary["discarded"] == discarded
            for name in ("month.csv", "languages.csv"):
                assert (tables / name).read_bytes() == (reports / name).read_bytes()

    def test_keywords_show_with_audit_respects_cutoff(self, tmp_path, capsys):
        audit = tmp_path / "keywords.jsonl"
        audit.write_text(
            json.dumps({"term": "facemask", "promoted_at": T0 + 600, "score": 0.8, "window": [T0, T0 + 600]})
            + "\n"
            + json.dumps({"term": "lockdown", "promoted_at": T0 + 6000, "score": 0.75, "window": [T0, T0 + 6000]})
            + "\n"
        )
        assert main(
            [
                "keywords",
                "show",
                "--audit",
                str(audit),
                "--at",
                format_timestamp(T0 + 1200),
            ]
        ) == 0
        entries = json.loads(capsys.readouterr().out)
        terms = {e["term"] for e in entries}
        assert "facemask" in terms
        assert "lockdown" not in terms

    def test_clusters_command_filters_by_status(self, tmp_path, capsys):
        report_dir = tmp_path / "reports"
        report_dir.mkdir()
        (report_dir / "clusters.json").write_text(
            json.dumps(
                [
                    {"id": "a", "status": "corroborated"},
                    {"id": "b", "status": "tentative"},
                ]
            )
        )
        assert main(["clusters", str(report_dir), "--status", "corroborated"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert [c["id"] for c in out] == ["a"]
