"""Config validation, the pipeline runner, and the CLI surface."""

from __future__ import annotations

import json
import math
import os

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

    def test_config_without_seed_loads(self, tmp_path):
        """``seed`` is no setting: a config may leave it out, and one that
        still sets it, to any value, loads the same config."""
        archive = tmp_path / "a.jsonl"
        archive.write_text("")
        config = parse_config({"archive": str(archive)})
        assert config.archive == str(archive)
        assert not hasattr(config, "seed")
        for seed in (1, "abc", None):
            assert parse_config({"seed": seed, "archive": str(archive)}) == config

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
        assert fields == {"archive", "drift.scorer", "clusters.min_size"}

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

    @pytest.mark.parametrize(
        "overrides, error",
        [
            ({"misinfo": {"refresh_interval_minutes": 0}}, "misinfo.refresh_interval_minutes: must be > 0"),
            ({"misinfo": {"refresh_interval_minutes": -5}}, "misinfo.refresh_interval_minutes: must be > 0"),
            ({"misinfo": {"refresh_interval_minutes": "nan"}}, "misinfo.refresh_interval_minutes: must be > 0"),
            ({"clusters": {"lag_tolerance_days": -1}}, "clusters.lag_tolerance_days: must be >= 0"),
            ({"clusters": {"lag_tolerance_days": "nan"}}, "clusters.lag_tolerance_days: must be >= 0"),
            (
                {"enrichment": {"gazetteer": GAZETTEER, "location_cache_ttl_days": -3}},
                "enrichment.location_cache_ttl_days: must be >= 0",
            ),
            ({"clusters": {"window_minutes": 0}}, "clusters.window_minutes: must be > 0"),
            ({"clusters": {"window_minutes": -5}}, "clusters.window_minutes: must be > 0"),
            ({"max_lag_days": -1}, "max_lag_days: must be >= 0"),
            ({"drift": {"trending_k": -1}}, "drift.trending_k: must be >= 0"),
            ({"drift": {"enabled": "false"}}, "drift.enabled: must be true or false, got 'false'"),
            pytest.param(
                {"clusters": {"eta": 10**400}}, f"clusters.eta: must be a number, got {10**400}", id="eta-10**400"
            ),
            ({"misinfo": {"window_seconds": math.inf}}, "misinfo.window_seconds: must be finite, got inf"),
            ({"clusters": {"window_minutes": math.inf}}, "clusters.window_minutes: must be finite, got inf"),
            (
                {"drift": {"window_minutes": math.inf, "slide_minutes": 5}},
                "drift: window_minutes must be a positive multiple of slide_minutes",
            ),
            (
                {"drift": {"window_minutes": 15, "slide_minutes": math.inf}},
                "drift: window_minutes must be a positive multiple of slide_minutes",
            ),
        ],
    )
    def test_out_of_range_intervals_named_with_exit_2(self, tmp_path, capsys, overrides, error):
        """A zero refresh interval divided by zero at run time (exit 3), a
        negative one re-read every source on every watermark advance, a
        negative lag tolerance matched no evidence, and a negative location
        cache TTL kept no case-feed region live. A zero cluster window
        divided by zero in setup (exit 3), a negative lag or trending count
        loaded without a word, drift.enabled: "false" left promotion on, and
        an integer beyond every float died with a traceback (exit 1). An
        infinite length (JSON's 1e400 loads as inf) passed `> 0`: a misinfo
        window exited 3 mid-stream, at a window starting at nan, and a
        cluster window exited 0 with no cluster; drift's multiple-of-slide
        check already refused an infinite window or slide. Each exits 2 by
        name, from a YAML and from a JSON config."""
        corpus = _fixture_corpus(tmp_path, minutes=5, rate=20)
        data = _base_config(tmp_path, corpus, **overrides)
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.errors == [error]

        def json_dump(data):  # inf written as a JSON number, which json.loads reads as inf
            return json.dumps(data).replace("Infinity", "1e400")

        for path, dump in ((tmp_path / "range.yaml", yaml.safe_dump), (tmp_path / "range.json", json_dump)):
            path.write_text(dump(data))
            assert main(["run", "--config", str(path)]) == 2
            assert error in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key",
        [
            ("misinfo", "window_seconds"),
            ("drift", "min_score"),
            ("misinfo", "piggyback_threshold"),
            ("clusters", "eta"),
            ("enrichment", "location_cache_ttl_days"),
            ("clusters", "window_minutes"),
        ],
    )
    def test_nan_named_with_exit_2(self, tmp_path, capsys, section, key):
        """JSON's NaN literal passed every `x <= 0` check: a NaN window index
        never closed, a NaN min_score promoted every term at min_count, a
        NaN piggyback threshold flagged nothing, a NaN location cache TTL
        kept no case-feed region live, and a NaN cluster window formed no
        cluster."""
        corpus = _fixture_corpus(tmp_path, minutes=5, rate=20)
        data = _base_config(tmp_path, corpus)
        data.setdefault(section, {})[key] = float("nan")
        error = f"{section}.{key}: must be {'>= 0' if key == 'location_cache_ttl_days' else '> 0'}"
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.errors == [error]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(data))
        assert "NaN" in path.read_text()
        assert main(["run", "--config", str(path)]) == 2
        assert error in capsys.readouterr().err

    @pytest.mark.parametrize(
        "until, error",
        [
            (True, "until: expected a timestamp, got True"),
            (float("nan"), "until: expected a finite timestamp, got nan"),
            (float("inf"), "until: expected a finite timestamp, got inf"),
            (-float("inf"), "until: expected a finite timestamp, got -inf"),
        ],
    )
    def test_until_must_be_a_finite_timestamp(self, tmp_path, capsys, until, error):
        """``until: true`` loaded as epoch 1.0 and the run kept no post; a
        YAML ``.nan`` was silently ignored."""
        corpus = _fixture_corpus(tmp_path, minutes=5, rate=20)
        data = _base_config(tmp_path, corpus, until=until)
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.errors == [error]
        path = tmp_path / "until.yaml"
        path.write_text(yaml.safe_dump(data))
        assert main(["run", "--config", str(path)]) == 2
        assert error in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", [0, -0.5])
    def test_nonpositive_piggyback_threshold_named(self, tmp_path, threshold):
        """Every score lies in [0, 1], so a threshold <= 0 flags every trending term."""
        corpus = _fixture_corpus(tmp_path, minutes=5, rate=20)
        with pytest.raises(ConfigError) as err:
            parse_config(_base_config(tmp_path, corpus, misinfo={"piggyback_threshold": threshold}))
        assert err.value.errors == ["misinfo.piggyback_threshold: must be > 0"]

    @pytest.mark.parametrize("key", ["seeds", "tracked_phrases"])
    @pytest.mark.parametrize("seed", ["新冠", "#ncov", "pandémie", "u.s.", "stay home!", "新冠 outbreak"])
    def test_token_mode_seed_that_no_token_equals_named_with_exit_2(self, tmp_path, capsys, key, seed):
        """Token mode matches ASCII ``TOKEN_RE`` tokens, so a seed with a word
        that is no whole token could never match: the config is refused,
        naming the seed. A tracked phrase is a term once drift promotes it,
        so it is refused alike. Substring mode matches both and takes them."""
        from driftstream.keywords import KeywordSet

        assert KeywordSet(seeds=(seed,), match_mode="token").match(f"{seed} update") == set()
        assert KeywordSet(seeds=(seed,)).match(f"{seed} update") == {seed}
        corpus = _fixture_corpus(tmp_path, minutes=5, rate=20)
        keywords = {"match_mode": "token", "seeds": ["corona", "COVID-19", "stay home"], "tracked_phrases": ["wash hands"]}
        keywords[key] = [*keywords[key], seed]
        data = _base_config(tmp_path, corpus, keywords=keywords)
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert len(err.value.errors) == 1 and err.value.errors[0].startswith(f"keywords.{key}: {seed!r} ")
        path = tmp_path / "token.yaml"
        path.write_text(yaml.safe_dump(data))
        assert main(["run", "--config", str(path)]) == 2
        assert f"keywords.{key}: {seed!r} never matches under match_mode token" in capsys.readouterr().err
        data["keywords"]["match_mode"] = "substring"
        assert seed in getattr(parse_config(data).keywords, key)

    def test_zero_lag_tolerance_and_fractional_refresh_accepted(self, tmp_path):
        corpus = _fixture_corpus(tmp_path, minutes=5, rate=20)
        config = parse_config(
            _base_config(
                tmp_path, corpus, misinfo={"refresh_interval_minutes": 0.5}, clusters={"lag_tolerance_days": 0}
            )
        )
        assert (config.misinfo.refresh_interval, config.clusters.lag_tolerance) == (30.0, 0.0)

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"keywords": {"seeds": "corona"}}, "keywords.seeds"),
            ({"keywords": {"seeds": ["corona", "  "]}}, "keywords.seeds"),
            ({"keywords": {"tracked_phrases": "stay home"}}, "keywords.tracked_phrases"),
            ({"keywords": {"tracked_phrases": ["stay home", " "]}}, "keywords.tracked_phrases"),
            ({"enrichment": {"gazetteer": "madrid"}}, "enrichment.gazetteer"),
            ({"misinfo": {"seeds": "plandemic"}}, "misinfo.seeds"),
            ({"misinfo": {"tombstones": [5]}}, "misinfo.tombstones"),
            ({"authoritative": "who.int"}, "authoritative"),
            (
                {"misinfo": {"sources": [{"kind": "headlines", "path": "doc.md", "sections": "conspiracy"}]}},
                "misinfo.sources[0].sections",
            ),
            ({"misinfo": {"sources": [{"kind": "bogus", "path": "doc.md"}]}}, "misinfo.sources[0].kind"),
            ({"misinfo": {"sources": {"kind": "headlines", "path": "doc.md"}}}, "misinfo.sources"),
            ({"misinfo": {"sources": ["doc.md"]}}, "misinfo.sources[0]"),
            ({"drift": ["enabled"]}, "drift"),
        ],
    )
    def test_list_fields_named_with_exit_2(self, tmp_path, capsys, overrides, field):
        """A scalar where a list of strings belongs is not split into
        characters, a blank or non-string item is not left to fail at run
        time, and a section that is not a mapping no longer dies with a
        traceback: each exits 2 naming the field."""
        corpus = _fixture_corpus(tmp_path, minutes=5, rate=20)
        (tmp_path / "doc.md").write_text("# Conspiracy\nPlandemic conspiracy\n")
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(_base_config(tmp_path, corpus, **overrides)))
        assert main(["run", "--config", str(path)]) == 2
        assert f"config error: {field}: must be " in capsys.readouterr().err

    def test_list_fields_accept_lists_of_strings(self, tmp_path):
        corpus = _fixture_corpus(tmp_path, minutes=5, rate=20)
        (tmp_path / "doc.md").write_text("# Rumours\nPlandemic conspiracy\nMicrochip vaccine rumor\n")
        source = {"kind": "headlines", "path": "doc.md", "sections": ["rumours"]}
        data = _base_config(tmp_path, corpus, misinfo={"sources": [source], "tombstones": ["plandemic"]})
        path = tmp_path / "good.yaml"
        path.write_text(yaml.safe_dump(data))
        config = load_config(path)
        assert config.enrichment.gazetteer == tuple(GAZETTEER)
        assert config.misinfo.sources[0]["sections"] == ("rumours",)
        # "plandemic" is a seed already, so only "microchip vaccine" is new
        assert run_pipeline(config).summary["misinfo_terms_added"] == 1

    def test_legacy_topology_key_ignored(self, tmp_path):
        corpus = _fixture_corpus(tmp_path, minutes=5, rate=20)
        data = _base_config(tmp_path, corpus, topology=[{"name": "x", "kind": "quantum"}])
        assert parse_config(data) == parse_config(_base_config(tmp_path, corpus))

    def test_retired_enrichment_file_keys_ignored(self, tmp_path):
        """``enrichment.gazetteer_file``, ``sentiment_lexicon_file`` and
        ``group_lexicons_file`` are retired: a config that sets them, to
        files that exist and parse, loads as one that does not."""
        corpus = _fixture_corpus(tmp_path, minutes=5, rate=20)
        (tmp_path / "places.txt").write_text("lisbon\n")
        (tmp_path / "sentiment.json").write_text(json.dumps({"grim": -0.9}))
        (tmp_path / "groups.json").write_text(json.dumps({"symptomatic": ["sneeze"]}))
        data = _base_config(tmp_path, corpus)
        data["enrichment"] = {
            **data["enrichment"],
            "gazetteer_file": str(tmp_path / "places.txt"),
            "sentiment_lexicon_file": str(tmp_path / "sentiment.json"),
            "group_lexicons_file": str(tmp_path / "groups.json"),
        }
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
        monkeypatch.setenv("DRIFTSTREAM_OUT_DIR", str(tmp_path / "from-env"))
        config = parse_config(_base_config(tmp_path, corpus))
        assert config.out_dir == str(tmp_path / "from-env")
        monkeypatch.setenv("DRIFTSTREAM_SEED", "777")  # no longer a setting: ignored
        assert parse_config(_base_config(tmp_path, corpus)) == config

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

        terms = list(MisinfoKeywordSet().active)
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


    def test_tracked_phrase_counted_and_promoted_lowercased(self, tmp_path):
        """Drift looks for a tracked phrase in the lowered post text, so the
        config normalizes it as ``KeywordSet`` does a seed: ``" Stay Home "``
        is counted and promoted as ``stay home``, in the bundle that the
        lowercase spelling writes."""
        texts = ["Corona: Stay Home now", "weather report today", "football scores",
                 "traffic jam downtown", "market prices", "music festival"]
        archive = tmp_path / "stay.jsonl"
        archive.write_text("".join(
            json.dumps({"id": i + 1, "created_at": format_timestamp(T0 + 20 * i), "text": texts[i % 6]}) + "\n"
            for i in range(180)
        ))
        bundles = []
        for phrase in (" Stay Home ", "stay home"):
            config = parse_config({
                "archive": str(archive),
                "out_dir": str(tmp_path / phrase.strip()),
                "keywords": {"tracked_phrases": [phrase]},
                "drift": {"min_count": 3, "window_minutes": 30, "slide_minutes": 10},
            })
            assert config.keywords.tracked_phrases == ("stay home",)
            out = run_pipeline(config).out_dir
            bundles.append({p.name: p.read_bytes() for p in out.iterdir()})
        promoted = [json.loads(line)["term"] for line in bundles[0]["keywords.jsonl"].splitlines()]
        assert "stay home" in promoted
        assert bundles[0] == bundles[1]


class TestWindowBuffers:
    def test_late_post_reopening_an_older_index_still_closes(self, tmp_path):
        """A late post opens a buffer below the lowest one held. That window
        closes at the next advance past it, not one window later, and the
        stream still writes one row per window, in order."""
        from conftest import make_post

        from driftstream.pipeline.runner import PipelineRunner

        corpus = _fixture_corpus(tmp_path, minutes=1, rate=5)
        runner = PipelineRunner(parse_config(_base_config(tmp_path, corpus)))

        def rows_after(post_id, seconds):
            runner.ingest_post(make_post(post_id, "virus news", T0 + seconds))
            return [(row[0] - T0, row[1]) for row in runner.window_rows]

        assert rows_after(1, 10) == []
        assert rows_after(2, 130) == [(0, 1)]
        assert rows_after(3, 70) == [(0, 1)]  # late, into window 60 (none held yet)
        assert min(runner._minute_buffers) == (T0 + 60) // 60
        assert rows_after(4, 140) == [(0, 1), (60, 1)]
        runner._flush_minute_windows(upto=None)
        assert [(row[0] - T0, row[1]) for row in runner.window_rows] == [(0, 1), (60, 1), (120, 2)]
        assert runner._minute_buffers == {}

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 60)), max_size=40))
    def test_pop_ready_equals_a_scan_of_every_buffer(self, ops):
        """Adds and flushes in any order, late adds included: every flush
        returns what a scan of all buffered indexes would."""
        from driftstream.pipeline.runner import WindowBuffers

        buffers, scanned = WindowBuffers(7.0), {}
        for flush, t in ops:
            if flush:
                ready = sorted(index for index in scanned if index < t // 7.0)
                assert buffers.pop_ready(t) == [scanned.pop(index) for index in ready]
            else:
                buffers.add(t, t)
                scanned.setdefault(t // 7.0, []).append(t)
            assert buffers == scanned
        assert buffers.pop_ready(None) == [scanned[index] for index in sorted(scanned)]
        assert buffers.pop_ready(None) == []


ROW_TERMS = ["bleach", "hoax", "microchip", "plandemic", "5g towers", "bioweapon", "chlorine"]


class TestWindowRows:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 150),  # event time after T0, in any order
                st.sets(st.sampled_from(ROW_TERMS), max_size=5),  # the misinformation tags held
                st.booleans(),  # from an authoritative source
            ),
            max_size=40,
        ),
        st.sampled_from([30.0, 60.0]),
    )
    @example([(i % 3, set(ROW_TERMS[i:i + 3]), i == 4) for i in range(7)], 60.0)  # tied counts, 7 terms
    def test_runner_rows_equal_window_report(self, posts, window):
        """Every windows.csv row the runner writes equals ``window_report``
        on the same window's posts: tagged, authoritative-tagged and
        untagged posts, tied term counts and more than five terms."""
        from conftest import make_enriched

        from driftstream.misinfo.tagging import top_terms, window_report
        from driftstream.pipeline.config import MisinfoConfig, PipelineConfig
        from driftstream.pipeline.runner import PipelineRunner

        runner = PipelineRunner(PipelineConfig(archive="unused.jsonl", misinfo=MisinfoConfig(window=window)))
        windows: dict[float, list] = {}
        for i, (t, terms, official) in enumerate(posts):
            post = make_enriched(post_id=i, created_at=T0 + t, misinfo_terms=set(terms))
            post.authoritative = official
            runner._minute_buffers.add(post.post.created_at, post)
            windows.setdefault(post.post.created_at // window, []).append(post)
        runner._flush_minute_windows(upto=None)

        expected = []
        for index in sorted(windows):
            report = window_report(windows[index], window)
            expected.append(
                (report.window.window_start, report.posts_in, report.tagged, ";".join(top_terms(report.term_counts)))
            )
        assert runner.window_rows == expected
        assert runner._summary()["tagged"] == sum(row[2] for row in expected)


MISINFO_TERMS = ["bleach", "5g towers", "microchip", "plandemic", "hoax"]
MISINFO_PIECES = MISINFO_TERMS + ["BLEACH", "5G Towers", "virus", "news", " ", "  "]


class TestIngestTagging:
    """Each post is tagged once, at ingest, against the live misinformation
    set, and re-tagged while buffered whenever a refresh adds an active
    term. Every window must still report what tagging its posts at close,
    against the set as it then stood, gives."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 300),  # event time after T0: any order, so late posts too
                st.lists(st.sampled_from(MISINFO_PIECES), max_size=4).map(" ".join),
                st.booleans(),  # from an authoritative channel
                st.none() | st.lists(st.sampled_from(MISINFO_TERMS), max_size=3),  # terms file rewrite
            ),
            max_size=30,
        ),
        st.sampled_from([15.0, 30.0, 45.0, 60.0, 90.0]),
        st.sampled_from([30.0, 60.0]),
    )
    def test_windows_equal_tagging_at_close(self, events, refresh_interval, window):
        import tempfile
        from pathlib import Path

        from driftstream.pipeline.config import MisinfoConfig, PipelineConfig
        from driftstream.pipeline.runner import PipelineRunner
        from driftstream.sources.posts import Post

        with tempfile.TemporaryDirectory() as tmp:
            terms = Path(tmp) / "terms.json"
            terms.write_text(json.dumps({"terms": []}))
            config = PipelineConfig(
                archive=str(Path(tmp) / "unused.jsonl"),
                misinfo=MisinfoConfig(
                    seeds=("plandemic",),
                    sources=({"kind": "terms_file", "path": str(terms)},),
                    refresh_interval=refresh_interval,
                    window=window,
                    tombstones=("microchip",),
                ),
            )
            runner = PipelineRunner(config)
            closes, routed = [], []
            pop_ready, route = runner._minute_buffers.pop_ready, runner._route_tagged

            def spy_pop_ready(upto):
                popped = pop_ready(upto)
                closes.extend((posts, frozenset(runner.misinfo_set.active)) for posts in popped)
                return popped

            def spy_route(post):
                routed.append((post, frozenset(post.misinfo_terms)))
                route(post)

            runner._minute_buffers.pop_ready = spy_pop_ready
            runner._route_tagged = spy_route
            for i, (t, text, official, rewrite) in enumerate(events):
                if rewrite is not None:
                    terms.write_text(json.dumps({"terms": rewrite}))
                channel = "who.int" if official else "twitter"
                runner.ingest_post(Post(id=i, created_at=T0 + t, text=text, channel=channel))
            runner._flush_minute_windows(upto=None)

        expected_rows, expected_routed = [], []
        for posts, snapshot in closes:
            tagged, counts = 0, {}
            for post in posts:
                hits = frozenset(term for term in snapshot if term in post.post.text.lower())
                expected_routed.append((post, hits))
                if hits and post.post.channel != "who.int":
                    tagged += 1
                    for term in hits:
                        counts[term] = counts.get(term, 0) + 1
            top = sorted(counts, key=lambda term: (-counts[term], term))[:5]
            start = (posts[0].post.created_at // window) * window
            expected_rows.append((start, len(posts), tagged, ";".join(top)))
        assert runner.window_rows == expected_rows
        assert routed == expected_routed
        assert "microchip" not in runner.misinfo_set.active


class TestSideFeeds:
    def _one_post_config(self, tmp_path, **feeds):
        archive = tmp_path / "archive.jsonl"
        archive.write_text(json.dumps(
            {"id": 1, "created_at": format_timestamp(T0), "text": "virus in madrid", "lang": "en"}
        ) + "\n")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "seed": 1, "archive": str(archive), "out_dir": str(tmp_path / "reports"),
            "enrichment": {"gazetteer": GAZETTEER}, **feeds,
        }))
        return config

    def test_repeated_evidence_id_is_applied_once(self, tmp_path):
        item = {"id": "ev-1", "kind": "supporting", "source": "who.int", "location": "madrid",
                "time": format_timestamp(T0), "terms": ["virus"]}
        feed = tmp_path / "evidence.jsonl"
        feed.write_text((json.dumps(item) + "\n") * 2)
        config = self._one_post_config(tmp_path, evidence_feed=str(feed))
        assert main(["run", "--config", str(config)]) == 0
        summary = json.loads((tmp_path / "reports" / "summary.json").read_text())
        assert summary["evidence_applied"] == 1

    @pytest.mark.parametrize(
        "feed, line, field",
        [
            ("case_feed", {"date": "2020-03-02", "region": 5, "new_cases": 3}, "region"),
            ("case_feed", {"date": "2020-03-02", "region": "madrid", "new_cases": "many"}, "new_cases"),
            ("case_feed", {"date": "2020-03-02", "region": "madrid", "new_cases": -2}, "new_cases"),
            ("evidence_feed", {"id": "ev-2", "source": "who.int", "location": "madrid",
                               "time": "2020-03-02T00:00:00Z", "terms": ["virus"]}, "kind"),
            # a NaN time lay within every lag tolerance, and so corroborated any cluster
            ("evidence_feed", {"id": "ev-2", "kind": "supporting", "source": "who.int", "location": "madrid",
                               "time": float("nan"), "terms": ["virus"]}, "time"),
            ("evidence_feed", {"id": "ev-2", "kind": "supporting", "source": "who.int", "location": "madrid",
                               "time": T0, "arrived_at": float("inf"), "terms": ["virus"]}, "arrived_at"),
        ],
    )
    def test_malformed_line_names_file_line_and_field(self, tmp_path, capsys, feed, line, field):
        good = {
            "case_feed": {"date": "2020-03-01", "region": "madrid", "new_cases": 3},
            "evidence_feed": {"id": "ev-1", "kind": "supporting", "source": "who.int",
                              "location": "madrid", "time": "2020-03-01T00:00:00Z", "terms": ["virus"]},
        }[feed]
        path = tmp_path / f"{feed}.jsonl"
        path.write_text(json.dumps(good) + "\n\n" + json.dumps(line) + "\n")
        config = self._one_post_config(tmp_path, **{feed: str(path)})
        assert main(["run", "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert f"{path}, line 3: field {field!r}" in err

    def test_json_config_run_imports_neither_numpy_nor_yaml(self, tmp_path):
        """``driftstream run`` on a JSON config, case feed and correlation
        included, loads neither numpy nor PyYAML."""
        import subprocess
        import sys
        from pathlib import Path

        import driftstream

        data = {**_multiday_data(tmp_path), "max_lag_days": 0}
        config = tmp_path / "run.json"
        config.write_text(json.dumps(data))
        src = str(Path(driftstream.__file__).parents[1])
        pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        script = (
            "import sys\n"
            "from driftstream.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(sorted(m for m in ('numpy', 'yaml') if m in sys.modules))\n"
            "sys.exit(code)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, "run", "--config", str(config)],
            env={**os.environ, "PYTHONPATH": pythonpath},
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"
        correlation = (Path(data["out_dir"]) / "correlation.jsonl").read_text().splitlines()
        assert any(json.loads(row)["r"] is not None for row in correlation)


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
        assert store.get(1) == ("pandemic",) and [i for i, _, _ in store.items()] == [1, 2]
        assert relevant(1, "mask mandate", 20)
        assert store.get(1) == ("mask",) and [i for i, _, _ in store.items()] == [2, 1]
        # past the first put's TTL, inside the re-put's
        assert relevant(3, "so it begins", 30, retweet_of=1)
        assert store.get(3) == ("mask",)
        assert not relevant(4, "so it begins", 45, retweet_of=1)


class TestFarOffEventTimes:
    @pytest.mark.parametrize("years", [(1, 2020, 9999), (2020, 1900, 9999, 1)])
    def test_a_gap_costs_o_window_slide_closes(self, tmp_path, years):
        """A post years from its neighbours costs the drift stage at most W + 1
        slide closes (W slides a window), not one per slide of the gap: posts
        in years 1, 2020 and 9999, in either order, close at most 3·W + 3
        slides, and ``run`` on the archive exits 0."""
        from driftstream.pipeline.runner import PipelineRunner

        archive = tmp_path / "far.jsonl"
        archive.write_text("".join(
            json.dumps({"id": i + 1, "text": "corona news", "created_at": f"{year:04d}-03-01T00:00:05Z"})
            + "\n"
            for i, year in enumerate(years)
        ))
        config = {"archive": str(archive), "out_dir": str(tmp_path / "out")}
        runner = PipelineRunner(parse_config(config))
        drift = runner.drift
        closes = []
        close = drift._close_current

        def counted_close():
            closed = close()
            closes.append(closed.index)
            return closed

        drift._close_current = counted_close
        result = runner.run()
        assert result.summary["records_in"] == len(years)
        slides_per_window = int(drift.window_length // drift.slide)
        assert 0 < len(closes) <= 3 * slides_per_window + 3
        assert closes == sorted(closes)
        path = tmp_path / "far.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path)]) == 0


class TestLexiconInvalidation:
    """``clean_post`` scans one union of every term set, built once per
    change: a growth of either growing set is seen by the next post
    ingested, and nothing else rebuilds the union."""

    def _runner(self, tmp_path, monkeypatch):
        from conftest import make_post

        from driftstream.enrich.clean import Lexicons
        from driftstream.pipeline.runner import PipelineRunner

        builds = []
        build = Lexicons._build

        def counted_build(self):
            builds.append(sorted(self.keywords.terms))
            build(self)

        monkeypatch.setattr(Lexicons, "_build", counted_build)
        archive = tmp_path / "unused.jsonl"
        archive.write_text("")
        terms = tmp_path / "terms.json"
        terms.write_text(json.dumps({"terms": []}))
        runner = PipelineRunner(parse_config({
            "archive": str(archive),
            "out_dir": str(tmp_path / "out"),
            "keywords": {"seeds": ["virus"]},
            "drift": {"min_count": 3, "slide_minutes": 1, "window_minutes": 1},
            "misinfo": {
                "seeds": ["plandemic"],
                "sources": [{"kind": "terms_file", "path": str(terms)}],
                "refresh_interval_minutes": 1,
                "tombstones": ["microchip", "5g towers"],
            },
        }))

        def ingest(post_id, text, seconds, retweet_of=None):
            """The post's EnrichedPost, as buffered at ingest."""
            runner.ingest_post(make_post(post_id, text, T0 + seconds, is_retweet_of=retweet_of))
            return runner._minute_buffers[(T0 + seconds) // 60][-1]

        return runner, ingest, builds, terms

    def test_a_promoted_term_matches_the_next_post_and_its_retweet(self, tmp_path, monkeypatch):
        runner, ingest, builds, _ = self._runner(tmp_path, monkeypatch)
        for k in range(4):  # facemask rides the seed in a third of the posts
            ingest(3 * k, "virus facemask news", 1 + k)
            ingest(3 * k + 1, "weather today", 10 + k)
            ingest(3 * k + 2, "sunny weather", 20 + k)
        assert ingest(20, "weather", 61).relevance is False  # closes minute 0 into the drift slide
        assert builds == [["virus"]]
        # its advance closes the slide, which promotes two terms at once
        post = ingest(21, "facemask only", 121)
        assert [event.term for event in runner.drift.audit] == ["facemask", "news"]
        assert post.matched_terms == {"facemask"}
        retweet = ingest(22, "so true", 122, retweet_of=21)
        assert retweet.relevance is True and retweet.matched_terms == {"facemask"}
        for post_id in range(30, 40):
            ingest(post_id, "facemask news", 123)
        assert builds == [["virus"], ["facemask", "news", "virus"]]

    def test_a_refresh_tags_the_next_post_and_a_tombstone_tags_nothing(self, tmp_path, monkeypatch):
        runner, ingest, builds, terms = self._runner(tmp_path, monkeypatch)
        assert ingest(1, "drink bleach, plandemic", 1).misinfo_terms == {"plandemic"}
        terms.write_text(json.dumps({"terms": ["bleach", "microchip"]}))
        post = ingest(2, "drink bleach, microchip", 61)  # its advance refreshes the set
        assert runner.misinfo_set.active == ("bleach", "plandemic")
        assert post.misinfo_terms == {"bleach"}
        assert runner._minute_buffers[(T0 + 61) // 60][0] is post
        terms.write_text(json.dumps({"terms": ["bleach", "microchip", "5g towers"]}))
        assert ingest(3, "5g towers, microchip", 121).misinfo_terms == frozenset()
        assert "5g towers" in runner.misinfo_set
        assert builds == [["virus"], ["virus"]]  # a tombstoned add grows no active set


class TestPiggybackOutput:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_piggyback_jsonl_matches_golden(self, tmp_path, enabled):
        from pathlib import Path

        result = run_pipeline(_piggyback_config(tmp_path, enabled))
        golden = Path(__file__).parent / "data" / "golden_piggyback.jsonl"
        assert (result.out_dir / "piggyback.jsonl").read_bytes() == golden.read_bytes()
        assert (result.summary["promoted_terms"] > 0) == enabled

    @pytest.mark.parametrize("match_mode", ["substring", "token"])
    def test_one_token_scan_per_post_and_no_tokenize_downstream(self, tmp_path, monkeypatch, match_mode):
        """Over a whole run that forms clusters, every non-blank post is
        scanned by ``TOKEN_RE`` exactly once, and neither drift nor the
        clusters tokenize a post again: ``tokenize`` is never called."""
        import sys

        import driftstream.keywords
        from driftstream.drift.adapter import DriftAdapter

        pattern = driftstream.keywords.TOKEN_RE
        original_tokenize = driftstream.keywords.tokenize
        calls = {"scan": 0, "tokenize": 0, "observe": 0}

        class CountingPattern:
            """``TOKEN_RE``, counting the calls that scan a text for tokens."""

            def findall(self, *args):
                calls["scan"] += 1
                return pattern.findall(*args)

            def finditer(self, *args):
                calls["scan"] += 1
                return pattern.finditer(*args)

            def __getattr__(self, name):  # fullmatch of a term, as config and Lexicons check one
                return getattr(pattern, name)

        def tokenize(*args, **kwargs):
            calls["tokenize"] += 1
            return original_tokenize(*args, **kwargs)

        original_observe = DriftAdapter.observe

        def observe(self, enriched):
            calls["observe"] += 1
            return original_observe(self, enriched)

        corpus = _fixture_corpus(tmp_path, minutes=20, rate=40)
        with corpus.archive_path.open("a") as f:  # two blank posts, dropped before any scan
            for i, text in enumerate(("   ", "\t")):
                f.write(json.dumps({"id": 9_000_000 + i, "created_at": "2020-03-01T00:10:00Z", "text": text}) + "\n")
        config = parse_config(_base_config(
            tmp_path, corpus, keywords={"match_mode": match_mode, "tracked_phrases": ["stay home"]},
        ))
        # bound by name in each module that uses them
        for name, module in list(sys.modules.items()):
            if name.startswith("driftstream"):
                if getattr(module, "TOKEN_RE", None) is pattern:
                    monkeypatch.setattr(module, "TOKEN_RE", CountingPattern())
                if getattr(module, "tokenize", None) is original_tokenize:
                    monkeypatch.setattr(module, "tokenize", tokenize)
        monkeypatch.setattr(DriftAdapter, "observe", observe)

        result = run_pipeline(config)
        summary = result.summary
        non_blank = summary["records_in"] - summary["discarded"]
        assert summary["discarded"] == 2 and summary["clusters"] > 0
        assert calls["observe"] == non_blank > 0
        assert calls["scan"] == non_blank
        assert calls["tokenize"] == 0


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
        import csv
        import hashlib

        result = run_pipeline(_multiday_config(tmp_path))
        summary = result.summary
        assert summary["promoted_terms"] and summary["status_changes"] and summary["tagged"]
        assert (result.out_dir / "piggyback.jsonl").read_text()
        # the summary counts are read off the records the bundle holds
        with open(result.out_dir / "windows.csv", newline="") as f:
            windows = list(csv.DictReader(f))
        with open(result.out_dir / "changes.csv", newline="") as f:
            changes = list(csv.DictReader(f))
        promotions = (result.out_dir / "keywords.jsonl").read_text().splitlines()
        assert summary["promoted_terms"] == len(promotions)
        assert summary["status_changes"] == len(changes)
        assert summary["tagged"] == sum(int(row["tagged"]) for row in windows)
        assert summary["windows"] == len(windows)
        digest = hashlib.sha256()
        for path in sorted(result.out_dir.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
        assert digest.hexdigest() == self.GOLDEN_SHA256

    def test_infinite_lag_tolerance_equals_one_longer_than_the_stream(self, tmp_path):
        """``lag_tolerance_days`` may be infinite (JSON 1e400): it never
        expires, so every item is tried against every cluster at its
        location, as under a finite tolerance longer than the stream."""
        data = _multiday_data(tmp_path)
        bundles = {}
        for name, days in (("infinite", math.inf), ("finite", 30), ("zero", 0)):
            config = tmp_path / f"{name}.json"
            text = json.dumps({**data, "out_dir": str(tmp_path / name), "clusters": {"lag_tolerance_days": days}})
            config.write_text(text.replace("Infinity", "1e400"))
            assert main(["run", "--config", str(config)]) == 0
            bundles[name] = {path.name: path.read_bytes() for path in (tmp_path / name).iterdir()}
        assert bundles["infinite"] == bundles["finite"]
        assert bundles["infinite"]["changes.csv"] != bundles["zero"]["changes.csv"]

    def test_report_paths_list_every_bundle_file_once(self, tmp_path):
        result = run_pipeline(_multiday_config(tmp_path))
        assert [path.name for path in result.report_paths] == [
            "windows.csv", "clusters.json", "changes.csv", "keywords.jsonl", "piggyback.jsonl",
            "month.csv", "languages.csv", "region_day.csv", "topic_region_day.csv",
            "correlation.jsonl", "summary.json",
        ]
        assert sorted(result.report_paths) == sorted(result.out_dir.iterdir())

    def test_active_keywords_are_the_seeds_plus_the_audit(self, tmp_path):
        """The promotion audit is the one record of a promotion: the run
        ends holding exactly the seeds and the audited terms, each term
        audited once."""
        config = _multiday_config(tmp_path)
        result = run_pipeline(config)
        audit = [
            json.loads(line)["term"]
            for line in (result.out_dir / "keywords.jsonl").read_text().splitlines()
        ]
        assert audit and len(audit) == len(set(audit))
        assert result.summary["active_keywords"] == sorted(set(config.keywords.seeds) | set(audit))

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
            entries = list(store.items())
            assert {i for i, _, _ in entries} == {i for i, t in last_put.items() if t + ttl > watermark}
            assert len(entries) == len(store)
            expiries = [expiry for _, expiry, _ in entries]
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


def _dense_data(tmp_path, match_mode):
    """Four dense minutes shaped like the benchmark's firehose (900 posts a
    minute), plus what it leaves out: a tracked phrase, a misinformation
    feed with a tombstoned term, and a case feed naming a region beyond the
    gazetteer that is live and one dated ahead of the stream."""
    corpus = generate_synthetic(
        SyntheticConfig(
            seed=2323,
            duration_minutes=4,
            base_rate_per_minute=900,
            drift_schedule=[DriftTermSchedule("facemask", 0, 120, p_co=0.5)],
        ),
        tmp_path / "raw",
    )
    terms = tmp_path / "misinfo_terms.json"
    terms.write_text(json.dumps({"terms": ["5g towers", "microchip"]}))
    cases = tmp_path / "cases.jsonl"
    cases.write_text("".join(
        json.dumps({"date": date, "region": region, "new_cases": 3}) + "\n"
        for date, region in (("2020-02-28T00:00:00Z", "sturgis"), ("2020-03-05T00:00:00Z", "madrid"))
    ))
    return {
        "archive": str(corpus.archive_path),
        "case_feed": str(cases),
        "out_dir": str(tmp_path / f"dense-{match_mode}"),
        "keywords": {"match_mode": match_mode, "tracked_phrases": ["stay home"]},
        "enrichment": {"gazetteer": GAZETTEER[:4]},
        "drift": {"min_count": 10, "slide_minutes": 1, "window_minutes": 2},
        "misinfo": {
            "sources": [{"kind": "terms_file", "path": str(terms)}],
            "tombstones": ["microchip"],
        },
    }


class TestDenseBundle:
    """``TestMultidayBundle`` pins a sparse stream; this pins a dense one,
    where nearly every post carries a lexicon term, in both match modes."""

    # sha256 over (file name, bytes) of every bundle file, from the code that
    # scanned each post once per lexicon
    GOLDEN_SHA256 = {
        "substring": "5f11f73cefc16be4a65222aa0a99345942446c5e36378c0d6e4037881a8b9bfb",
        "token": "53fc1a16541ac00cb3baacf5b941edbdc11ef545a4b579239aec64c7182925d6",
    }

    @pytest.mark.parametrize("match_mode", ["substring", "token"])
    def test_bundle_matches_golden(self, tmp_path, match_mode):
        import hashlib

        result = run_pipeline(parse_config(_dense_data(tmp_path, match_mode)))
        summary = result.summary
        assert summary["records_in"] > 3000 and summary["tagged"] and summary["misinfo_terms_added"] == 2
        audit = [json.loads(line) for line in (result.out_dir / "keywords.jsonl").read_text().splitlines()]
        assert min(event["promoted_at"] for event in audit) < T0 + 4 * 60  # mid-stream
        assert {"facemask", "california"} <= set(summary["active_keywords"])
        windows = (result.out_dir / "windows.csv").read_text()
        assert "5g towers" in windows and "microchip" not in windows
        regions = (result.out_dir / "region_day.csv").read_text()
        assert "sturgis" in regions and "madrid" not in regions
        digest = hashlib.sha256()
        for path in sorted(result.out_dir.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
        assert digest.hexdigest() == self.GOLDEN_SHA256[match_mode]


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
        assert "archive" in err and "seed" not in err

    def test_run_reports_each_skipped_misinfo_source_once(self, tmp_path, capsys):
        """A blank term is skipped, not fatal, and the source's other terms
        still count; a source that is not JSON is named on stderr. Each is
        reported once however often the run refreshes, and none of it
        reaches the bundle."""
        corpus = _fixture_corpus(tmp_path, minutes=5, rate=20)
        terms = tmp_path / "terms.json"
        terms.write_text(json.dumps({"terms": ["", "bleach"]}))
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        sources = [{"kind": "terms_file", "path": str(terms)}, {"kind": "terms_file", "path": str(bad)}]
        data = _base_config(tmp_path, corpus, misinfo={"sources": sources, "refresh_interval_minutes": 1})
        config = tmp_path / "run.yaml"
        config.write_text(yaml.safe_dump(data))
        assert main(["run", "--config", str(config)]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["misinfo_terms_added"] == 1
        skipped = [line for line in captured.err.splitlines() if line.startswith("misinfo:")]
        assert skipped == [
            f"misinfo: skipped {terms} term 0: blank term",
            f'misinfo: skipped {bad}: not a JSON object with a "terms" list',
        ]
        bundle = (tmp_path / "reports" / "summary.json").read_text()
        assert "skipped" not in bundle and "bad.json" not in bundle

    def test_out_dir_flag_beats_the_environment(self, tmp_path, capsys, monkeypatch):
        corpus = _fixture_corpus(tmp_path, minutes=5, rate=20)
        config = tmp_path / "run.yaml"
        config.write_text(yaml.safe_dump(_base_config(tmp_path, corpus)))
        monkeypatch.setenv("DRIFTSTREAM_OUT_DIR", str(tmp_path / "from-env"))
        assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "from-flag")]) == 0
        assert (tmp_path / "from-flag" / "summary.json").is_file()
        assert not (tmp_path / "from-env").exists() and not (tmp_path / "reports").exists()

    def test_bad_until_flag_named_with_exit_2(self, tmp_path, capsys):
        corpus = _fixture_corpus(tmp_path, minutes=5, rate=20)
        config = tmp_path / "run.yaml"
        config.write_text(yaml.safe_dump(_base_config(tmp_path, corpus)))
        assert main(["run", "--config", str(config), "--until", "nonsense"]) == 2
        assert "config error: until: unparseable timestamp: 'nonsense'" in capsys.readouterr().err
        assert not (tmp_path / "reports").exists()

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

    @pytest.mark.parametrize(
        "argv, named",
        [
            pytest.param([command, *required, "--speed", speed], "--speed", id=f"{speed}-{command}")
            for speed in ("abc", "0", "-2")
            for command, required in (("run", ["--config", "c.yaml"]), ("replay", ["--archive", "a.jsonl"]))
        ]
        # argparse refuses an action other than ``show`` before the handler runs
        + [pytest.param(["keywords", "bogus"], "'bogus'", id="keywords-bogus")],
    )
    def test_bad_speed_flag_exits_2(self, capsys, argv, named):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert named in capsys.readouterr().err

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
        assert out == {
            "records_in": len(expected), "records_out": len(expected), "errors": 0,
            "rejections": {"bad_json": 1, "empty": 1, "missing_field": 1},
        }
        with DurableLog(log_dir) as log:
            records = list(log.replay_from(0))
        assert [r.offset for r in records] == list(range(len(expected)))
        assert [r.payload for r in records] == [p.to_payload() for p in expected]
        assert [r.event_time for r in records] == [p.created_at for p in expected]

    def test_replay_without_out_reports_no_records_out(self, tmp_path, capsys):
        """Without ``--out`` nothing is appended, so ``records_out`` is 0;
        the posts read and the lines rejected are those of an ``--out`` run."""
        corpus = _fixture_corpus(tmp_path, minutes=3, rate=20)
        lines = corpus.archive_path.read_bytes().splitlines()
        lines[1:1] = [b"", b"{broken"]
        archive = tmp_path / "mixed.jsonl"
        archive.write_bytes(b"\n".join(lines) + b"\n")
        assert main(["replay", "--archive", str(archive), "--out", str(tmp_path / "log")]) == 0
        written = json.loads(capsys.readouterr().out)
        assert main(["replay", "--archive", str(archive)]) == 0
        read = json.loads(capsys.readouterr().out)
        assert written["records_out"] == written["records_in"] == corpus.post_count
        assert read == {**written, "records_out": 0}
        assert read["rejections"] == {"bad_json": 1, "empty": 1}

    def test_replay_out_naming_a_file_exits_2(self, tmp_path, capsys):
        corpus = _fixture_corpus(tmp_path, minutes=1, rate=5)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["replay", "--archive", str(corpus.archive_path), "--out", str(taken)]) == 2
        assert "--out" in capsys.readouterr().err

    def test_replay_append_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        from driftstream.core.log import DurableLog, LogAppendError

        def fail(self, records):
            raise LogAppendError("disk full")

        monkeypatch.setattr(DurableLog, "append_many", fail)
        corpus = _fixture_corpus(tmp_path, minutes=1, rate=5)
        out = str(tmp_path / "log")
        assert main(["replay", "--archive", str(corpus.archive_path), "--out", out]) == 3
        assert "disk full" in capsys.readouterr().err

    def test_replay_second_batch_failure_exits_3_keeping_the_first(self, tmp_path, monkeypatch, capsys):
        from driftstream.cli import REPLAY_BATCH
        from driftstream.core.log import DurableLog, LogAppendError
        from driftstream.sources.archive import posts_from_archive

        real = DurableLog.append_many
        calls = []

        def fail_second(self, records):
            calls.append(len(records))
            if len(calls) == 2:
                raise LogAppendError("disk full")
            return real(self, records)

        monkeypatch.setattr(DurableLog, "append_many", fail_second)
        corpus = _fixture_corpus(tmp_path, minutes=10, rate=60)
        posts = list(posts_from_archive(corpus.archive_path))
        assert len(posts) > 2 * REPLAY_BATCH
        out = tmp_path / "log"
        assert main(["replay", "--archive", str(corpus.archive_path), "--out", str(out)]) == 3
        assert "disk full" in capsys.readouterr().err
        assert calls == [REPLAY_BATCH, REPLAY_BATCH]
        with DurableLog(out) as log:
            records = list(log.replay_from(0))
        assert [r.payload for r in records] == [p.to_payload() for p in posts[:REPLAY_BATCH]]

    def test_paced_replay_commits_each_record_before_the_pause(self, tmp_path, monkeypatch, capsys):
        """At a numeric speed the pause before a post happens inside
        ``posts_from_archive``; every post it has yielded is durable by then."""
        import driftstream.cli as cli
        import driftstream.sources.archive as archive
        from driftstream.core.log import DurableLog

        real_append_many = DurableLog.append_many
        committed = yielded = 0
        pauses = []

        def append_many(self, records):
            nonlocal committed
            result = real_append_many(self, records)
            committed += len(records)
            return result

        def counted(*args, **kwargs):
            nonlocal yielded
            for post in archive.posts_from_archive(*args, **kwargs):
                yielded += 1
                yield post

        monkeypatch.setattr(DurableLog, "append_many", append_many)
        monkeypatch.setattr(cli, "posts_from_archive", counted)
        monkeypatch.setattr(archive.time, "sleep", lambda seconds: pauses.append((yielded, committed)))
        corpus = _fixture_corpus(tmp_path, minutes=2, rate=20)
        out = tmp_path / "log"
        assert main(["replay", "--archive", str(corpus.archive_path), "--speed", "60", "--out", str(out)]) == 0
        assert len(pauses) > 1
        assert all(done == seen for seen, done in pauses)
        with DurableLog(out) as log:
            assert log.next_offset == yielded == committed

    @pytest.mark.parametrize("speed", ["max", "60"])
    def test_replay_out_writes_the_bytes_of_the_general_codec(self, tmp_path, monkeypatch, capsys, speed):
        """With the clock pinned, ``replay --out`` leaves the segment bytes that
        appending each post's ``StreamRecord(post.to_payload(), ...)`` in the
        same batches leaves: batches of ``REPLAY_BATCH`` at ``max``, one
        record per commit when paced. The archive holds retweets, legacy and
        fractional timestamps, strings JSON escapes and malformed lines."""
        import time

        import driftstream.sources.archive as archive
        from driftstream.cli import REPLAY_BATCH
        from driftstream.core.log import DurableLog
        from driftstream.core.records import StreamRecord
        from driftstream.sources.posts import Post, parse_post

        corpus = _fixture_corpus(tmp_path, minutes=6, rate=60)
        rows = [json.loads(line) for line in corpus.archive_path.read_text().splitlines()]
        for i, row in enumerate(rows):
            created = parse_timestamp(row["created_at"])
            if i % 3 == 1:
                row["created_at"] = time.strftime("%a %b %d %H:%M:%S +0000 %Y", time.gmtime(created))
            elif i % 3 == 2:
                row["created_at"] = format_timestamp(created)[:-1] + ".375Z"
        rows[5]["text"] += ' "quoted" back\\slash \x00\x1f s\u00fcd \u75c5\u6bd2 \U0001f637 \ud800'
        rows[6].update(lang="\udfff", channel="tw\"itter", retweeted_id=str(rows[0]["id"]))
        assert sum("retweeted_id" in row for row in rows) > 1
        lines = [json.dumps(row).encode() for row in rows]
        lines[3:3] = [b"", b"{broken", b'{"id": 1, "text": "no timestamp"}', b'{"id": true, "text": "x", "created_at": "2020"}']
        path = tmp_path / "mixed.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        posts = [p for p in map(parse_post, lines) if isinstance(p, Post)]
        assert REPLAY_BATCH < len(posts) == len(lines) - 4

        now = 1583020800.625
        monkeypatch.setattr(time, "time", lambda: now)
        monkeypatch.setattr(archive.time, "sleep", lambda seconds: None)
        out = tmp_path / "log"
        assert main(["replay", "--archive", str(path), "--speed", speed, "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["records_out"] == len(posts)
        limit = REPLAY_BATCH if speed == "max" else 1
        with DurableLog(tmp_path / "expected") as log:
            for start in range(0, len(posts), limit):
                log.append_many([StreamRecord(p.to_payload(), None, p.created_at, now) for p in posts[start:start + limit]])
        assert {p.name: p.read_bytes() for p in out.iterdir()} == {
            p.name: p.read_bytes() for p in (tmp_path / "expected").iterdir()
        }

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

    @pytest.mark.parametrize(
        "lines, message",
        [
            (['{"term": "x"}'], "line 1: field 'promoted_at': missing"),
            (['{"term": "x", "promoted_at": 0}', "not json"], "line 2: "),
            (['{"term": 7, "promoted_at": 0}'], "line 1: field 'term'"),
            (None, "No such file"),
            (['{"term": "x", "promoted_at": NaN}'], "line 1: field 'promoted_at': expected a finite timestamp"),
            (['{"term": "x", "promoted_at": 1%s}' % ("0" * 400)], "line 1: field 'promoted_at': expected a finite"),
        ],
    )
    def test_keywords_show_bad_audit_exits_2(self, tmp_path, capsys, lines, message):
        audit = tmp_path / "keywords.jsonl"
        if lines is not None:
            audit.write_text("".join(line + "\n" for line in lines))
        assert main(["keywords", "show", "--audit", str(audit)]) == 2
        err = capsys.readouterr().err
        assert str(audit) in err
        assert message in err

    def test_keywords_show_prints_seeds_as_the_run_holds_them(self, tmp_path, capsys):
        corpus = _fixture_corpus(tmp_path, minutes=5, rate=20)
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(_base_config(tmp_path, corpus, keywords={"seeds": [" Mask", "mask", "Wuhan"]})))
        assert main(["keywords", "show", "--config", str(path)]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert [e["term"] for e in entries] == ["mask", "wuhan"]

    def test_keywords_show_bad_at_exits_2(self, capsys):
        assert main(["keywords", "show", "--at", "yesterday"]) == 2
        assert capsys.readouterr().err == "--at: unparseable timestamp: 'yesterday'\n"

    def test_keywords_show_bad_config_prints_each_error_on_a_line(self, tmp_path, capsys):
        """As ``run`` does: one ``config error:`` line per error, not one
        line joining them."""
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"archive": "/ghost.jsonl", "clusters": {"window_minutes": 0}}))
        assert main(["keywords", "show", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "config error: archive: file not found: /ghost.jsonl",
            "config error: clusters.window_minutes: must be > 0",
        ]
        assert main(["run", "--config", str(config)]) == 2
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("name, text", [("bad.json", '{"seed": '), ("bad.yaml", "seed: [1\n")])
    @pytest.mark.parametrize("command", [["run"], ["keywords", "show"]])
    def test_unparseable_config_exits_2(self, tmp_path, capsys, command, name, text):
        config = tmp_path / name
        config.write_text(text)
        assert main([*command, "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith("config error: config: unparseable: ")

    @pytest.mark.parametrize("command", [["run"], ["keywords", "show"]])
    def test_unparseable_yaml_config_prints_one_line(self, tmp_path, capsys, command):
        """PyYAML's own text spans six lines here; the error keeps its
        problem and the place it names, 1-based."""
        config = tmp_path / "bad.yaml"
        config.write_text("seed: [1\n")
        assert main([*command, "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            "config error: config: unparseable: expected ',' or ']', but got '<stream end>' (line 2, column 1)\n"
        )

    @pytest.mark.parametrize("name, data", [("bad.yaml", b"\xff\xfe: 1\n"), ("bad.json", b"\xff: 1\n")])
    @pytest.mark.parametrize("command", [["run"], ["keywords", "show"]])
    def test_config_that_is_not_utf8_prints_one_line(self, tmp_path, capsys, command, name, data):
        config = tmp_path / name
        config.write_bytes(data)
        assert main([*command, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config: not UTF-8: ") and err.count("\n") == 1

    def test_synth_config_errors_print_one_line(self, tmp_path, capsys):
        """An unparseable synthetic config names its problem and the place
        it is, 1-based, as ``run`` does; one that is not UTF-8 is one line."""
        config = tmp_path / "synth.yaml"
        out = tmp_path / "corpus"
        config.write_text("seed: [1\n")
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "synth config error: unparseable: expected ',' or ']', but got '<stream end>' (line 2, column 1)\n"
        )
        config.write_bytes(b"\xff\xfe: 1\n")
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("synth config error: not UTF-8: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("seed: 1\nbogus: 2\n", "unknown synthetic config fields: ['bogus']"),
            ("seed: 1\nduration_minutes: -3\n", "duration and base_rate must be positive"),
            ("duration_minutes: 3\n", "missing 1 required positional argument: 'seed'"),
            ("- 1\n- 2\n", "synth config error: "),
            ("seed: [1\n", "expected ',' or ']'"),
            (None, "No such file"),
        ],
    )
    def test_synth_bad_config_exits_2(self, tmp_path, capsys, text, message):
        config = tmp_path / "synth.yaml"
        if text is not None:
            config.write_text(text)
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "corpus")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("synth config error: ") and message in err
        assert not (tmp_path / "corpus").exists()

    def test_clusters_without_an_export_exits_2(self, tmp_path, capsys):
        assert main(["clusters", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"no cluster export at {tmp_path / 'clusters.json'}\n"

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
