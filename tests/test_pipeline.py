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
from driftstream.pipeline.config import ConfigError, PipelineConfig, load_config, parse_config
from driftstream.pipeline.runner import run_pipeline
from driftstream.sources.synthetic import (
    DriftTermSchedule,
    SyntheticConfig,
    generate_synthetic,
)
from driftstream.timeutil import format_timestamp, parse_timestamp

T0 = parse_timestamp("2020-03-01T00:00:00Z")

GAZETTEER = ["california", "new york", "hubei", "lombardy", "sturgis", "madrid"]

NUMERIC_SETTINGS = [
    "keywords.retweet_ttl_hours",
    "drift.window_minutes",
    "drift.slide_minutes",
    "drift.min_count",
    "drift.min_score",
    "drift.trending_k",
    "enrichment.location_cache_ttl_days",
    "misinfo.window_seconds",
    "misinfo.piggyback_threshold",
    "clusters.window_minutes",
    "clusters.min_size",
    "clusters.lag_tolerance_days",
    "clusters.eta",
    "max_lag_days",
]


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


def _byte_batches(bodies: list[bytes], budget: int) -> list[int]:
    """The record counts of the batches ``replay --out`` commits ``bodies``
    in: a batch closes once its bodies hold ``budget`` bytes, and whatever
    is left at the end is the last one."""
    batches, count, held = [], 0, 0
    for body in bodies:
        count, held = count + 1, held + len(body)
        if held >= budget:
            batches.append(count)
            count = held = 0
    return batches + [count] if count else batches


def _write_archive(path, posts):
    """An archive of ``(id, seconds after T0, text, channel)`` posts, in the order given."""
    path.write_text("".join(
        json.dumps({"id": i, "created_at": format_timestamp(T0 + t), "text": text, "channel": channel}) + "\n"
        for i, t, text, channel in posts
    ))


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
        """A negative lag tolerance matched no evidence, and a negative
        location cache TTL kept no case-feed region live. A zero cluster window
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

    def test_zero_lag_tolerance_accepted(self, tmp_path):
        corpus = _fixture_corpus(tmp_path, minutes=5, rate=20)
        config = parse_config(_base_config(tmp_path, corpus, clusters={"lag_tolerance_days": 0}))
        assert config.clusters.lag_tolerance == 0.0

    def test_retired_speed_and_refresh_interval_load_and_are_ignored(self, tmp_path, monkeypatch):
        """A run reads every input before its first post, so it has no
        refresh to schedule and no pacing to do: a config that still sets
        either key, even to a value the old check refused, loads as one
        that does not, and DRIFTSTREAM_SPEED is no override."""
        corpus = _fixture_corpus(tmp_path, minutes=5, rate=20)
        monkeypatch.setenv("DRIFTSTREAM_SPEED", "abc")
        retired = parse_config(_base_config(tmp_path, corpus, speed="abc", misinfo={"refresh_interval_minutes": 0}))
        assert retired == parse_config(_base_config(tmp_path, corpus))
        assert not hasattr(retired, "speed")

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
        assert config.misinfo.sources[0].sections == ("rumours",)
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

    @pytest.mark.parametrize("setting", NUMERIC_SETTINGS)
    def test_a_boolean_number_named_with_exit_2(self, tmp_path, capsys, setting):
        """A bool is no number: ``clusters.min_size: true`` loaded as 1,
        ``max_lag_days: true`` as 1 and ``keywords.retweet_ttl_hours: true``
        as 3600 s, and YAML's ``yes`` alike. Each exits 2 with one line
        naming the setting, from a JSON and from a YAML config."""
        archive = tmp_path / "a.jsonl"
        archive.write_text("")
        section, _, key = setting.rpartition(".")
        data = {"archive": str(archive), "out_dir": str(tmp_path / "reports")}
        (data.setdefault(section, {}) if section else data)[key] = True
        as_json = tmp_path / "bool.json"
        as_json.write_text(json.dumps(data))
        as_yaml = tmp_path / "bool.yaml"
        yes = f"{section}:\n  {key}: yes\n" if section else f"{key}: yes\n"
        as_yaml.write_text(f"archive: {json.dumps(str(archive))}\nout_dir: {json.dumps(data['out_dir'])}\n{yes}")
        for path in (as_json, as_yaml):
            assert main(["run", "--config", str(path)]) == 2
            assert capsys.readouterr().err.splitlines() == [f"config error: {setting}: must be a number, got True"]
        assert not (tmp_path / "reports").exists()


def _declared_keys(cls) -> dict:
    """The file keys ``cls`` declares: None for a value, a dict of the keys
    of a section, and a one-item list of a record's keys for a list of records."""
    from dataclasses import fields, is_dataclass

    keys = {}
    for f in fields(cls):
        if is_dataclass(f.default_factory):
            keys[f.name] = _declared_keys(f.default_factory)
        elif "key" in f.metadata:
            convert = f.metadata["convert"]
            keys[f.metadata["key"]] = [_declared_keys(convert)] if is_dataclass(convert) else None
    return keys


# A file that exists, so that a path setting is sometimes valid.
EXISTING_FILE = os.path.abspath(__file__)

FUZZ_VALUES = st.recursive(
    st.one_of(
        st.booleans(),
        st.none(),
        st.sampled_from([10**400, -(10**400), math.nan, math.inf, -math.inf, "", "x" * 300, EXISTING_FILE]),
        st.integers(-3, 100),
        st.floats(),
        st.text(max_size=8),
    ),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


def _fuzz_mapping(keys: dict):
    """Mappings that set up to three of ``keys``, each to a value of its
    shape or to any other."""

    def at(sub):
        if sub is None:
            return FUZZ_VALUES
        if isinstance(sub, list):
            return st.lists(_fuzz_mapping(sub[0]) | FUZZ_VALUES, max_size=3) | FUZZ_VALUES
        return _fuzz_mapping(sub) | FUZZ_VALUES

    entry = st.sampled_from(sorted(keys)).flatmap(lambda key: st.tuples(st.just(key), at(keys[key])))
    return st.lists(entry, max_size=3).map(dict)


class TestConfigFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_fuzz_mapping(_declared_keys(PipelineConfig)))
    @example({"archive": "x" * 300})
    @example({"case_feed": "x" * 300})
    @example({"misinfo": {"sources": [{"path": "x" * 300}]}})
    @example({"case_feed": "\n"})
    @example({"evidence_feed": "a\rb", "misinfo": {"sources": [{"path": "\n", "kind": "\r"}]}})
    def test_any_mapping_loads_or_is_refused_by_name(self, data):
        """At every declared key, ``misinfo.sources`` records included, a
        bool, an int past every float, NaN, an infinity, an empty or a
        300-character string, or a nested list or mapping gives a
        PipelineConfig or a ConfigError, and no other exception: a path
        the OS refuses (too long a name) once ended in an ``OSError``.
        Each error is one line, as ``run`` prints it: a path that holds a
        line break once broke its error in two."""
        try:
            # over a valid archive, so that the other settings decide
            assert isinstance(parse_config({"archive": EXISTING_FILE, **data}), PipelineConfig)
        except ConfigError as exc:
            assert exc.errors
            assert not [error for error in exc.errors if "\n" in error or "\r" in error]


class TestRunnerIntegration:
    def test_a_late_re_formed_cluster_counts_once(self, tmp_path):
        """Three late posts re-open a closed hour window and form its
        cluster again, which replaces the first one: the summary counts the
        clusters ``clusters.json`` holds."""
        madrid = "corona outbreak in madrid"
        archive = tmp_path / "archive.jsonl"
        _write_archive(archive, [
            (1, 600, madrid, "twitter"), (2, 1200, madrid, "twitter"), (3, 1800, madrid, "twitter"),
            (4, 3630, "weather", "twitter"),  # closes hour 0 and its cluster
            (5, 3540, madrid, "twitter"), (6, 3545, madrid, "twitter"), (7, 3550, madrid, "twitter"),
            (8, 3900, "weather", "twitter"),  # closes hour 0 again
        ])
        result = run_pipeline(parse_config({
            "archive": str(archive), "out_dir": str(tmp_path / "reports"),
            "enrichment": {"gazetteer": ["madrid"]},
        }))
        clusters = json.loads((result.out_dir / "clusters.json").read_text())
        assert result.summary["clusters"] == len(clusters) == 1

    def test_a_run_renders_no_day_before_its_reports(self, tmp_path, monkeypatch):
        """Posts are counted by day index; each day the tables show is
        rendered once, when the reports are written."""
        import driftstream.analytics.tables as tables_mod
        from driftstream.pipeline.runner import PipelineRunner

        rendered, before_reports = [], []
        day_key, write_reports = tables_mod.day_key, PipelineRunner._write_reports
        monkeypatch.setattr(tables_mod, "day_key", lambda epoch: rendered.append(epoch) or day_key(epoch))
        monkeypatch.setattr(
            PipelineRunner, "_write_reports", lambda self: before_reports.append(len(rendered)) or write_reports(self)
        )
        result = run_pipeline(_multiday_config(tmp_path))
        assert before_reports == [0]
        days = {line.split(",")[1] for line in (result.out_dir / "region_day.csv").read_text().splitlines()[1:]}
        assert len(rendered) == len(days) > 1

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
                assert buffers.pop_ready(t) == [(index * 7.0, scanned.pop(index)) for index in ready]
            else:
                buffers.add(t, t)
                scanned.setdefault(t // 7.0, []).append(t)
            assert buffers == scanned
        assert buffers.pop_ready(None) == [(index * 7.0, scanned[index]) for index in sorted(scanned)]
        assert buffers.pop_ready(None) == []

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.booleans(), st.floats(-1e6, 1e6) | st.floats(-200.0, 200.0)), max_size=40),
        st.sampled_from([0.5, 7.5, 60.0]),
    )
    @example([(False, -0.25), (False, 59.75), (True, 60.0), (False, 0.0), (False, -60.0)], 60.0)
    def test_popped_start_is_each_posts_window_start(self, ops, length):
        """Every ``(start, posts)`` that ``pop_ready`` returns has the start
        ``core.windows.window_start`` gives each of its posts: late posts,
        negative and fractional times, at every length. The windows.csv row
        takes its start from here, with no per-post check."""
        from conftest import make_enriched

        from driftstream.core.windows import window_start
        from driftstream.pipeline.runner import WindowBuffers

        buffers, popped = WindowBuffers(length), []
        for i, (flush, t) in enumerate(ops):
            if flush:
                popped.extend(buffers.pop_ready(t))
            else:
                buffers.add(t, make_enriched(post_id=i, created_at=t))
        popped.extend(buffers.pop_ready(None))
        assert sum(len(posts) for _, posts in popped) == sum(1 for flush, _ in ops if not flush)
        for start, posts in popped:
            assert {window_start(post.post.created_at, length) for post in posts} == {start}

    def test_a_run_decides_no_window_start_per_post(self, tmp_path, monkeypatch):
        """A whole run, late posts included, takes every minute window's
        start from its buffer: ``misinfo.tagging`` computes none."""
        from driftstream.misinfo import tagging

        calls, window_start = [], tagging.window_start
        monkeypatch.setattr(tagging, "window_start", lambda *args: calls.append(args) or window_start(*args))
        result = run_pipeline(parse_config(_multiday_data(tmp_path)))
        assert result.summary["windows"] > 0
        assert calls == []

    def test_a_run_decides_no_cluster_window_start_per_post(self, tmp_path, monkeypatch):
        """Each closing hour window's clusters take its start from the
        buffer: ``corroboration.clusters`` computes none."""
        from driftstream.corroboration import clusters

        calls, window_start = [], clusters.window_start
        monkeypatch.setattr(clusters, "window_start", lambda *args: calls.append(args) or window_start(*args))
        result = run_pipeline(parse_config(_multiday_data(tmp_path)))
        assert result.summary["clusters"] > 0
        assert calls == []


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
    """Each post is tagged once, at ingest, against the misinformation set
    read before the first post. Every window must report what tagging its
    posts at close against that set gives: late posts, authoritative posts
    and a tombstoned source term included."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 300),  # event time after T0: any order, so late posts too
                st.lists(st.sampled_from(MISINFO_PIECES), max_size=4).map(" ".join),
                st.booleans(),  # from an authoritative channel
            ),
            max_size=30,
        ),
        st.lists(st.sampled_from(MISINFO_TERMS), max_size=3),  # the terms file
        st.sampled_from([30.0, 60.0]),
    )
    def test_windows_equal_tagging_at_close(self, events, file_terms, window):
        import tempfile
        from pathlib import Path

        from driftstream.pipeline.config import MisinfoConfig, MisinfoSource, PipelineConfig
        from driftstream.pipeline.runner import PipelineRunner

        with tempfile.TemporaryDirectory() as tmp:
            terms = Path(tmp) / "terms.json"
            terms.write_text(json.dumps({"terms": file_terms}))
            archive = Path(tmp) / "archive.jsonl"
            _write_archive(archive, (
                (i, t, text, "who.int" if official else "twitter") for i, (t, text, official) in enumerate(events)
            ))
            config = PipelineConfig(
                archive=str(archive),
                out_dir=str(Path(tmp) / "reports"),
                misinfo=MisinfoConfig(
                    seeds=("plandemic",),
                    sources=(MisinfoSource(str(terms)),),
                    window=window,
                    tombstones=("microchip",),
                ),
            )
            runner = PipelineRunner(config)
            closed, routed = [], []
            pop_ready, route = runner._minute_buffers.pop_ready, runner._route_tagged

            def spy_pop_ready(upto):
                popped = pop_ready(upto)
                closed.extend(posts for _, posts in popped)
                return popped

            def spy_route(post):
                routed.append((post, frozenset(post.misinfo_terms)))
                route(post)

            runner._minute_buffers.pop_ready = spy_pop_ready
            runner._route_tagged = spy_route
            runner.run()

        active = {"plandemic", *file_terms} - {"microchip"}
        assert runner.misinfo_set.active == tuple(sorted(active))
        expected_rows, expected_routed = [], []
        for posts in closed:
            tagged, counts = 0, {}
            for post in posts:
                hits = frozenset(term for term in active if term in post.post.text.lower())
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


class TestReadOnce:
    """A run reads its misinformation sources once, in ``run``, before its
    first post, next to the case feed: what a source file holds after that
    reaches no bundle byte."""

    def _bundle(self, out_dir):
        from pathlib import Path

        return {path.name: path.read_bytes() for path in sorted(Path(out_dir).iterdir())}

    def test_a_multi_day_run_reads_each_source_once(self, tmp_path, monkeypatch):
        import pathlib

        import driftstream.pipeline.runner as runner_mod

        data = _multiday_data(tmp_path)
        source = data["misinfo"]["sources"][0]["path"]
        calls, refresh = [], runner_mod.refresh_misinfo_keywords
        monkeypatch.setattr(runner_mod, "refresh_misinfo_keywords", lambda *args: calls.append(args) or refresh(*args))
        opened, read_text = [], pathlib.Path.read_text

        def counted_read_text(path, *args, **kwargs):
            opened.append(str(path))
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "read_text", counted_read_text)
        result = run_pipeline(parse_config(data))
        assert result.summary["records_in"] > 1000 and result.summary["misinfo_terms_added"] == 2
        assert len(calls) == 1
        assert opened.count(source) == 1

    def test_rewriting_a_source_mid_stream_changes_no_bundle_byte(self, tmp_path, monkeypatch):
        from pathlib import Path

        import driftstream.pipeline.runner as runner_mod

        data = _multiday_data(tmp_path)
        source = Path(data["misinfo"]["sources"][0]["path"])
        rewritten = json.dumps({"terms": ["5g towers", "microchip", "virus", "facemask"]})
        untouched = self._bundle(run_pipeline(parse_config(data)).out_dir)

        posts_from_archive = runner_mod.posts_from_archive

        def rewriting(*args, **kwargs):
            for i, post in enumerate(posts_from_archive(*args, **kwargs)):
                if i == 100:  # hours of event time in
                    source.write_text(rewritten)
                yield post

        monkeypatch.setattr(runner_mod, "posts_from_archive", rewriting)
        data["out_dir"] = str(tmp_path / "rewritten")
        assert self._bundle(run_pipeline(parse_config(data)).out_dir) == untouched
        assert source.read_text() == rewritten

        # the rewrite would show, had the run read it: a run that starts
        # from the rewritten file writes another bundle
        monkeypatch.setattr(runner_mod, "posts_from_archive", posts_from_archive)
        data["out_dir"] = str(tmp_path / "from-the-start")
        assert self._bundle(run_pipeline(parse_config(data)).out_dir) != untouched

    def test_an_empty_archive_reads_its_sources(self, tmp_path, capsys):
        """With no post, the sources are still read: their terms are
        counted, and a bad source is reported once."""
        archive = tmp_path / "archive.jsonl"
        archive.write_text("")
        terms = tmp_path / "terms.json"
        terms.write_text(json.dumps({"terms": ["bleach", "hoax"]}))
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "archive": str(archive), "out_dir": str(tmp_path / "reports"),
            "misinfo": {"sources": [{"kind": "terms_file", "path": str(p)} for p in (terms, bad)]},
        }))
        assert main(["run", "--config", str(config)]) == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.out)
        assert (summary["records_in"], summary["misinfo_terms_added"]) == (0, 2)
        skipped = [line for line in captured.err.splitlines() if line.startswith("misinfo:")]
        assert skipped == [f'misinfo: skipped {bad}: not a JSON object with a "terms" list']


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
            # a count is a JSON integer, not a bool, a float or a string
            *(
                pytest.param("case_feed", {"date": "2020-03-02", "region": "madrid", "new_cases": count},
                             "new_cases", id=f"case_feed-new_cases-{count!r}")
                for count in (True, 2.7, "4", 3.0)
            ),
            ("evidence_feed", {"id": "ev-2", "source": "who.int", "location": "madrid",
                               "time": "2020-03-02T00:00:00Z", "terms": ["virus"]}, "kind"),
            # a NaN time lay within every lag tolerance, and so corroborated any cluster
            ("evidence_feed", {"id": "ev-2", "kind": "supporting", "source": "who.int", "location": "madrid",
                               "time": float("nan"), "terms": ["virus"]}, "time"),
            ("evidence_feed", {"id": "ev-2", "kind": "supporting", "source": "who.int", "location": "madrid",
                               "time": T0, "arrived_at": float("inf"), "terms": ["virus"]}, "arrived_at"),
            # a raw line is written as is, with the error it raises in place of a field
            *(
                pytest.param(feed, line, error, id=f"{feed}-{name}")
                for feed in ("case_feed", "evidence_feed")
                for name, line, error in [
                    ("not-utf8", "\udcff", "'utf-8' codec can't decode byte 0xff"),
                    ("nested", "[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
                ]
            ),
        ],
    )
    def test_malformed_line_names_file_line_and_field(self, tmp_path, capsys, feed, line, field):
        good = {
            "case_feed": {"date": "2020-03-01", "region": "madrid", "new_cases": 3},
            "evidence_feed": {"id": "ev-1", "kind": "supporting", "source": "who.int",
                              "location": "madrid", "time": "2020-03-01T00:00:00Z", "terms": ["virus"]},
        }[feed]
        if isinstance(line, dict):
            line, field = json.dumps(line), f"field {field!r}"
        path = tmp_path / f"{feed}.jsonl"
        path.write_text(json.dumps(good) + "\n\n" + line + "\n", encoding="utf-8", errors="surrogateescape")
        config = self._one_post_config(tmp_path, **{feed: str(path)})
        assert main(["run", "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert f"{path}, line 3: {field}" in err
        assert len(err.splitlines()) == 1

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
    change: a promotion is seen by the next post ingested, and nothing else
    rebuilds the union. The misinformation terms, read before the first
    post, are fixed in it."""

    def _counted_builds(self, monkeypatch):
        from driftstream.enrich.clean import Lexicons

        builds = []
        build = Lexicons._build

        def counted_build(self):
            builds.append(sorted(self.keywords.terms))
            build(self)

        monkeypatch.setattr(Lexicons, "_build", counted_build)
        return builds

    def _data(self, tmp_path, archive):
        terms = tmp_path / "terms.json"
        terms.write_text(json.dumps({"terms": ["bleach", "microchip", "5g towers"]}))
        return {
            "archive": str(archive),
            "out_dir": str(tmp_path / "reports"),
            "keywords": {"seeds": ["virus"]},
            "drift": {"min_count": 3, "slide_minutes": 1, "window_minutes": 1},
            "misinfo": {
                "seeds": ["plandemic"],
                "sources": [{"kind": "terms_file", "path": str(terms)}],
                "tombstones": ["microchip", "5g towers"],
            },
        }

    def test_a_promoted_term_matches_the_next_post_and_its_retweet(self, tmp_path, monkeypatch):
        from conftest import make_post

        from driftstream.pipeline.runner import PipelineRunner

        builds = self._counted_builds(monkeypatch)
        archive = tmp_path / "unused.jsonl"
        archive.write_text("")
        runner = PipelineRunner(parse_config(self._data(tmp_path, archive)))

        def ingest(post_id, text, seconds, retweet_of=None):
            """The post's EnrichedPost, as buffered at ingest."""
            runner.ingest_post(make_post(post_id, text, T0 + seconds, is_retweet_of=retweet_of))
            return runner._minute_buffers[(T0 + seconds) // 60][-1]

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

    def test_a_tombstoned_source_term_tags_nothing_and_grows_no_active_set(self, tmp_path, monkeypatch):
        """A source term tags from the first post on; a tombstoned one is
        held but never tags, and the union is built once."""
        from driftstream.pipeline.runner import PipelineRunner

        builds = self._counted_builds(monkeypatch)
        archive = tmp_path / "archive.jsonl"
        _write_archive(archive, [
            (1, 1, "drink bleach, plandemic", "twitter"),
            (2, 61, "drink bleach, microchip", "twitter"),
            (3, 121, "5g towers, microchip", "twitter"),
        ])
        runner = PipelineRunner(parse_config(self._data(tmp_path, archive)))
        runner.run()
        assert runner.misinfo_set.active == ("bleach", "plandemic")
        assert "5g towers" in runner.misinfo_set and "microchip" in runner.misinfo_set
        assert [row[1:] for row in runner.window_rows] == [(1, 1, "bleach;plandemic"), (1, 1, "bleach"), (1, 0, "")]
        assert builds == [["virus"]]


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
        reported once, and none of it reaches the bundle."""
        corpus = _fixture_corpus(tmp_path, minutes=5, rate=20)
        terms = tmp_path / "terms.json"
        terms.write_text(json.dumps({"terms": ["", "bleach"]}))
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        sources = [{"kind": "terms_file", "path": str(terms)}, {"kind": "terms_file", "path": str(bad)}]
        data = _base_config(tmp_path, corpus, misinfo={"sources": sources})
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
            pytest.param(["replay", "--archive", "a.jsonl", "--speed", speed], "--speed", id=f"{speed}-replay")
            for speed in ("abc", "0", "-2", "nan")
        ]
        # argparse refuses an action other than ``show`` before the handler runs
        + [pytest.param(["keywords", "bogus"], "'bogus'", id="keywords-bogus")],
    )
    def test_bad_speed_flag_exits_2(self, capsys, argv, named):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "where",
        ["archive", "case_feed", "evidence_feed", "misinfo.sources[0].path", "clusters", "report --out", "synth --out"],
    )
    def test_a_path_the_os_refuses_is_one_line_with_exit_2(self, tmp_path, capsys, where):
        """A 300-character file name, longer than a file system takes, ended
        in an ``OSError`` traceback (exit 1) in ``run`` for each input file
        of its config, in ``clusters`` and in ``report --out`` and ``synth
        --out``. Each now exits 2 with one line, as ``replay --out`` does;
        ``run`` names the setting."""
        long = str(tmp_path / ("x" * 300))
        archive = tmp_path / "a.jsonl"
        _write_archive(archive, [(1, 0, "corona news", "twitter")])
        if where == "clusters":
            argv = ["clusters", long]
        elif where == "report --out":
            argv = ["report", "--archive", str(archive), "--out", long]
        elif where == "synth --out":
            synth = tmp_path / "synth.json"
            synth.write_text(json.dumps({"seed": 1, "duration_minutes": 1}))
            argv = ["synth", "--config", str(synth), "--out", long]
        else:
            data = {"archive": str(archive), "out_dir": str(tmp_path / "reports")}
            if where.startswith("misinfo."):
                data["misinfo"] = {"sources": [{"path": long}]}
            else:
                data[where] = long
            config = tmp_path / "run.json"
            config.write_text(json.dumps(data))
            argv = ["run", "--config", str(config)]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        if argv[0] == "run":
            assert err[0].startswith(f"config error: {where}: ")

    @pytest.mark.parametrize("speed", ["max", "2", "abc", "0"])
    def test_run_speed_flag_is_refused(self, capsys, speed):
        """``run`` reads every input before its first post, so pacing it
        would change its wall time only: it has no ``--speed``, and argparse
        refuses the flag (exit 2)."""
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--config", "c.yaml", "--speed", speed])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --speed" in capsys.readouterr().err

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
        import time

        import driftstream.cli as cli
        from driftstream.core.log import DurableLog, LogAppendError
        from driftstream.core.records import StreamRecord
        from driftstream.sources.archive import posts_from_archive

        real = DurableLog.append_many
        calls = []

        def fail_second(self, records):
            calls.append(len(records))
            if len(calls) == 2:
                raise LogAppendError("disk full")
            return real(self, records)

        monkeypatch.setattr(DurableLog, "append_many", fail_second)
        now = 1583020800.625
        monkeypatch.setattr(time, "time", lambda: now)
        budget = 32 * 1024
        monkeypatch.setattr(cli, "REPLAY_BATCH_BYTES", budget)
        corpus = _fixture_corpus(tmp_path, minutes=10, rate=60)
        posts = list(posts_from_archive(corpus.archive_path))
        batches = _byte_batches([StreamRecord(p.to_payload(), None, p.created_at, now).to_bytes() for p in posts], budget)
        assert len(batches) >= 3
        out = tmp_path / "log"
        assert main(["replay", "--archive", str(corpus.archive_path), "--out", str(out)]) == 3
        assert "disk full" in capsys.readouterr().err
        assert calls == batches[:2]
        with DurableLog(out) as log:
            records = list(log.replay_from(0))
        assert [r.payload for r in records] == [p.to_payload() for p in posts[:batches[0]]]

    def test_paced_replay_commits_each_record_before_the_pause(self, tmp_path, monkeypatch, capsys):
        """At a numeric speed ``replay`` pauses before a post once it has
        read it; every post read before that one is durable by then."""
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
        monkeypatch.setattr(cli.time, "sleep", lambda seconds: pauses.append((yielded - 1, committed)))
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
        same batches leaves: a batch closes once its bodies hold
        ``REPLAY_BATCH_BYTES`` at ``max`` (made small here, so that the
        archive spans several), and each record is its own commit when
        paced. The archive holds retweets, legacy and fractional timestamps,
        strings JSON escapes and malformed lines."""
        import time

        import driftstream.cli as cli
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
        assert len(posts) == len(lines) - 4

        now = 1583020800.625
        monkeypatch.setattr(cli, "REPLAY_BATCH_BYTES", 16 * 1024)
        expected = [StreamRecord(p.to_payload(), None, p.created_at, now) for p in posts]
        batches = _byte_batches([r.to_bytes() for r in expected], cli.REPLAY_BATCH_BYTES if speed == "max" else 1)
        if speed == "max":
            assert 1 < len(batches) < len(posts)
        else:
            assert batches == [1] * len(posts)
        monkeypatch.setattr(time, "time", lambda: now)
        monkeypatch.setattr(time, "sleep", lambda seconds: None)
        out = tmp_path / "log"
        assert main(["replay", "--archive", str(path), "--speed", speed, "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["records_out"] == len(posts)
        with DurableLog(tmp_path / "expected") as log:
            start = 0
            for size in batches:
                log.append_many(expected[start:start + size])
                start += size
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
            # written as the byte 0xff
            (['{"term": "x", "promoted_at": 0}', "\udcff"], "line 2: 'utf-8' codec can't decode byte 0xff"),
            (["[" * 100_000 + "]" * 100_000], "line 1: maximum recursion depth exceeded"),
        ],
    )
    def test_keywords_show_bad_audit_exits_2(self, tmp_path, capsys, lines, message):
        audit = tmp_path / "keywords.jsonl"
        if lines is not None:
            audit.write_text("".join(line + "\n" for line in lines), encoding="utf-8", errors="surrogateescape")
        assert main(["keywords", "show", "--audit", str(audit)]) == 2
        err = capsys.readouterr().err
        assert str(audit) in err
        assert message in err
        assert len(err.splitlines()) == 1

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
            "config error: archive: file not found: '/ghost.jsonl'",
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

    @pytest.mark.parametrize(
        "content, status",
        [
            (b"{not json", None),
            (b'[{"id": "a", "status": "tentative"}, "\xff"]', None),
            (b"[" * 100000 + b"]" * 100000, None),
            (b'{"id": 1, "status": "refuted"}', None),
            (b'[{"id": 1}]', "refuted"),
            (b'[{"id": 1}]', None),
        ],
        ids=["bad-json", "not-utf8", "too-deep", "not-a-list", "no-status-filtered", "no-status"],
    )
    def test_clusters_on_a_malformed_export_is_one_line_with_exit_2(self, tmp_path, capsys, content, status):
        """An export that is not JSON, not UTF-8, nested past the recursion
        limit, not a list, or holds a cluster without a status ended in a
        traceback (exit 1); it is one line naming the file, with exit 2."""
        (tmp_path / "clusters.json").write_bytes(content)
        argv = ["clusters", str(tmp_path)] + (["--status", status] if status else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"{tmp_path / 'clusters.json'}: not a cluster export: ")

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
