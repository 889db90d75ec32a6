"""Tiny-scale runs of every workload through the benchmark command, and its checks."""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_smoke(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0.1", "--trace", trace, "--scale", "0.02")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "firehose", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _write_bundle(path: Path, statuses: dict, changes: list, windows: list, months: list) -> dict:
    path.mkdir()
    (path / "summary.json").write_text(json.dumps(
        {"records_in": 5, "discarded": 1, "rejections": {"bad_json": 1}}
    ))
    for name, header, rows in (
        ("windows.csv", ["window_start", "posts_in", "tagged", "top_terms"], windows),
        ("month.csv", ["month", "count"], months),
        ("changes.csv", ["cluster_id", "old_status", "new_status", "evidence_id"], changes),
    ):
        with open(path / name, "w", newline="") as f:
            csv.writer(f).writerows([header, *rows])
    (path / "clusters.json").write_text(json.dumps([{"id": k, "status": v} for k, v in statuses.items()]))
    return {"bundle": str(path)}


MANIFEST = {"lines": 6, "planted": {"bad_json": 1}}
GOOD = dict(
    statuses={"a": "refuted", "b": "tentative"},
    changes=[["a", "tentative", "corroborated", "e1"], ["a", "corroborated", "refuted", "e2"]],
    windows=[["60", "3", "0", ""], ["120", "1", "0", ""]],
    months=[["2020-03", "4"]],
)


def test_pipeline_checks_pass_on_a_consistent_bundle(tmp_path):
    problems, failed, defects = run.check_pipeline(_write_bundle(tmp_path / "b", **GOOD), MANIFEST)
    assert problems == [] and failed == 0
    assert defects == {"misinfo.duplicate_window_rows": 0}


@pytest.mark.parametrize("field, value", [
    ("statuses", {"a": "corroborated", "b": "tentative"}),  # not its last change
    ("windows", [["60", "3", "0", ""], ["120", "2", "0", ""]]),  # posts_in over-counts
    ("months", [["2020-03", "3"]]),  # month rows under-count
])
def test_pipeline_checks_catch_inconsistent_bundles(tmp_path, field, value):
    problems, _, _ = run.check_pipeline(_write_bundle(tmp_path / "b", **{**GOOD, field: value}), MANIFEST)
    assert problems


def test_unplanted_rejection_counts_as_failed(tmp_path):
    report = _write_bundle(tmp_path / "b", **GOOD)
    problems, failed, _ = run.check_pipeline(report, {"lines": 6, "planted": {"bad_id": 1}})
    assert problems and failed == 1  # the bad_json rejection was not planted


def test_duplicate_window_rows_are_counted_not_gated(tmp_path):
    windows = [["60", "2", "0", ""], ["120", "1", "0", ""], ["60", "1", "0", ""]]
    report = _write_bundle(tmp_path / "b", **{**GOOD, "windows": windows})
    problems, _, defects = run.check_pipeline(report, MANIFEST)
    assert problems == [] and defects["misinfo.duplicate_window_rows"] == 1
