"""The driftstream benchmark: one command, seeded inputs, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload firehose --seed 1 --seconds 30 --trace 0

Workloads (see ``corpus.py`` for why each exists): ``firehose``, ``multiday``
and ``replay_log``. All are closed-loop batch replays at ``speed: max`` from
one process: the runner reads a file, so a timed open-loop rate would not
mean anything here.

Each repetition runs in a fresh single-threaded child process, one at a time,
with BLAS pools pinned to one thread. ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics. Timings are scaled to nominal
host speed by a reference job timed beside them (see ``REFERENCE_NOMINAL_S``).
Every repetition is checked;
the last stdout line is the result object, and a failed check exits 1.
Inputs are cached per seed under ``.bench_cache/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
KINDS = {"firehose": "pipeline", "multiday": "pipeline", "replay_log": "replay"}
MIN_SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150.0
# Scale of the host-speed correction: timings are reported as if the
# reference job (``child.reference_s``) took this long.
REFERENCE_NOMINAL_S = {"pipeline": 0.1, "replay": 0.2}
DEADLINE_S = 165.0  # stop starting repetitions past this, to exit within 180 s
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


# -- children ----------------------------------------------------------------------


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("DRIFTSTREAM_")}
    env["PYTHONPATH"] = str(root / "src")
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def run_child(root: Path, spec: dict, timeout: float) -> tuple[float, dict]:
    """(setup seconds, report) of one child: spawn to READY, then its JSON line."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        cwd=root, env=child_env(root), stdout=subprocess.PIPE, text=True,
    )
    try:
        if not select.select([proc.stdout], [], [], timeout)[0]:
            raise BenchError(f"child {spec['kind']} not ready after {timeout:.0f} s")
        first = proc.stdout.readline()
        setup = time.perf_counter() - started
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {spec['kind']} still running after {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"child {spec['kind']} exited with {proc.returncode} before reporting")
    lines = out.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else {})


# -- checks -----------------------------------------------------------------------


def _read_csv(path: Path) -> list[list[str]]:
    import csv

    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))[1:]


def bundle_digest(bundle: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(bundle.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def check_pipeline(report: dict, manifest: dict) -> tuple[list[str], int, dict]:
    """(failed checks, failed operations, defect counts) of one pipeline run."""
    bundle = Path(report["bundle"])
    summary = json.loads((bundle / "summary.json").read_text())
    problems = []
    lines, planted = manifest["lines"], manifest["planted"]
    records, rejections = summary["records_in"], summary["rejections"]
    if rejections != planted:
        problems.append(f"rejections {rejections} differ from planted {planted}")
    if records + sum(rejections.values()) != lines:
        problems.append(f"{records} records + {sum(rejections.values())} rejections != {lines} lines")
    reasons = set(rejections) | set(planted)
    failed = abs(lines - sum(planted.values()) - records) + sum(
        max(0, rejections.get(r, 0) - planted.get(r, 0)) for r in reasons
    )
    kept = records - summary["discarded"]

    windows = _read_csv(bundle / "windows.csv")
    if sum(int(row[1]) for row in windows) != kept:
        problems.append("windows.csv posts_in does not sum to records_in - discarded")
    if sum(int(row[1]) for row in _read_csv(bundle / "month.csv")) != kept:
        problems.append("month.csv counts do not sum to records_in - discarded")

    last_change = {row[0]: row[2] for row in _read_csv(bundle / "changes.csv")}
    clusters = {c["id"]: c["status"] for c in json.loads((bundle / "clusters.json").read_text())}
    for cid, status in clusters.items():
        if status != last_change.get(cid, "tentative"):
            problems.append(f"cluster {cid} is {status}, its last change says {last_change.get(cid)}")
            break
    if set(last_change) - set(clusters):
        problems.append("changes.csv names clusters missing from clusters.json")

    defects = {"misinfo.duplicate_window_rows": len(windows) - len({row[0] for row in windows})}
    report["digest"] = bundle_digest(bundle)
    return problems, failed, defects


def check_replay(report: dict, manifest: dict) -> tuple[list[str], int, dict]:
    problems = []
    expected = report["expected_records"]
    replay = report["replay"]
    if expected + sum(manifest["planted"].values()) != manifest["lines"]:
        problems.append("valid records plus planted rejections do not equal the lines generated")
    if replay["records_in"] != expected or replay["records_out"] != expected or replay["errors"]:
        problems.append(f"replay reported {replay}, expected {expected} records")
    if report["read_back_failed"]:
        problems.append(f"{report['read_back_failed']} records not read back identically")
    failed = report["read_back_failed"] + abs(replay["records_out"] - expected)
    return problems, failed, {}


CHECKS = {"pipeline": check_pipeline, "replay": check_replay}


# -- environment ----------------------------------------------------------------------


def environment(path: Path) -> dict:
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cpu_model": "unknown",
        "log_filesystem": "unknown",
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
        best = ""
        resolved = str(path.resolve())
        for line in Path("/proc/mounts").read_text().splitlines():
            fields = line.split()
            mount = fields[1]
            if resolved.startswith(mount) and len(mount) >= len(best):
                best, env["log_filesystem"] = mount, f"{fields[2]} on {mount}"
    except OSError:
        pass
    return env


# -- the run --------------------------------------------------------------------------


def load_metric_units(root: Path) -> tuple[dict, dict]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def median_metrics(samples: list[dict]) -> dict:
    keys = set().union(*samples) if samples else set()
    return {k: statistics.median(s[k] for s in samples) for k in sorted(keys)}


def run(args: argparse.Namespace, root: Path, work: Path) -> tuple[dict, dict, dict]:
    """(run record, end-to-end metrics, per-layer metrics) of one benchmark run."""
    sys.path.insert(0, str(root / "src"))
    from corpus import ensure_corpus, prune_cache

    began = time.perf_counter()
    kind = KINDS[args.workload]
    corpora = root / ".bench_cache" / "corpora"
    corpus_dir, manifest = ensure_corpus(corpora, args.workload, args.seed, args.scale)
    prune_cache(corpora, keep=corpus_dir)
    check = CHECKS[kind]

    results = root / ".bench_cache" / "results"
    results.mkdir(parents=True, exist_ok=True)
    spans = results / f"{args.workload}-spans.jsonl"  # the latest traced repetition

    def child(trace: bool, setup_only: bool = False) -> tuple[float, dict]:
        spec = {"kind": kind, "corpus": str(corpus_dir), "work": str(work), "trace": trace,
                "seed": args.seed, "setup_only": setup_only, "spans": str(spans)}
        return run_child(root, spec, CHILD_TIMEOUT_S)

    child(False, setup_only=True)  # warm-up: byte-compiles imports once per checkout

    setups, plain, traced = [], [], []
    problems, attempted, failed, digests, defects = {}, 0, 0, set(), {}
    measure_start = time.perf_counter()
    while True:
        for trace in ((False, True) if args.trace else (False,)):
            setup, report = child(trace)
            issues, lost, found = check(report, manifest)
            problems.update(dict.fromkeys(issues))
            attempted += manifest["lines"]
            failed += lost
            defects.update(found)
            digests.add(report["digest"])
            (traced if trace else plain).append(report)
            if not trace:
                setups.append((setup, report["reference_s"][0]))
        elapsed = time.perf_counter() - measure_start
        if len(plain) >= 2 and elapsed >= args.seconds or time.perf_counter() - began > DEADLINE_S:
            break
    while not args.trace and len(setups) < MIN_SETUP_SAMPLES:
        setup, report = child(False, setup_only=True)
        setups.append((setup, report["reference_s"][0]))
    if len(digests) != 1:
        problems[f"bundle digest differs between runs: {sorted(digests)}"] = None

    # Host-speed correction. Other tenants of a shared host slow a core by up
    # to 2x in phases of seconds and move its mean speed by a third over
    # minutes. Each child times a fixed reference job right before and after
    # the measured call; timings are reported as if that job took ``nominal``
    # seconds, which keeps the program's cost and drops the host's.
    nominal = REFERENCE_NOMINAL_S[kind]
    valid = manifest["lines"] - sum(manifest["planted"].values())
    walls = [r["wall_s"] for r in plain]

    def scaled_seconds(reports: list[dict]) -> float:
        """Wall time per repetition over all ``reports``, at nominal host speed."""
        wall = sum(r["wall_s"] for r in reports)
        reference = sum(statistics.mean(r["reference_s"]) for r in reports)
        return wall / reference * nominal

    end_to_end = {
        "setup_s": statistics.median(s * nominal / ref for s, ref in setups),
        # Totals over the run, not a median of repetitions: a repetition
        # and the reference beside it often fall in different speed phases,
        # and only their sums over the run average those phases alike.
        "posts_per_s": valid / scaled_seconds(plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    per_layer = {}
    if args.trace:
        per_layer = median_metrics([r["metrics"] for r in traced])
        per_layer["misinfo.duplicate_window_rows"] = defects.get("misinfo.duplicate_window_rows", 0)
        per_layer["pipeline.tracing_overhead"] = scaled_seconds(traced) / scaled_seconds(plain) - 1.0
        per_layer["core.log_readback_posts_per_s"] = (
            statistics.median(r["readback_records"] / r["readback_s"] for r in plain)
            if kind == "replay" else 0.0
        )

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "corpus": manifest,
        "bundle_sha256": sorted(digests),
        "environment": environment(work),
        "repetitions": len(plain),
        "traced_repetitions": len(traced),
        "setup_s_samples": [s for s, _ in setups],
        "setup_reference_s_samples": [ref for _, ref in setups],
        "wall_s_samples": walls,
        "reference_s_samples": [r["reference_s"] for r in plain],
        "unscaled": {
            "setup_s": statistics.median(s for s, _ in setups),
            "posts_per_s": valid * len(walls) / sum(walls),
        },
        "traced_wall_s_samples": [r["wall_s"] for r in traced],
        "missing_hooks": sorted({h for r in traced for h in r.get("missing_hooks", [])}),
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": list(problems),
    }
    return record, end_to_end, per_layer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(KINDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the inputs (smoke tests only; measurements use 1)")
    args = parser.parse_args(argv)

    # A terminated benchmark unwinds, so the child it is waiting on is killed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "driftstream" / "__init__.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("perfbench: run from the repository root (src/driftstream and BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    end_units, layer_units = load_metric_units(root)
    work = root / ".bench_cache" / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        record, end_to_end, per_layer = run(args, root, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values, units = (per_layer, layer_units) if args.trace else (end_to_end, end_units)
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 3
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record["metrics"] = metrics
    results = root / ".bench_cache" / "results"
    (results / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2))
    for hook in record["missing_hooks"]:
        print(f"perfbench: trace hook not found, its metrics read 0: {hook}", file=sys.stderr)
    for problem in record["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed")} | {"metrics": metrics}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
