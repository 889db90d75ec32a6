"""Every driftstream module imports, together and on its own, every name in
its ``__all__`` resolves, and each entry point loads only the modules it
runs."""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import driftstream


def _module_names() -> list[str]:
    return ["driftstream"] + [
        info.name for info in pkgutil.walk_packages(driftstream.__path__, "driftstream.")
    ]


def _python(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this checkout."""
    src = str(Path(driftstream.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True, text=True, timeout=120,
    )


def _loaded_after(script: str, *args: str) -> set[str]:
    """The driftstream modules loaded once ``script`` has run."""
    done = _python(
        script + "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('driftstream'))))\n",
        *args,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def _under(loaded: set[str], packages: tuple[str, ...]) -> list[str]:
    return sorted(m for m in loaded if any(m == p or m.startswith(p + ".") for p in packages))


def test_every_module_imports_and_exports_only_names_it_defines():
    stale = []
    for name in _module_names():
        module = importlib.import_module(name)
        stale.extend(f"{name}.{attr}" for attr in getattr(module, "__all__", ()) if not hasattr(module, attr))
    assert stale == []
    assert "driftstream.pipeline.runner" in _module_names()


@pytest.mark.parametrize("name", _module_names())
def test_module_imports_alone(name):
    """One module per fresh interpreter: an import cycle that only one entry
    order triggers fails here, where importing every module in walk order
    would hide it."""
    done = _python(f"import {name}")
    assert done.returncode == 0, done.stderr


def _archive(tmp_path: Path) -> Path:
    archive = tmp_path / "archive.jsonl"
    archive.write_text(json.dumps(
        {"id": 1, "created_at": "2020-03-01T00:00:00Z", "text": "virus in madrid", "lang": "en"}
    ) + "\n")
    return archive


def test_replay_loads_only_the_log_and_the_archive_reader(tmp_path):
    loaded = _loaded_after(
        "import sys\n"
        "from driftstream.cli import main\n"
        "assert main(['replay', '--archive', sys.argv[1], '--out', sys.argv[2]]) == 0\n",
        str(_archive(tmp_path)), str(tmp_path / "log"),
    )
    assert "driftstream.core.log" in loaded
    assert _under(loaded, tuple("driftstream." + p for p in (
        "pipeline", "drift", "enrich", "corroboration", "analytics", "misinfo", "keywords",
        "sources.synthetic",
    ))) == []


def test_pipeline_run_loads_neither_the_cli_nor_the_corpus_generator(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "seed": 1, "archive": str(_archive(tmp_path)), "out_dir": str(tmp_path / "reports"),
        "enrichment": {"gazetteer": ["madrid"]},
    }))
    loaded = _loaded_after(
        "import sys\n"
        "from driftstream.pipeline.config import load_config\n"
        "from driftstream.pipeline.runner import PipelineRunner\n"
        "PipelineRunner(load_config(sys.argv[1])).run()\n",
        str(config),
    )
    assert "driftstream.analytics.correlation" in loaded
    assert _under(loaded, ("driftstream.cli", "driftstream.sources.synthetic")) == []
