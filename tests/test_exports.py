"""Every driftstream module imports, and every name in its ``__all__``
resolves, so a deleted name cannot linger in a package's exports."""

from __future__ import annotations

import importlib
import pkgutil

import driftstream


def _module_names() -> list[str]:
    return ["driftstream"] + [
        info.name for info in pkgutil.walk_packages(driftstream.__path__, "driftstream.")
    ]


def test_every_module_imports_and_exports_only_names_it_defines():
    stale = []
    for name in _module_names():
        module = importlib.import_module(name)
        stale.extend(f"{name}.{attr}" for attr in getattr(module, "__all__", ()) if not hasattr(module, attr))
    assert stale == []
    assert "driftstream.pipeline.runner" in _module_names()
