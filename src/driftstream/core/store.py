"""Shared key-value store with per-key TTL expiry.

Pipeline stages use this to share state (promoted keywords, recent matched
post ids, the location cache). Safe for concurrent access from multiple
threads; each put/get is atomic per key.
"""

from __future__ import annotations

import threading
from typing import Any, Optional

from ..timeutil import Clock


class SharedStore:
    def __init__(self, clock: Optional[Clock] = None):
        self._clock = clock or Clock()
        self._lock = threading.Lock()
        self._entries: dict[str, tuple[Any, Optional[float]]] = {}

    def put(self, key: str, value: Any, ttl: Optional[float] = None) -> None:
        """Store ``value`` under ``key``; overwrites value and expiry."""
        expiry = None if ttl is None else self._clock.now() + ttl
        with self._lock:
            self._entries[key] = (value, expiry)

    def get(self, key: str, default: Any = None) -> Any:
        """Latest unexpired value, or ``default`` if absent or expired."""
        now = self._clock.now()
        with self._lock:
            hit = self._entries.get(key)
            if hit is None:
                return default
            value, expiry = hit
            if expiry is not None and now >= expiry:
                del self._entries[key]
                return default
            return value

    def contains(self, key: str) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def delete(self, key: str) -> None:
        with self._lock:
            self._entries.pop(key, None)

    def keys(self, prefix: str = "") -> list[str]:
        """Unexpired keys with the given prefix, sorted."""
        now = self._clock.now()
        with self._lock:
            live = [
                k
                for k, (_, expiry) in self._entries.items()
                if k.startswith(prefix) and (expiry is None or now < expiry)
            ]
        return sorted(live)

    def sweep(self) -> int:
        """Drop expired entries; returns how many were removed."""
        now = self._clock.now()
        with self._lock:
            dead = [
                k
                for k, (_, expiry) in self._entries.items()
                if expiry is not None and now >= expiry
            ]
            for k in dead:
                del self._entries[k]
        return len(dead)

    def __len__(self) -> int:
        return len(self.keys())
