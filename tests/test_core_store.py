"""Put, get and expiry of the retweet-match index, ``RecentMatches``.

The index replaced the generic TTL key-value store; these are that store's
basic contract checks, kept on the index that now holds its one use.
"""
from __future__ import annotations

from driftstream.keywords import RecentMatches


def test_get_on_empty_store_is_absent():
    store = RecentMatches(ttl=10.0)
    assert store.get(1) is None
    assert len(store) == 0
    assert store.sweep(5.0) == 0


def test_put_then_get():
    store = RecentMatches(ttl=10.0)
    store.put(1, ["flu"], now=0.0)
    assert store.get(1) == ["flu"]
    assert store.get(2) is None
    assert len(store) == 1


def test_expired_entry_is_absent():
    store = RecentMatches(ttl=1.0)
    store.put(1, ["flu"], now=0.0)
    assert store.sweep(2.0) == 1
    assert store.get(1) is None
    assert len(store) == 0
