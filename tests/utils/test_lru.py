"""The shared LRU: recency order, entry and byte bounds, and growing entries."""

from __future__ import annotations

from repro.utils.lru import LRUCache


def test_hits_move_to_the_back_and_the_entry_bound_pops_the_front():
    cache = LRUCache(1 << 20, cap=2)
    cache.setdefault("a", 1)
    cache.setdefault("b", 2)
    assert cache.get("a") == 1
    cache.setdefault("c", 3)
    assert list(cache._entries) == ["a", "c"]
    assert cache.get("b") is None


def test_an_entry_bound_alone_needs_no_byte_bound():
    cache = LRUCache(cap=2)
    for key in "abc":
        cache.setdefault(key, key.upper(), 1 << 40)
    assert list(cache._entries) == ["b", "c"] and len(cache) == 2


def test_a_value_over_the_byte_bound_is_refused():
    cache = LRUCache(100)
    cache.setdefault("a", "small", 60)
    assert cache.setdefault("b", "large", 101) == "large"
    assert list(cache._entries) == ["a"] and cache.nbytes == 60


def test_setdefault_on_a_stored_key_keeps_the_first_value_and_its_bytes():
    cache = LRUCache(100)
    assert cache.setdefault("a", "first", 60) == "first"
    assert cache.setdefault("a", "second", 30) == "first"
    assert cache.get("a") == "first" and cache.nbytes == 60


def test_setdefault_hits_move_to_the_back():
    cache = LRUCache(cap=2)
    cache.setdefault("a", 1)
    cache.setdefault("b", 2)
    assert cache.setdefault("a", 9) == 1  # a hit: now the most recent
    cache.setdefault("c", 3)  # evicts b, the least recent
    assert list(cache._entries) == ["a", "c"]


def test_a_growing_entry_evicts_older_ones_but_stays_itself():
    cache = LRUCache(100)
    cache.setdefault("a", "x", 40)
    cache.setdefault("b", "y", 40)
    cache.charge("b", "y", 30)
    assert list(cache._entries) == ["b"] and cache.nbytes == 70
    cache.charge("b", "y", 50)  # alone past the bound: the newest stays
    assert list(cache._entries) == ["b"] and cache.nbytes == 120
    cache.setdefault("c", "z", 10)
    assert list(cache._entries) == ["c"] and cache.nbytes == 10


def test_a_charge_for_a_value_no_longer_stored_is_dropped():
    cache = LRUCache(100, cap=1)
    cache.setdefault("a", "first", 10)
    cache.setdefault("b", "other", 10)  # evicts a
    cache.setdefault("a", "second", 10)  # evicts b
    cache.charge("a", "first", 50)
    cache.charge("gone", "value", 50)
    assert cache.nbytes == 10 and cache._sizes == {"a": 10}


def test_clear_empties_it():
    cache = LRUCache(100, cap=4)
    cache.setdefault("a", 1, 10)
    cache.clear()
    assert cache.get("a") is None and cache.nbytes == 0 and not cache._sizes
