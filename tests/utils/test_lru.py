"""The shared LRU: recency order, entry and byte bounds, and growing entries."""

from __future__ import annotations

from repro.utils.lru import LRUCache


def test_hits_move_to_the_back_and_the_entry_bound_pops_the_front():
    cache = LRUCache(1 << 20, cap=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1
    cache.put("c", 3)
    assert list(cache._entries) == ["a", "c"]
    assert cache.get("b") is None


def test_a_value_over_the_byte_bound_is_refused():
    cache = LRUCache(100)
    cache.put("a", "small", 60)
    cache.put("b", "large", 101)
    assert list(cache._entries) == ["a"] and cache.nbytes == 60


def test_storing_a_key_again_replaces_its_bytes():
    cache = LRUCache(100)
    cache.put("a", "old", 60)
    cache.put("a", "new", 30)
    assert cache.get("a") == "new" and cache.nbytes == 30


def test_a_growing_entry_evicts_older_ones_but_stays_itself():
    cache = LRUCache(100)
    cache.put("a", "x", 40)
    cache.put("b", "y", 40)
    cache.charge("b", "y", 30)
    assert list(cache._entries) == ["b"] and cache.nbytes == 70
    cache.charge("b", "y", 50)  # alone past the bound: the newest stays
    assert list(cache._entries) == ["b"] and cache.nbytes == 120
    cache.put("c", "z", 10)
    assert list(cache._entries) == ["c"] and cache.nbytes == 10


def test_a_charge_for_a_replaced_value_is_dropped():
    cache = LRUCache(100)
    cache.put("a", "first", 10)
    cache.put("a", "second", 10)
    cache.charge("a", "first", 50)
    cache.charge("gone", "value", 50)
    assert cache.nbytes == 10 and cache._sizes == {"a": 10}


def test_clear_empties_it():
    cache = LRUCache(100, cap=4)
    cache.put("a", 1, 10)
    cache.clear()
    assert cache.get("a") is None and cache.nbytes == 0 and not cache._sizes
