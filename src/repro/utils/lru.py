"""A small process-wide LRU, bounded in entries and in bytes, shared by threads."""

from __future__ import annotations

import threading
from collections.abc import Hashable
from typing import Any


class LRUCache:
    """``key -> value`` in LRU order: hits move to the back, eviction pops the front.

    Each entry is charged the bytes its owner declares, when it is stored
    (:meth:`setdefault`) and again whenever it grows (:meth:`charge`).
    Before either, entries are evicted from the front until the cache stays
    within ``cap`` entries and ``cap_bytes`` bytes (no bound when ``None``)
    — but the newest entry always stays, so an entry that outgrows the byte
    bound alone is kept until something newer arrives.  A value whose bytes
    pass the bound *before* it is stored is refused instead.  One lock makes
    every method safe to call from any thread of the process.
    """

    def __init__(self, cap_bytes: "int | None" = None, cap: "int | None" = None):
        self.cap_bytes = cap_bytes
        self.cap = cap
        self.nbytes = 0
        self._entries: "dict[Hashable, Any]" = {}
        self._sizes: "dict[Hashable, int]" = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Any:
        """The value under ``key``, now the most recent, or ``None``."""
        with self._lock:
            value = self._entries.pop(key, None)
            if value is not None:
                self._entries[key] = value  # re-insertion moves the hit to the back
            return value

    def setdefault(self, key: Hashable, value: Any, nbytes: int = 0) -> Any:
        """The value under ``key`` as :meth:`get` finds it; else ``value``, stored.

        A miss stores ``value`` as the newest entry, charged ``nbytes``, so
        of the threads that miss one key together, every one gets the value
        stored first.  A value over the byte bound is returned, not stored.
        """
        with self._lock:
            stored = self._entries.pop(key, None)
            if stored is not None:
                self._entries[key] = stored
                return stored
            if self.cap_bytes is None or nbytes <= self.cap_bytes:
                self._evict(key, nbytes, room=1)
                self._entries[key] = value
                self._sizes[key] = nbytes
                self.nbytes += nbytes
            return value

    def charge(self, key: Hashable, value: Any, nbytes: int) -> None:
        """Charge ``nbytes`` more to ``key``'s entry if it still holds ``value``."""
        with self._lock:
            if self._entries.get(key) is value and self._evict(key, nbytes, room=0):
                self._sizes[key] += nbytes
                self.nbytes += nbytes

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._sizes.clear()
            self.nbytes = 0

    def _evict(self, key: Hashable, nbytes: int, room: int) -> bool:
        """Pop the oldest entries until ``room`` more entries and ``nbytes`` fit; lock held.

        Evicting before the caller stores or charges keeps ``len()`` and
        ``nbytes`` within the bounds at every moment a reader without the
        lock could see them.  False when ``key`` itself was evicted: a
        growing entry that was the oldest takes its charge with it.
        """
        entries = self._entries
        while len(entries) + room > 1 and (
            (self.cap_bytes is not None and self.nbytes + nbytes > self.cap_bytes)
            or (self.cap is not None and len(entries) + room > self.cap)
        ):
            oldest = next(iter(entries))
            del entries[oldest]
            self.nbytes -= self._sizes.pop(oldest)
            if oldest == key:
                return False
        return True
