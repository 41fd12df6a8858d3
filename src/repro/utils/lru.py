"""A small process-wide LRU, bounded in entries and in bytes, shared by threads."""

from __future__ import annotations

import threading
from collections.abc import Hashable
from typing import Any


class LRUCache:
    """``key -> value`` in LRU order: hits move to the back, eviction pops the front.

    Each entry is charged the bytes its owner declares, when it is stored
    (:meth:`put`) and again whenever it grows (:meth:`charge`).  After either,
    entries are evicted from the front until the cache is back within
    ``cap`` entries (no bound when ``None``) and ``cap_bytes`` bytes — but
    the newest entry always stays, so an entry that outgrows the byte bound
    alone is kept until something newer arrives.  A value whose bytes pass
    the bound *before* it is stored is refused instead.  One lock makes
    every method safe to call from any thread of the process.
    """

    def __init__(self, cap_bytes: int, cap: "int | None" = None):
        self.cap_bytes = cap_bytes
        self.cap = cap
        self.nbytes = 0
        self._entries: "dict[Hashable, Any]" = {}
        self._sizes: "dict[Hashable, int]" = {}
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Any:
        """The value under ``key``, now the most recent, or ``None``."""
        with self._lock:
            value = self._entries.pop(key, None)
            if value is not None:
                self._entries[key] = value  # re-insertion moves the hit to the back
            return value

    def put(self, key: Hashable, value: Any, nbytes: int = 0) -> None:
        """Store ``value`` under ``key`` as the newest entry, charged ``nbytes``."""
        if nbytes > self.cap_bytes:
            return
        with self._lock:
            if self._entries.pop(key, None) is not None:
                self.nbytes -= self._sizes.pop(key)
            self._entries[key] = value
            self._sizes[key] = 0
            self._charge(key, nbytes)

    def charge(self, key: Hashable, value: Any, nbytes: int) -> None:
        """Charge ``nbytes`` more to ``key``'s entry if it still holds ``value``."""
        with self._lock:
            if self._entries.get(key) is value:
                self._charge(key, nbytes)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._sizes.clear()
            self.nbytes = 0

    def _charge(self, key: Hashable, nbytes: int) -> None:
        """Count ``nbytes`` against ``key``, evicting to the bounds first; lock held.

        Evicting first keeps ``nbytes`` within the byte bound at every
        moment a reader without the lock could see it.
        """
        entries = self._entries
        while len(entries) > 1 and (
            self.nbytes + nbytes > self.cap_bytes
            or (self.cap is not None and len(entries) > self.cap)
        ):
            oldest = next(iter(entries))
            del entries[oldest]
            self.nbytes -= self._sizes.pop(oldest)
            if oldest == key:  # the growing entry was the oldest: its charge goes with it
                return
        self._sizes[key] += nbytes
        self.nbytes += nbytes
