"""Content-addressed on-disk result store.

Each entry is addressed by a :meth:`~repro.runtime.spec.RunSpec.content_key`
and stored as one file, ``<shard>/<key>.entry``, sharded by the first two hex
digits of the key.  The file is :func:`~repro.runtime.results.pack`'s byte
string: a length-prefixed JSON header (the encoded result's metadata, key,
label, creation time, and each array's dtype and shape), then the raw array
bytes.  The store is versioned — entries live under ``v{SPEC_VERSION}/`` so a
change to the canonical serialization scheme starts a fresh namespace instead
of serving stale bytes — and size-capped with least-recently-*used* eviction
(the entry's mtime is touched on every hit).  :meth:`ResultCache.clear` also
removes the older ``v<N>/`` namespaces a version bump strands.

Configuration follows the environment:

* ``REPRO_CACHE_DIR`` — cache root (default ``~/.cache/repro``);
* ``REPRO_CACHE_MAX_BYTES`` — size cap (default 2 GiB; ``0`` disables
  eviction).

Pool workers never write the cache (they return payloads over the pipe);
sessions and the daemon's threads do, and several of them may share one
directory.  Every write goes through a temp file named for its writer
(process and thread id) and one ``os.replace``, so two writers of the same key
never truncate or rename each other's temp file, and an entry either exists
whole or does not exist.  An entry that does not unpack (a damaged disk, a
file written by something else) reads as a miss, which recomputes.
"""

from __future__ import annotations

import logging
import os
import re
import shutil
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.resilience import fault_point
from repro.telemetry import metrics, span
from repro.utils.serialization import SPEC_VERSION
from repro.runtime.results import decode_result, encode_result, pack, read_header, unpack

logger = logging.getLogger("repro.runtime.cache")

#: Environment override for the cache root directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment override for the eviction size cap (bytes).
CACHE_MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"

#: Default size cap: 2 GiB.
DEFAULT_MAX_BYTES = 2 * 1024**3

#: Returned by :meth:`ResultCache.get` misses (``None`` is a valid value).
MISS = object()


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


def _writer_tmp(path: Path) -> Path:
    """This writer's temp file for ``path``: ``<name>.<pid>.<thread id>.tmp``.

    Never matches the ``*.entry`` glob that lists entries.
    """
    return path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")


@dataclass(frozen=True)
class CacheEntry:
    """Metadata of one stored result (what ``cache ls`` prints)."""

    key: str
    kind: str
    size_bytes: int
    created: float
    last_used: float
    label: str | None = None


class ResultCache:
    """Content-addressed ``key → result`` store on disk.

    Parameters
    ----------
    directory:
        Cache root; defaults to :func:`default_cache_dir`.  The versioned
        namespace ``v{SPEC_VERSION}`` is appended automatically.
    max_bytes:
        LRU size cap; defaults to ``$REPRO_CACHE_MAX_BYTES`` or 2 GiB.
        ``0`` disables eviction.
    """

    def __init__(
        self,
        directory: "str | Path | None" = None,
        *,
        max_bytes: int | None = None,
    ):
        root = Path(directory).expanduser() if directory is not None else default_cache_dir()
        self.directory = root / f"v{SPEC_VERSION}"
        if max_bytes is None:
            env = os.environ.get(CACHE_MAX_BYTES_ENV)
            max_bytes = int(env) if env else DEFAULT_MAX_BYTES
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self.hits = 0
        self.misses = 0
        # Approximate store size, maintained incrementally so a sweep's
        # per-put eviction check is O(1); a full rescan happens only when
        # the estimate crosses the cap (inside _evict).
        self._approx_bytes: int | None = None

    # ----------------------------------------------------------------- layout

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.entry"

    # ------------------------------------------------------------------ access

    def get(self, key: str, default: Any = MISS) -> Any:
        """The decoded result for ``key``, or ``default`` on a miss.

        A cache that cannot be read degrades to a miss, never to a failed
        point: unreadable shards and entries that do not unpack all
        recompute (counted in ``resilience.fallbacks``).
        """
        return self._read(key, default, decode=True)

    def get_entry(self, key: str) -> "bytes | None":
        """The stored bytes for ``key`` (checked to unpack), or ``None``.

        A hit or a miss exactly as for :meth:`get`, without decoding: the
        daemon's ``result`` op sends these bytes as they are.
        """
        return self._read(key, None, decode=False)

    def _read(self, key: str, default: Any, *, decode: bool) -> Any:
        with span("cache.get") as sp:
            try:
                value = self._get(key, default, decode)
            except (OSError, ValueError, KeyError) as exc:
                logger.warning(
                    "cache read failed for %s (%s: %s); recomputing",
                    key[:12], type(exc).__name__, exc,
                )
                metrics.incr("resilience.fallbacks")
                metrics.incr("cache.get_failures")
                self.misses += 1
                value = default
            hit = value is not default
            sp.set(hit=hit)
        metrics.incr("cache.hits" if hit else "cache.misses")
        return value

    def _get(self, key: str, default: Any, decode: bool) -> Any:
        fault_point("cache.get")
        path = self._path(key)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            self.misses += 1
            return default
        header, arrays = unpack(data)
        value = decode_result(header["result"], arrays) if decode else data
        try:
            now = time.time()
            os.utime(path, (now, now))  # LRU recency bump
        except OSError:
            # The entry was evicted/cleared by a concurrent session between
            # the read and the bump; the value in hand is still good.
            pass
        self.hits += 1
        return value

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def put(self, key: str, value: Any, *, label: str | None = None) -> None:
        """Encode and store ``value`` under ``key`` (atomic, then evict)."""
        meta, arrays = encode_result(value)
        self.put_encoded(key, meta, arrays, label=label)

    def put_encoded(
        self,
        key: str,
        meta: dict,
        arrays: dict[str, np.ndarray],
        *,
        label: str | None = None,
    ) -> None:
        """Store an already-encoded ``(meta, arrays)`` pair (the worker path).

        Degrades gracefully: an :class:`OSError` (full disk, read-only or
        quarantined shard) is logged and counted, never raised — the caller
        keeps its computed result, it simply stays uncached, and the
        writer's temp file is removed.
        """
        with span("cache.put", arrays=len(arrays)) as sp:
            try:
                self._put_encoded(key, meta, arrays, label=label)
            except OSError as exc:
                sp.set(failed=True)
                logger.warning(
                    "cache write failed for %s (%s: %s); "
                    "result stays uncached",
                    key[:12], type(exc).__name__, exc,
                )
                metrics.incr("resilience.fallbacks")
                metrics.incr("cache.put_failures")
                try:
                    _writer_tmp(self._path(key)).unlink(missing_ok=True)
                except OSError:
                    pass
                return
        metrics.incr("cache.puts")

    def _put_encoded(
        self,
        key: str,
        meta: dict,
        arrays: dict[str, np.ndarray],
        *,
        label: str | None = None,
    ) -> None:
        fault_point("cache.put")
        data = pack(meta, arrays, key=key, label=label, created=time.time())
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = _writer_tmp(path)
        with open(tmp, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
        if self.max_bytes:
            if self._approx_bytes is not None:
                self._approx_bytes += len(data)
            if self._approx_bytes is None or self._approx_bytes > self.max_bytes:
                self._evict()

    # -------------------------------------------------------------- inventory

    def _scan(self) -> "list[tuple[float, int, Path]]":
        """``(last used, size, path)`` per entry: one ``stat`` each, no reads."""
        found = []
        for path in self.directory.glob("*/*.entry"):
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - concurrent removal
                continue
            found.append((stat.st_mtime, stat.st_size, path))
        return found

    def entries(self) -> list[CacheEntry]:
        """Every stored entry, most recently used first (reads each header)."""
        found: list[CacheEntry] = []
        for last_used, size, path in self._scan():
            try:
                header = read_header(path)
            except (OSError, ValueError):  # pragma: no cover - races, damage
                continue
            found.append(
                CacheEntry(
                    key=header.get("key", path.stem),
                    kind=header["result"].get("kind", "?"),
                    size_bytes=size,
                    created=header.get("created", last_used),
                    last_used=last_used,
                    label=header.get("label"),
                )
            )
        return sorted(found, key=lambda e: e.last_used, reverse=True)

    def stats(self) -> dict:
        """Entry count, byte total and the session's hit/miss counters.

        Read-only, and it opens no entry: the counts come from one ``stat``
        per entry file.
        """
        scanned = self._scan()
        return {
            "directory": str(self.directory),
            "entries": len(scanned),
            "total_bytes": sum(size for _, size, _ in scanned),
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
        }

    def clear(self) -> int:
        """Remove every entry, dead writers' temp files, and older namespaces.

        A writer killed between its temp write and its ``os.replace`` leaves
        its temp file behind; this is the one place those go.  A live writer
        whose temp file goes with them degrades to an uncached put, like any
        failed write.  Returns how many entries went, the older namespaces'
        included (temp files are not entries).
        """
        removed = 0
        for path in self.directory.glob("*/*"):
            if path.suffix in (".entry", ".tmp"):
                path.unlink(missing_ok=True)
                removed += path.suffix == ".entry"
        removed += self._remove_stale_namespaces()
        self._approx_bytes = 0
        return removed

    def _remove_stale_namespaces(self) -> int:
        """Delete the sibling ``v<N>/`` namespaces with ``N < SPEC_VERSION``.

        A ``SPEC_VERSION`` bump strands the old namespace: no listing, stats
        or eviction looks there, so this is the only place its bytes are
        reclaimed.  Newer namespaces (a newer install sharing the root) and
        directories with other names are left alone.  Returns the number of
        entries the removed namespaces held: one per ``.entry`` file, or per
        JSON sidecar in the two-file layout of ``v4`` and earlier.
        """
        stale = [
            sibling
            for sibling in self.directory.parent.glob("v*")
            if (match := re.fullmatch(r"v([0-9]+)", sibling.name))
            and int(match.group(1)) < SPEC_VERSION
            and sibling.is_dir()
        ]
        removed = 0
        for namespace in stale:
            removed += sum(1 for p in namespace.glob("*/*") if p.suffix in (".entry", ".json"))
            shutil.rmtree(namespace, ignore_errors=True)
        if stale:
            logger.info(
                "removed %d entr%s from older cache namespace(s) %s",
                removed,
                "y" if removed == 1 else "ies",
                ", ".join(sorted(namespace.name for namespace in stale)),
            )
        return removed

    # ---------------------------------------------------------------- eviction

    def _evict(self) -> None:
        """Drop least-recently-used entries until under the size cap."""
        if self.max_bytes == 0:
            return
        scanned = self._scan()
        total = sum(size for _, size, _ in scanned)
        if total > self.max_bytes:
            evicted = 0
            for _, size, path in sorted(scanned):  # oldest last-use first
                path.unlink(missing_ok=True)
                total -= size
                evicted += 1
                if total <= self.max_bytes:
                    break
            logger.info(
                "evicted %d cache entr%s to get under %d bytes",
                evicted,
                "y" if evicted == 1 else "ies",
                self.max_bytes,
            )
            metrics.incr("cache.evictions", evicted)
        self._approx_bytes = total

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ResultCache({str(self.directory)!r}, max_bytes={self.max_bytes})"
