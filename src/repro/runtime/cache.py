"""Content-addressed on-disk result store.

Each entry is addressed by a :meth:`~repro.runtime.spec.RunSpec.content_key`
and stored as a JSON sidecar (metadata + scalar payloads) plus an optional
``.npz`` (array payloads), sharded by the first two hex digits of the key.
The store is versioned — entries live under ``v{SPEC_VERSION}/`` so a change
to the canonical serialization scheme starts a fresh namespace instead of
serving stale bytes — and size-capped with least-recently-*used* eviction
(the sidecar's mtime is touched on every hit).  :meth:`ResultCache.clear`
also removes the older ``v<N>/`` namespaces a version bump strands.

Configuration follows the environment:

* ``REPRO_CACHE_DIR`` — cache root (default ``~/.cache/repro``);
* ``REPRO_CACHE_MAX_BYTES`` — size cap (default 2 GiB; ``0`` disables
  eviction).

Pool workers never write the cache (they return payloads over the pipe);
sessions and the daemon's threads do, and several of them may share one
directory.  Every write goes through a temp file named for its writer
(process and thread id) and ``os.replace``, so two writers of the same key
never truncate or rename each other's temp file, and a reader sees either a
whole file or none.  An entry can still be torn — an ``.npz`` whose sidecar
is not written yet, or a sidecar whose ``.npz`` a concurrent eviction
removed — and a torn entry reads as a miss, which recomputes.
"""

from __future__ import annotations

import json
import logging
import os
import re
import shutil
import threading
import time
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.resilience import fault_point
from repro.telemetry import metrics, span
from repro.utils.serialization import SPEC_VERSION, canonical_json
from repro.runtime.results import decode_result, encode_result

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

    Never matches the ``*.json``/``*.npz`` globs that list entries.
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
        # the estimate crosses the cap (and inside _evict itself).
        self._approx_bytes: int | None = None

    # ----------------------------------------------------------------- layout

    def _paths(self, key: str) -> tuple[Path, Path]:
        shard = self.directory / key[:2]
        return shard / f"{key}.json", shard / f"{key}.npz"

    # ------------------------------------------------------------------ access

    def get(self, key: str, default: Any = MISS) -> Any:
        """The decoded result for ``key``, or ``default`` on a miss.

        A cache that cannot be read degrades to a miss, never to a failed
        point: unreadable shards, corrupt sidecars, and truncated array
        files all recompute (counted in ``resilience.fallbacks``).
        """
        with span("cache.get") as sp:
            try:
                value = self._get(key, default)
            except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
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

    def _get(self, key: str, default: Any) -> Any:
        fault_point("cache.get")
        sidecar, npz = self._paths(key)
        try:
            payload = json.loads(sidecar.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            self.misses += 1
            return default
        arrays: dict[str, np.ndarray] = {}
        if payload.get("has_arrays"):
            try:
                with np.load(npz) as stored:
                    arrays = {name: stored[name] for name in stored.files}
            except FileNotFoundError:
                # Torn entry (npz evicted/cleared out from under the sidecar).
                self.misses += 1
                return default
        value = decode_result(payload["result"], arrays)
        try:
            now = time.time()
            os.utime(sidecar, (now, now))  # LRU recency bump
        except OSError:
            # The entry was evicted/cleared by a concurrent session between
            # the read and the bump; the value in hand is still good.
            pass
        self.hits += 1
        return value

    def __contains__(self, key: str) -> bool:
        return self._paths(key)[0].exists()

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
        keeps its computed result, it simply stays uncached.  A failure
        between the array write and the sidecar write leaves at worst an
        orphan npz, which reads as a miss and is swept by :meth:`clear`.
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
                self._cleanup_partial(key)
                return
        metrics.incr("cache.puts")

    def _cleanup_partial(self, key: str) -> None:
        """Best-effort removal of a failed put's temp files (never raises)."""
        for tmp in self._paths(key):
            try:
                _writer_tmp(tmp).unlink()
            except OSError:
                pass

    def _put_encoded(
        self,
        key: str,
        meta: dict,
        arrays: dict[str, np.ndarray],
        *,
        label: str | None = None,
    ) -> None:
        fault_point("cache.put")
        sidecar, npz = self._paths(key)
        sidecar.parent.mkdir(parents=True, exist_ok=True)
        if arrays:
            tmp_npz = _writer_tmp(npz)
            with open(tmp_npz, "wb") as handle:
                np.savez(handle, **arrays)
            os.replace(tmp_npz, npz)
        # A crash (or injected fault) here is the torn-write window: the npz
        # exists but the sidecar — the entry's existence marker — does not,
        # so readers see a recoverable miss, never partial data.
        fault_point("cache.put.torn")
        payload = {
            "key": key,
            "result": json.loads(canonical_json(meta)),
            "has_arrays": bool(arrays),
            "label": label,
            "created": time.time(),
        }
        tmp_json = _writer_tmp(sidecar)
        tmp_json.write_text(json.dumps(payload))
        os.replace(tmp_json, sidecar)
        if self.max_bytes:
            if self._approx_bytes is None:
                self._approx_bytes = self._measure_bytes()
            else:
                try:
                    self._approx_bytes += sidecar.stat().st_size + (
                        npz.stat().st_size if arrays else 0
                    )
                except OSError:  # pragma: no cover - concurrent removal
                    pass
            if self._approx_bytes > self.max_bytes:
                self._evict()

    # -------------------------------------------------------------- inventory

    def entries(self) -> list[CacheEntry]:
        """Every stored entry, most recently used first."""
        found: list[CacheEntry] = []
        for sidecar in self.directory.glob("*/*.json"):
            try:
                payload = json.loads(sidecar.read_text())
                stat = sidecar.stat()
            except (OSError, json.JSONDecodeError):  # pragma: no cover - races
                continue
            npz = sidecar.with_suffix(".npz")
            size = stat.st_size + (npz.stat().st_size if npz.exists() else 0)
            found.append(
                CacheEntry(
                    key=payload.get("key", sidecar.stem),
                    kind=payload.get("result", {}).get("kind", "?"),
                    size_bytes=size,
                    created=payload.get("created", stat.st_mtime),
                    last_used=stat.st_mtime,
                    label=payload.get("label"),
                )
            )
        return sorted(found, key=lambda e: e.last_used, reverse=True)

    def stats(self) -> dict:
        """Entry count, byte total and the session's hit/miss counters.

        Read-only: an ``.npz`` without its sidecar is not counted, and it is
        not removed either, because a concurrent :meth:`put_encoded` may be
        between its two writes.  :meth:`clear` sweeps such orphans.
        """
        entries = self.entries()
        return {
            "directory": str(self.directory),
            "entries": len(entries),
            "total_bytes": sum(e.size_bytes for e in entries),
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
        }

    def clear(self) -> int:
        """Remove every entry (and any orphan npz), and every older namespace.

        Returns how many entries went, the older namespaces' included.
        """
        removed = 0
        for sidecar in self.directory.glob("*/*.json"):
            self._remove(sidecar)
            removed += 1
        removed += self._sweep_orphans()
        removed += self._remove_stale_namespaces()
        self._approx_bytes = 0
        return removed

    def _remove_stale_namespaces(self) -> int:
        """Delete the sibling ``v<N>/`` namespaces with ``N < SPEC_VERSION``.

        A ``SPEC_VERSION`` bump strands the old namespace: no listing, stats
        or eviction looks there, so this is the only place its bytes are
        reclaimed.  Newer namespaces (a newer install sharing the root) and
        directories with other names are left alone.  Returns the number of
        entries (sidecars) the removed namespaces held.
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
            removed += sum(1 for _ in namespace.glob("*/*.json"))
            shutil.rmtree(namespace, ignore_errors=True)
        if stale:
            logger.info(
                "removed %d entr%s from older cache namespace(s) %s",
                removed,
                "y" if removed == 1 else "ies",
                ", ".join(sorted(namespace.name for namespace in stale)),
            )
        return removed

    def _measure_bytes(self) -> int:
        """Full scan: the store's true byte total (sidecars + arrays)."""
        total = 0
        for sidecar in self.directory.glob("*/*.json"):
            try:
                total += sidecar.stat().st_size
                npz = sidecar.with_suffix(".npz")
                if npz.exists():
                    total += npz.stat().st_size
            except OSError:  # pragma: no cover - concurrent removal
                continue
        return total

    # ---------------------------------------------------------------- eviction

    def _remove(self, sidecar: Path) -> None:
        # The npz goes first: the sidecar is the entry's existence marker, so
        # a crash between the two unlinks leaves a sidecar whose get() is a
        # recoverable torn-entry miss — never an orphan npz that no listing
        # reaches but every byte count includes.
        npz = sidecar.with_suffix(".npz")
        for path in (npz, sidecar):
            try:
                path.unlink()
            except FileNotFoundError:
                pass

    def _sweep_orphans(self) -> int:
        """Unlink npz files whose sidecar is gone; returns how many."""
        removed = 0
        for npz in self.directory.glob("*/*.npz"):
            if npz.with_suffix(".json").exists():
                continue
            try:
                npz.unlink()
                removed += 1
            except OSError:  # pragma: no cover - concurrent removal
                continue
        if removed:
            logger.warning(
                "swept %d orphaned array file(s) from %s (crash debris)",
                removed,
                self.directory,
            )
        return removed

    def _evict(self) -> None:
        """Drop least-recently-used entries until under the size cap."""
        if self.max_bytes == 0:
            return
        sized: list[tuple[float, int, Path]] = []
        total = 0
        for sidecar in self.directory.glob("*/*.json"):
            try:
                stat = sidecar.stat()
            except OSError:  # pragma: no cover - concurrent removal
                continue
            npz = sidecar.with_suffix(".npz")
            size = stat.st_size + (npz.stat().st_size if npz.exists() else 0)
            sized.append((stat.st_mtime, size, sidecar))
            total += size
        if total > self.max_bytes:
            evicted = 0
            for _, size, sidecar in sorted(sized):  # oldest last-use first
                self._remove(sidecar)
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
