"""The repro daemon: one warm cache and compile memo serving many clients.

The daemon owns the shared :class:`~repro.runtime.cache.ResultCache` and the
per-process compiled-program memo, listens on a Unix socket (JSON-lines
frames, see :mod:`repro.service.protocol`) and maintains a priority queue of
run/sweep/batch jobs.  Work fans out in fixed-size *chunks* of grid points
through two kinds of workers running one loop
(:func:`~repro.service.worker.worker_loop`) over one claim/heartbeat/complete
path:

* ``local_workers`` in-daemon threads, which run the loop in-process over
  direct calls, and
* external ``repro.service worker`` processes that run it over the socket —
  extra containers or machines joining the same cache namespace through a
  forwarded socket.

Clients do not poll: the ``wait`` op blocks on a condition the daemon
notifies whenever a job's progress or state moves, and answers at once.
Workers do poll ``claim``, so a stopping daemon keeps its socket open for a
short drain in which every claim is answered ``shutdown``.

Every chunk claim carries a lease, which both kinds of worker renew by
heartbeat between batch groups; a worker that dies mid-chunk simply stops
renewing and the reaper re-queues the chunk (execution is deterministic and
cache writes are idempotent, so re-running a chunk is always safe).  Job
state persists through :class:`~repro.service.jobs.JobStore`: a snapshot at
submit, first claim, finalize, cancel, recovery and shutdown, and one
journal line per chunk completed in between, written before ``complete``
answers.  A restarted daemon replays the journals and re-queues whatever
had not finished.  Results are never held in daemon memory: each
successful point lands in the content-addressed cache under its own key, so
a resubmission of the same spec — by any client — is served entirely from
the cache without re-entering the queue.
"""

from __future__ import annotations

import heapq
import logging
import math
import os
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.exceptions import ReproError, SpecError
from repro.resilience import fault_point
from repro.runtime.cache import ResultCache
from repro.runtime.results import encode_result
from repro.telemetry import metrics
from repro.telemetry.exporters import MetricsHTTPServer, render_prometheus
from repro.telemetry.profiler import maybe_start_profiler
from repro.telemetry.timeseries import MetricsSampler
from repro.service import jobs as J
from repro.service.jobs import Job, JobStore, job_from_batch, job_from_spec
from repro.service.protocol import (
    PROTOCOL_VERSION,
    RemoteError,
    ServiceError,
    default_service_dir,
    encode_arrays,
    outcome_from_wire,
    recv_frame,
    send_frame,
)
from repro.service.worker import worker_loop

logger = logging.getLogger("repro.service.daemon")

#: Seconds a claimed chunk stays leased without a heartbeat before the
#: reaper re-queues it (override per daemon; tests use fractions of a second).
DEFAULT_LEASE_SECONDS = 60.0

#: Grid points per claimed chunk — the unit of work-stealing and of
#: cancellation granularity for external workers.
DEFAULT_CHUNK_SIZE = 2

#: Longest one ``wait`` request blocks before answering with the unchanged
#: job summary; clients re-issue the op, so a vanished client pins its
#: connection thread for at most this long.
MAX_WAIT_SLICE = 5.0

#: Longest a stopping daemon keeps accepting so that idle external workers
#: hear ``shutdown`` on their next claim instead of finding no socket.
SHUTDOWN_DRAIN_SECONDS = 1.0


@dataclass
class Chunk:
    """A contiguous batch of one job's point indices, claimed as a unit."""

    chunk_id: str
    job_id: str
    indices: "list[int]"


@dataclass
class Lease:
    chunk: Chunk
    worker_id: str
    deadline: float


@dataclass
class WorkerInfo:
    """What the daemon knows about one worker (local thread or remote process)."""

    worker_id: str
    kind: str  # "local" | "remote"
    first_seen: float
    last_seen: float
    chunks_completed: int = 0
    points_completed: int = 0
    lost_leases: int = 0
    current_chunk: "str | None" = None

    def to_dict(self) -> dict:
        return {
            "worker_id": self.worker_id,
            "kind": self.kind,
            "first_seen": self.first_seen,
            "last_seen": self.last_seen,
            "chunks_completed": self.chunks_completed,
            "points_completed": self.points_completed,
            "lost_leases": self.lost_leases,
            "busy": self.current_chunk is not None,
        }


class Daemon:
    """Job-queue daemon over the runtime executor seam.

    Parameters
    ----------
    socket_path:
        Unix socket to listen on (default: ``<service dir>/daemon.sock``).
    service_dir:
        Root for the socket and job state files (default:
        ``$REPRO_SERVICE_DIR`` or ``<cache root>/service``).
    cache:
        The shared result cache: a :class:`ResultCache`, a directory, or
        ``None`` for the standard cache — the namespace every worker's
        results land in and every resubmission is served from.
    local_workers:
        Number of in-daemon worker threads, each running
        :func:`~repro.service.worker.worker_loop` in-process and
        heartbeating its leases like an external worker (``0`` relies
        entirely on external ``repro.service worker`` processes).
    chunk_size:
        Grid points per claimable chunk.
    lease_seconds:
        Chunk lease duration; an unrenewed lease re-queues the chunk.
    sample_interval / sample_window:
        Cadence and ring-buffer length of the metrics time-series the daemon
        records (served through the ``series`` op and ``repro.service top``).
    metrics_port:
        When set, serve Prometheus text exposition at
        ``http://127.0.0.1:<port>/metrics`` (``0`` binds an ephemeral port;
        the bound port is on :attr:`metrics_server`).
    """

    def __init__(
        self,
        socket_path: "str | Path | None" = None,
        *,
        service_dir: "str | Path | None" = None,
        cache: "ResultCache | str | Path | None" = None,
        local_workers: int = 1,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        sample_interval: float = 1.0,
        sample_window: int = 600,
        metrics_port: "int | None" = None,
    ):
        if local_workers < 0:
            raise SpecError(f"local_workers must be >= 0, got {local_workers}")
        if chunk_size < 1:
            raise SpecError(f"chunk_size must be >= 1, got {chunk_size}")
        if lease_seconds <= 0:
            raise SpecError(f"lease_seconds must be > 0, got {lease_seconds}")
        self.service_dir = (
            Path(service_dir).expanduser() if service_dir else default_service_dir()
        )
        self.socket_path = (
            Path(socket_path).expanduser()
            if socket_path
            else self.service_dir / "daemon.sock"
        )
        self.cache = cache if isinstance(cache, ResultCache) else ResultCache(cache)
        self.store = JobStore(self.service_dir / "jobs")
        self.local_workers = int(local_workers)
        self.chunk_size = int(chunk_size)
        self.lease_seconds = float(lease_seconds)
        self.sampler = MetricsSampler(
            interval=float(sample_interval),
            window=int(sample_window),
            probe=self._sampler_probe,
        )
        self.metrics_server: "MetricsHTTPServer | None" = (
            MetricsHTTPServer(self._render_metrics, port=int(metrics_port))
            if metrics_port is not None
            else None
        )

        self._lock = threading.RLock()
        self._work = threading.Condition(self._lock)
        # Notified whenever a job's (state, done) moves, the daemon starts
        # stopping, or a draining daemon tells a worker to shut down: it
        # wakes blocked ``wait`` requests and the shutdown drain.
        self._changed = threading.Condition(self._lock)
        self._stop = threading.Event()
        # Set once the shutdown drain is over: the accept loop exits.
        self._closed = threading.Event()
        self._told_shutdown: "set[str]" = set()
        self._jobs: "dict[str, Job]" = {}
        self._heap: "list[tuple[int, int, str]]" = []  # (-priority, seq, chunk_id)
        self._chunks: "dict[str, Chunk]" = {}  # pending (unleased) chunks
        self._leases: "dict[str, Lease]" = {}
        self._workers: "dict[str, WorkerInfo]" = {}
        self._seq = 0
        self._chunk_seq = 0
        self._points_executed = 0
        self._points_from_cache = 0
        self._dedup_hits = 0
        # Fleet-wide per-phase seconds accumulated from completed points'
        # timings dicts (exposed by the stats op alongside metrics).
        self._phase_totals: "dict[str, float]" = {}
        # Completed results whose cache write did not land (full disk, torn
        # write): the cache is normally the daemon's only copy, so keep these
        # in memory or a swallowed put silently loses a computed point.
        self._uncached_results: "dict[str, tuple[dict, dict]]" = {}
        # Stamped by every reaper iteration; ``health`` reports the lag so a
        # wedged reaper (leases never re-queued) is observable.
        self._last_reap = time.time()
        self._started_at: "float | None" = None
        self._listener: "socket.socket | None" = None
        self._threads: "list[threading.Thread]" = []

    # ------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Bind the socket, recover persisted jobs and spawn the threads."""
        if not hasattr(socket, "AF_UNIX"):  # pragma: no cover - non-POSIX
            raise ServiceError("repro.service requires Unix-domain sockets")
        self.service_dir.mkdir(parents=True, exist_ok=True)
        self._refuse_second_daemon()
        with self._lock:
            self._recover()
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(str(self.socket_path))
        listener.listen(32)
        listener.settimeout(0.2)
        self._listener = listener
        self._started_at = time.time()
        if self.local_workers > 1:
            # Several worker threads share this process: a multi-threaded
            # BLAS underneath them would oversubscribe every core.
            from repro.runtime import pin_blas_threads

            pin_blas_threads(1)
        self._threads = [
            threading.Thread(target=self._accept_loop, name="repro-accept", daemon=True),
            threading.Thread(target=self._reaper_loop, name="repro-reaper", daemon=True),
        ]
        for index in range(self.local_workers):
            self._threads.append(
                threading.Thread(
                    target=self._run_local_worker,
                    args=(f"local-{index}",),
                    name=f"repro-worker-{index}",
                    daemon=True,
                )
            )
        for thread in self._threads:
            thread.start()
        self.sampler.start()
        if self.metrics_server is not None:
            port = self.metrics_server.start()
            logger.info("serving Prometheus metrics on %s", self.metrics_server.url)
            metrics.gauge("service.metrics_port", port)
        maybe_start_profiler()  # env-armed; a raw dict lookup when off

    def _refuse_second_daemon(self) -> None:
        if not self.socket_path.exists():
            return
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        probe.settimeout(1.0)
        try:
            probe.connect(str(self.socket_path))
        except OSError:
            self.socket_path.unlink()  # stale socket from a dead daemon
        else:
            raise ServiceError(
                f"a daemon is already listening on {self.socket_path}"
            )
        finally:
            probe.close()

    def _recover(self) -> None:
        """Reload snapshots and journals; re-queue whatever had not finished.

        The snapshot saved here for every unfinished job compacts its journal.
        """
        for job in self.store.load_all():
            self._jobs[job.job_id] = job
            if job.terminal:
                continue
            pending = job.pending_indices()
            if pending:
                job.state = J.QUEUED if job.started is None else J.RUNNING
                self._enqueue_points(job, pending)
            else:
                self._finalize(job)
            self.store.save(job)

    def serve_forever(self) -> None:
        """``start()`` then block until a shutdown request (or interrupt)."""
        self.start()
        try:
            while not self._stop.wait(timeout=0.2):
                pass
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        finally:
            self.shutdown()

    def request_stop(self) -> None:
        """Ask the daemon to stop (safe from signal handlers and op handlers)."""
        self._stop.set()
        with self._lock:
            self._work.notify_all()
            self._changed.notify_all()

    def shutdown(self, *, join_timeout: float = 10.0) -> None:
        """Drain, stop threads, persist every job and remove the socket file."""
        self.request_stop()
        self.sampler.stop()
        if self.metrics_server is not None:
            self.metrics_server.stop()
        if self._listener is not None:
            self._drain_remote_workers()
        self._closed.set()
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=join_timeout)
        self._threads = []
        if self._listener is not None:
            try:
                self._listener.close()
            finally:
                self._listener = None
        try:
            self.socket_path.unlink()
        except FileNotFoundError:
            pass
        with self._lock:
            for job in self._jobs.values():
                self.store.save(job)

    def _drain_remote_workers(self) -> None:
        """Keep accepting until each live remote worker has heard ``shutdown``.

        A worker counts as live when it was seen within one lease.  Idle
        workers poll ``claim``, so they hear it within one poll interval and
        exit at once instead of riding out their reconnect window against a
        missing socket.  The drain gives up after
        :data:`SHUTDOWN_DRAIN_SECONDS` (a worker deep in a long chunk, or one
        that already left without saying so).
        """
        with self._lock:
            horizon = time.time() - self.lease_seconds
            live = {
                info.worker_id
                for info in self._workers.values()
                if info.kind == "remote" and info.last_seen >= horizon
            }
            self._changed.wait_for(
                lambda: live <= self._told_shutdown, timeout=SHUTDOWN_DRAIN_SECONDS
            )

    @property
    def running(self) -> bool:
        return self._started_at is not None and not self._stop.is_set()

    # ------------------------------------------------------------ socket side

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        conn.settimeout(None)
        try:
            with conn, conn.makefile("rwb") as stream:
                while True:
                    frame = recv_frame(stream)
                    if frame is None:
                        break
                    send_frame(stream, self.handle(frame))
        except (OSError, ValueError, ServiceError):
            pass  # client went away mid-frame; nothing to answer

    # -------------------------------------------------------------- dispatch

    def handle(self, request: dict) -> dict:
        """One request frame → one response frame (never raises)."""
        op = request.get("op")
        declared = request.get("protocol", PROTOCOL_VERSION)
        if declared != PROTOCOL_VERSION:
            return _error_frame(
                ServiceError(
                    f"protocol version mismatch: daemon speaks "
                    f"{PROTOCOL_VERSION}, request declares {declared}"
                )
            )
        handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) else None
        if handler is None:
            return _error_frame(ServiceError(f"unknown op {op!r}"))
        try:
            return {**handler(request), "ok": True}
        except ReproError as exc:
            return _error_frame(exc)
        except Exception as exc:  # noqa: BLE001 - daemon must never die on a frame
            return _error_frame(exc)

    # ------------------------------------------------------------------- ops

    def _op_ping(self, request: dict) -> dict:
        return {"pong": True, "version": PROTOCOL_VERSION, "pid": os.getpid()}

    def _op_submit(self, request: dict) -> dict:
        priority = int(request.get("priority", 0))
        if "payloads" in request:
            job = job_from_batch(request["payloads"], priority=priority)
        elif "spec" in request:
            job = job_from_spec(request["spec"], priority=priority)
        else:
            raise SpecError("submit needs a 'spec' dict or a 'payloads' list")
        trace = request.get("trace")
        if isinstance(trace, dict):
            job.trace = trace
        with self._lock:
            existing = self._jobs.get(job.job_id)
            if existing is not None and existing.state not in (J.FAILED, J.CANCELLED):
                # Same content key (same physics): the queue position, running
                # chunks and finished results are all shared with the first
                # submitter — nothing re-enters the queue.
                self._dedup_hits += 1
                return {
                    "job_id": existing.job_id,
                    "state": existing.state,
                    "deduped": True,
                    **existing.counts,
                }
            # Cache-first: points already in the shared store never queue.
            for point in job.points:
                if point.key in self.cache:
                    point.status = J.OK
                    point.cached = True
                    self._points_from_cache += 1
            pending = job.pending_indices()
            if pending:
                self._enqueue_points(job, pending)
            else:
                job.started = job.started or time.time()
                self._finalize(job)
            self._jobs[job.job_id] = job
            self.store.save(job)
            self._work.notify_all()
            return {
                "job_id": job.job_id,
                "state": job.state,
                "deduped": False,
                **job.counts,
            }

    def _op_status(self, request: dict) -> dict:
        with self._lock:
            job = self._find_job(request["job_id"])
            summary = job.summary()
            if request.get("points"):
                summary["points"] = [
                    {k: v for k, v in point.to_dict().items() if k != "payload"}
                    for point in job.points
                ]
            return summary

    def _op_wait(self, request: dict) -> dict:
        """Block until the job changes, then answer its ``status`` summary.

        Returns as soon as the job is terminal, its ``(state, done)`` differs
        from the optional ``seen`` pair the caller last observed, or the
        ``slice`` seconds (capped at :data:`MAX_WAIT_SLICE`) run out.  A
        waiter blocked when the daemon starts stopping is released at once;
        one arriving during the shutdown drain just waits out its slice.
        """
        slice_seconds = float(request.get("slice", MAX_WAIT_SLICE))
        if math.isnan(slice_seconds):  # JSON allows NaN; it would never expire
            raise ServiceError("wait slice must be a number of seconds, not NaN")
        deadline = time.monotonic() + min(slice_seconds, MAX_WAIT_SLICE)
        seen = request.get("seen")
        seen = None if seen is None else (str(seen[0]), int(seen[1]))
        with self._lock:
            job = self._find_job(request["job_id"])
            stopping = self._stop.is_set()
            while not job.terminal and self._stop.is_set() == stopping:
                if seen is not None and (job.state, job.counts["done"]) != seen:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._changed.wait(remaining)
            return job.summary()

    def _op_jobs(self, request: dict) -> dict:
        with self._lock:
            ordered = sorted(self._jobs.values(), key=lambda job: job.created)
            return {"jobs": [job.summary() for job in ordered]}

    def _op_result(self, request: dict) -> dict:
        with self._lock:
            job = self._find_job(request["job_id"])
            if not job.terminal and not request.get("partial"):
                raise ServiceError(
                    f"job {job.job_id[:12]}… is {job.state}; poll status until "
                    f"it finishes (or pass partial=true)"
                )
            points = list(job.points)
            state = job.state
        # Cache reads happen outside the lock: they touch the filesystem and
        # may decode large arrays, and the cache is internally consistent.
        outcomes = [self._point_outcome(point) for point in points]
        return {"job_id": job.job_id, "state": state, "outcomes": outcomes}

    def _point_outcome(self, point) -> dict:
        base = {
            "key": point.key,
            "coords": dict(point.coords),
            "label": point.label,
            "cached": point.cached,
            "wall_time": point.wall_time,
            "timings": point.timings or {},
        }
        if point.status == J.OK:
            value = self.cache.get(point.key)
            if value is self._cache_miss_sentinel():
                stashed = self._uncached_results.get(point.key)
                if stashed is not None:
                    meta, arrays = stashed
                    return {
                        **base,
                        "ok": True,
                        "result": meta,
                        "arrays": encode_arrays(arrays),
                    }
                return {
                    **base,
                    "ok": False,
                    "error": {
                        "type": "CacheMissError",
                        "message": f"result {point.key[:12]}… was evicted from "
                        f"the shared cache before retrieval",
                        "traceback": "",
                    },
                }
            meta, arrays = encode_result(value)
            return {**base, "ok": True, "result": meta, "arrays": encode_arrays(arrays)}
        if point.status == J.POINT_FAILED:
            return {**base, "ok": False, "error": point.error}
        kind = "CancelledError" if point.status == J.POINT_CANCELLED else "PendingError"
        return {
            **base,
            "ok": False,
            "error": {
                "type": kind,
                "message": f"point is {point.status}",
                "traceback": "",
            },
        }

    @staticmethod
    def _cache_miss_sentinel():
        from repro.runtime.cache import MISS

        return MISS

    def _op_cancel(self, request: dict) -> dict:
        with self._lock:
            job = self._find_job(request["job_id"])
            if job.terminal:
                return {"job_id": job.job_id, "state": job.state, "changed": False}
            # Drop the job's pending chunks; leased chunks lose their lease so
            # heartbeats report cancellation and late completions are discarded.
            for chunk_id in [
                cid for cid, chunk in self._chunks.items() if chunk.job_id == job.job_id
            ]:
                del self._chunks[chunk_id]
            for chunk_id in [
                cid
                for cid, lease in self._leases.items()
                if lease.chunk.job_id == job.job_id
            ]:
                lease = self._leases.pop(chunk_id)
                info = self._workers.get(lease.worker_id)
                if info is not None and info.current_chunk == chunk_id:
                    info.current_chunk = None
            for point in job.points:
                if point.status == J.PENDING:
                    point.status = J.POINT_CANCELLED
            job.state = J.CANCELLED
            job.finished = time.time()
            self.store.save(job)
            self._changed.notify_all()
            return {"job_id": job.job_id, "state": job.state, "changed": True,
                    **job.counts}

    def _op_claim(self, request: dict) -> dict:
        worker_id = str(request.get("worker", "anonymous"))
        # An injected raise here becomes an error frame (RemoteError at the
        # worker), exercising the worker's claim-retry path.
        fault_point("daemon.claim")
        with self._lock:
            self._touch_worker(worker_id, request.get("kind", "remote"))
            if self._stop.is_set():
                self._told_shutdown.add(worker_id)
                self._changed.notify_all()  # the shutdown drain counts these
                return {"shutdown": True}
            chunk = self._pop_chunk(worker_id)
            if chunk is None:
                return {"idle": True}
            job = self._jobs[chunk.job_id]
            return {
                "job_id": chunk.job_id,
                "chunk_id": chunk.chunk_id,
                "payloads": [job.points[i].payload for i in chunk.indices],
                "lease_seconds": self.lease_seconds,
                "trace": job.trace,
            }

    def _op_heartbeat(self, request: dict) -> dict:
        worker_id = str(request.get("worker", "anonymous"))
        chunk_id = request["chunk_id"]
        with self._lock:
            self._touch_worker(worker_id, request.get("kind", "remote"))
            lease = self._leases.get(chunk_id)
            if lease is None or lease.worker_id != worker_id:
                # Cancelled, reaped, or claimed by someone else: stop working.
                return {"cancelled": True}
            lease.deadline = time.time() + self.lease_seconds
            metrics.incr("service.lease_renewals")
            return {"cancelled": False}

    def _op_complete(self, request: dict) -> dict:
        worker_id = str(request.get("worker", "anonymous"))
        outcomes = [outcome_from_wire(wire) for wire in request.get("outcomes", [])]
        return self._complete(worker_id, request["chunk_id"], outcomes)

    def _op_workers(self, request: dict) -> dict:
        with self._lock:
            return {"workers": [info.to_dict() for info in self._workers.values()]}

    def _snapshot(self) -> dict:
        """Queue depth, worker presence and jobs by state; hold ``self._lock``.

        The one count behind ``stats``, ``health`` and the sampler probe (so
        ``series``, ``/metrics`` and ``top`` too): every view reads the same
        numbers.
        """
        jobs = {state: 0 for state in J.JOB_STATES}
        for job in self._jobs.values():
            jobs[job.state] += 1
        return {
            "queue": {
                "chunks_pending": len(self._chunks),
                "chunks_leased": len(self._leases),
                "points_pending": sum(len(c.indices) for c in self._chunks.values()),
                "points_leased": sum(
                    len(l.chunk.indices) for l in self._leases.values()
                ),
            },
            "workers": {
                "total": len(self._workers),
                "busy": sum(1 for w in self._workers.values() if w.current_chunk),
                "local": self.local_workers,
            },
            "jobs": jobs,
        }

    def _op_stats(self, request: dict) -> dict:
        with self._lock:
            state = self._snapshot()
            workers = state["workers"]
            executed, cached = self._points_executed, self._points_from_cache
            stats = {
                "pid": os.getpid(),
                "uptime": time.time() - (self._started_at or time.time()),
                "queue": state["queue"],
                "jobs": state["jobs"],
                "points": {
                    "executed": executed,
                    "from_cache": cached,
                    "hit_rate": (
                        cached / (cached + executed) if cached + executed else None
                    ),
                    "dedup_hits": self._dedup_hits,
                },
                "workers": {
                    **workers,
                    "utilization": workers["busy"] / (workers["total"] or 1),
                },
                "phases": dict(self._phase_totals),
            }
        cache_stats = self.cache.stats()  # filesystem scan: outside the lock
        stats["cache"] = {
            "directory": cache_stats["directory"],
            "entries": cache_stats["entries"],
            "total_bytes": cache_stats["total_bytes"],
            "hits": cache_stats["hits"],
            "misses": cache_stats["misses"],
        }
        snapshot = metrics.snapshot()
        stats["metrics"] = snapshot
        stats["resilience"] = _resilience_block(snapshot)
        return stats

    def _sampler_probe(self) -> dict:
        """Daemon-side state merged into every time-series sample.

        The registry is process-global; queue depth and point totals live on
        the daemon object, so the sampler picks them up through this hook —
        executed points as a counter (its per-second rate is the throughput
        headline), the rest as gauges.
        """
        with self._lock:
            state = self._snapshot()
            queue, workers = state["queue"], state["workers"]
            return {
                "counters": {
                    "service.points_executed": float(self._points_executed),
                    "service.points_from_cache": float(self._points_from_cache),
                },
                "gauges": {
                    "queue.points_pending": float(queue["points_pending"]),
                    "queue.chunks_pending": float(queue["chunks_pending"]),
                    "queue.chunks_leased": float(queue["chunks_leased"]),
                    "workers.busy": float(workers["busy"]),
                    "workers.total": float(workers["total"]),
                    "jobs.running": float(state["jobs"][J.RUNNING]),
                },
            }

    def _op_series(self, request: dict) -> dict:
        """The metrics time-series ring buffer (optionally the last N)."""
        last = request.get("last")
        return self.sampler.series(last=None if last is None else int(last))

    def _render_metrics(self) -> str:
        """Prometheus exposition: registry + daemon gauges + sampler rates."""
        probe = self._sampler_probe()
        extra = dict(probe["gauges"])
        extra.update(probe["counters"])  # cumulative totals read fine as gauges
        latest = self.sampler.latest()
        if latest is not None:
            derived = latest.get("derived", {})
            extra["points_per_second"] = derived.get("points_per_second", 0.0)
            hit_rate = derived.get("cache_hit_rate")
            if hit_rate is not None:
                extra["cache_hit_rate"] = hit_rate
        snapshot = metrics.snapshot()
        # Scrapers want stable families: the cache counters exist from the
        # first scrape (at zero), not only after the first lookup.
        snapshot["counters"].setdefault("cache.hits", 0)
        snapshot["counters"].setdefault("cache.misses", 0)
        return render_prometheus(snapshot, extra_gauges=extra)

    def _op_health(self, request: dict) -> dict:
        """Liveness + degradation probe for monitoring and the CLI.

        Reports queue depth, worker presence, reaper lag (a wedged reaper
        means expired leases never re-queue), an actual cache writability
        probe (write + read back + unlink of a marker file in the cache
        directory), and the zero-defaulted ``resilience.*`` counters.
        ``healthy`` is the conjunction of the hard conditions —
        degraded-but-working states (fallbacks counted, retries happening)
        keep ``healthy: true`` with the evidence alongside, because
        degradation is survivable by design.
        """
        now = time.time()
        with self._lock:
            reaper_lag = now - self._last_reap
            reaper_interval = max(0.05, min(1.0, self.lease_seconds / 4.0))
            state = self._snapshot()
        cache_ok, cache_error = self._probe_cache_writable()
        reaper_ok = reaper_lag < max(5.0, 10.0 * reaper_interval)
        snapshot = metrics.snapshot()
        return {
            "pid": os.getpid(),
            "uptime": now - (self._started_at or now),
            "queue": state["queue"],
            "workers": state["workers"],
            "reaper": {
                "lag_seconds": reaper_lag,
                "interval_seconds": reaper_interval,
                "ok": reaper_ok,
            },
            "cache": {
                "directory": str(self.cache.directory),
                "writable": cache_ok,
                **({"error": cache_error} if cache_error else {}),
            },
            "resilience": _resilience_block(snapshot),
            "healthy": bool(cache_ok and reaper_ok and not self._stop.is_set()),
        }

    def _probe_cache_writable(self) -> "tuple[bool, str | None]":
        """Round-trip a marker file through the cache directory."""
        probe = self.cache.directory / ".health-probe"
        try:
            self.cache.directory.mkdir(parents=True, exist_ok=True)
            probe.write_text(str(time.time()))
            probe.read_text()
            probe.unlink()
            return True, None
        except OSError as exc:
            return False, f"{type(exc).__name__}: {exc}"

    def _op_shutdown(self, request: dict) -> dict:
        self.request_stop()
        return {"stopping": True}

    # --------------------------------------------------------------- internals

    def _find_job(self, job_id: str) -> Job:
        """Exact id or unambiguous prefix → the job; loud error otherwise."""
        job = self._jobs.get(job_id)
        if job is not None:
            return job
        matches = [j for key, j in self._jobs.items() if key.startswith(job_id)]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise ServiceError(f"no such job: {job_id!r}")
        raise ServiceError(
            f"job id prefix {job_id!r} is ambiguous ({len(matches)} matches)"
        )

    def _touch_worker(self, worker_id: str, kind: str) -> WorkerInfo:
        info = self._workers.get(worker_id)
        now = time.time()
        if info is None:
            info = WorkerInfo(
                worker_id=worker_id, kind=str(kind), first_seen=now, last_seen=now
            )
            self._workers[worker_id] = info
        info.last_seen = now
        return info

    def _enqueue_points(self, job: Job, indices: "list[int]") -> None:
        """Shard point indices into chunks and push them on the heap."""
        for start in range(0, len(indices), self.chunk_size):
            self._chunk_seq += 1
            chunk = Chunk(
                chunk_id=f"{job.job_id[:12]}:{self._chunk_seq}",
                job_id=job.job_id,
                indices=indices[start : start + self.chunk_size],
            )
            self._chunks[chunk.chunk_id] = chunk
            self._seq += 1
            heapq.heappush(self._heap, (-job.priority, self._seq, chunk.chunk_id))

    def _pop_chunk(self, worker_id: str) -> "Chunk | None":
        """Lease the highest-priority pending chunk to ``worker_id``."""
        while self._heap:
            _, _, chunk_id = heapq.heappop(self._heap)
            chunk = self._chunks.pop(chunk_id, None)
            if chunk is None:
                continue  # cancelled or re-queued under a new heap entry
            job = self._jobs.get(chunk.job_id)
            if job is None or job.terminal:
                continue
            self._leases[chunk_id] = Lease(
                chunk=chunk,
                worker_id=worker_id,
                deadline=time.time() + self.lease_seconds,
            )
            info = self._workers.get(worker_id)
            if info is not None:
                info.current_chunk = chunk_id
            if job.state == J.QUEUED:
                job.state = J.RUNNING
                job.started = job.started or time.time()
                self.store.save(job)
                self._changed.notify_all()
            return chunk
        return None

    def _complete(
        self, worker_id: str, chunk_id: str, outcomes: "list[dict]"
    ) -> dict:
        """Apply a (possibly partial) chunk's outcomes: check, write, apply.

        1. Under the lock, check that the caller holds the chunk's lease and
           collect the successful outcomes of points still pending.
        2. Outside the lock, write those results to the cache, so claims,
           heartbeats and waits never queue behind the file writes.
        3. Under the lock again, re-check the lease: it may have been reaped
           or cancelled meanwhile, and then the completion is discarded and
           all it leaves is a content-addressed cache entry, which is
           harmless.  Otherwise release the lease, flip the point statuses
           and persist them: one journal line, or the snapshot when the
           completion finishes the job.

        A completion from a worker that does not hold the lease is discarded
        without touching the holder's lease.
        """
        with self._lock:
            lease = self._held_lease(worker_id, chunk_id)
            if lease is None:
                return {"applied": 0, "discarded": True}
            job = self._jobs[lease.chunk.job_id]
            writes = [
                (job.points[index], outcome)
                for index, outcome in zip(lease.chunk.indices, outcomes)
                if outcome.get("ok") and job.points[index].status == J.PENDING
            ]
        uncached = set()
        for point, outcome in writes:
            self.cache.put_encoded(
                point.key, outcome["result"], outcome.get("arrays", {}),
                label=point.label,
            )
            if point.key not in self.cache:
                uncached.add(point.key)
        with self._lock:
            if self._held_lease(worker_id, chunk_id) is not lease:
                return {"applied": 0, "discarded": True}
            del self._leases[chunk_id]
            info = self._workers.get(worker_id)
            if info is not None and info.current_chunk == chunk_id:
                info.current_chunk = None
            chunk = lease.chunk
            job = self._jobs[chunk.job_id]
            applied = []
            for index, outcome in zip(chunk.indices, outcomes):
                point = job.points[index]
                if point.status != J.PENDING:
                    continue  # a redundant re-execution already landed
                if outcome.get("ok"):
                    if point.key in uncached:
                        # The put degraded (full/torn store).  Retain the only
                        # copy so retrieval serves it instead of a cache miss.
                        self._uncached_results[point.key] = (
                            outcome["result"],
                            outcome.get("arrays", {}),
                        )
                        metrics.incr("service.uncached_results")
                    point.status = J.OK
                else:
                    point.status = J.POINT_FAILED
                    point.error = outcome.get("error") or {
                        "type": "UnknownError",
                        "message": "worker reported failure without detail",
                        "traceback": "",
                    }
                point.wall_time = float(outcome.get("wall_time", 0.0))
                timings = outcome.get("timings")
                if isinstance(timings, dict) and timings:
                    point.timings = {
                        str(phase): float(seconds)
                        for phase, seconds in timings.items()
                    }
                    for phase, seconds in point.timings.items():
                        self._phase_totals[phase] = (
                            self._phase_totals.get(phase, 0.0) + seconds
                        )
                applied.append(index)
            self._points_executed += len(applied)
            if info is not None:
                info.points_completed += len(applied)
                info.chunks_completed += 1
            leftover = chunk.indices[len(outcomes) :]
            leftover = [i for i in leftover if job.points[i].status == J.PENDING]
            if leftover and not self._stop.is_set():
                # An aborted chunk (worker shutting down) returns its tail.
                self._enqueue_points(job, leftover)
                self._work.notify_all()
            if not job.pending_indices() and not self._job_has_leases(job.job_id):
                self._finalize(job)
                self.store.save(job)
            elif applied:
                self.store.append(job, applied)
            self._changed.notify_all()
            return {"applied": len(applied), "discarded": False}

    def _held_lease(self, worker_id: str, chunk_id: str) -> "Lease | None":
        """``chunk_id``'s lease if ``worker_id`` holds it on a live job."""
        lease = self._leases.get(chunk_id)
        if lease is None or lease.worker_id != worker_id:
            # Reaped (slow worker), cancelled, or never this worker's.
            return None
        job = self._jobs.get(lease.chunk.job_id)
        if job is None or job.state == J.CANCELLED:
            return None
        return lease

    def _job_has_leases(self, job_id: str) -> bool:
        return any(lease.chunk.job_id == job_id for lease in self._leases.values())

    def _finalize(self, job: Job) -> None:
        counts = job.counts
        job.state = J.FAILED if counts["failed"] else J.DONE
        job.started = job.started or job.created
        job.finished = time.time()

    # ---------------------------------------------------------- worker threads

    def _run_local_worker(self, worker_id: str) -> None:
        """One in-daemon worker thread: the worker loop over direct calls.

        ``claim`` and ``heartbeat`` go through :meth:`handle`; ``complete``
        hands the raw outcomes straight to :meth:`_complete`.
        """

        def call(op: str, **fields) -> dict:
            if op == "complete":
                return self._complete(worker_id, fields["chunk_id"], fields["outcomes"])
            response = self.handle(
                {"op": op, "worker": worker_id, "kind": "local", **fields}
            )
            if not response["ok"]:
                raise RemoteError(response["error"])
            return response

        worker_loop(call, self._await_work, worker_id=worker_id)

    def _await_work(self) -> None:
        """An idle local worker's wait: until a chunk is queued (at most 0.2 s).

        The emptiness check and the wait share the lock that enqueueing
        notifies under, so a submit landing after the idle claim is never
        slept through.
        """
        with self._work:
            if not self._chunks and not self._stop.is_set():
                self._work.wait(timeout=0.2)

    def _reaper_loop(self) -> None:
        """Re-queue chunks whose workers stopped renewing their lease."""
        interval = max(0.05, min(1.0, self.lease_seconds / 4.0))
        while not self._stop.wait(timeout=interval):
            now = time.time()
            with self._lock:
                self._last_reap = now
                expired = [
                    chunk_id
                    for chunk_id, lease in self._leases.items()
                    if lease.deadline < now
                ]
                for chunk_id in expired:
                    lease = self._leases.pop(chunk_id)
                    logger.warning(
                        "lease on chunk %s expired (worker %s went silent); "
                        "re-queueing its pending points",
                        chunk_id,
                        lease.worker_id,
                    )
                    metrics.incr("service.lease_losses")
                    info = self._workers.get(lease.worker_id)
                    if info is not None:
                        info.lost_leases += 1
                        if info.current_chunk == chunk_id:
                            info.current_chunk = None
                    job = self._jobs.get(lease.chunk.job_id)
                    if job is None or job.terminal:
                        continue
                    pending = [
                        i
                        for i in lease.chunk.indices
                        if job.points[i].status == J.PENDING
                    ]
                    if pending:
                        self._enqueue_points(job, pending)
                if expired:
                    self._work.notify_all()


def _resilience_block(snapshot: dict) -> dict:
    """The ``resilience.*`` counters, zero-defaulted so absence reads as 0."""
    counters = snapshot.get("counters", {})
    block = {
        name.split(".", 1)[1]: counters.get(name, 0)
        for name in metrics.RESILIENCE_COUNTERS
    }
    block["faults_by_site"] = {
        name[len("resilience.faults."):]: value
        for name, value in counters.items()
        if name.startswith("resilience.faults.")
    }
    return block


def _error_frame(exc: Exception) -> dict:
    return {
        "ok": False,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }
