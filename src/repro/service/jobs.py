"""Job model of the repro service: specs in, per-point states out.

A :class:`Job` is one submitted unit of work — a single run, a sweep grid, or
a batch of canonical run payloads from a :class:`~repro.service.client.
ServiceClient` acting as an executor.  Its identity *is* its content: the job
id reuses the :meth:`~repro.runtime.spec.RunSpec.content_key` machinery, so
two clients submitting the same physics collide on the same job and the
second submission becomes a dedup hit instead of duplicate work.

Jobs move through ``queued → running → done | failed | cancelled``.  Each
grid point carries its own status (``pending → ok | failed | cancelled``)
with captured error tracebacks, so one diverging point never poisons the
job's other results.  A job persists under ``<service dir>/jobs/`` as an
atomic JSON snapshot plus an append-only completion journal: a completed
chunk appends one line of point outcomes instead of rewriting the whole
job, and the next snapshot compacts the journal away.  The daemon reloads
both on restart and re-queues whatever had not finished.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import SpecError
from repro.service.protocol import ServiceError
from repro.utils.serialization import content_hash

logger = logging.getLogger("repro.service.jobs")

# Job states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

JOB_STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)

#: States a job can never leave.
TERMINAL_STATES = (DONE, FAILED, CANCELLED)

# Point statuses.
PENDING = "pending"
OK = "ok"
POINT_FAILED = "failed"
POINT_CANCELLED = "cancelled"


@dataclass
class Point:
    """One grid point of a job: its cache key, coordinates and outcome."""

    key: str
    payload: dict
    coords: dict = field(default_factory=dict)
    label: "str | None" = None
    status: str = PENDING
    error: "dict | None" = None
    wall_time: float = 0.0
    cached: bool = False
    timings: "dict | None" = None  # per-phase seconds from the executing worker

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "payload": self.payload,
            "coords": dict(self.coords),
            "label": self.label,
            "status": self.status,
            "error": self.error,
            "wall_time": self.wall_time,
            "cached": self.cached,
            "timings": self.timings,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Point":
        return cls(
            key=payload["key"],
            payload=payload["payload"],
            coords=dict(payload.get("coords", {})),
            label=payload.get("label"),
            status=payload.get("status", PENDING),
            error=payload.get("error"),
            wall_time=payload.get("wall_time", 0.0),
            cached=payload.get("cached", False),
            timings=payload.get("timings"),
        )


@dataclass
class Job:
    """One submitted job: spec, priority, state machine and its points."""

    job_id: str
    kind: str  # "run" | "sweep" | "batch"
    spec: dict  # the submitted (non-canonical) payload, for provenance
    points: "list[Point]" = field(default_factory=list)
    priority: int = 0
    state: str = QUEUED
    label: "str | None" = None
    created: float = field(default_factory=time.time)
    started: "float | None" = None
    finished: "float | None" = None
    error: "dict | None" = None  # job-level failure (spec expansion, recovery)
    #: The submitting client's span context ({"trace_id", "span_id"}), handed
    #: to every worker claiming this job's chunks so their spans join the
    #: client's trace.  ``None`` when the client was not tracing.
    trace: "dict | None" = None

    # ----------------------------------------------------------------- queries

    @property
    def counts(self) -> dict:
        """Per-status point counts plus the cache-served subset."""
        tally = {PENDING: 0, OK: 0, POINT_FAILED: 0, POINT_CANCELLED: 0}
        cached = 0
        for point in self.points:
            tally[point.status] = tally.get(point.status, 0) + 1
            if point.cached:
                cached += 1
        # "succeeded", not "ok": these counts ride inside response frames
        # whose own "ok" field is the protocol-level success flag.
        return {
            "total": len(self.points),
            "done": tally[OK] + tally[POINT_FAILED],
            "succeeded": tally[OK],
            "failed": tally[POINT_FAILED],
            "cancelled": tally[POINT_CANCELLED],
            "pending": tally[PENDING],
            "cached": cached,
        }

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def pending_indices(self) -> "list[int]":
        return [i for i, point in enumerate(self.points) if point.status == PENDING]

    def summary(self) -> dict:
        """The status-op view: everything except the per-point payloads."""
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "state": self.state,
            "priority": self.priority,
            "label": self.label,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
            **self.counts,
        }

    # ----------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "spec": self.spec,
            "priority": self.priority,
            "state": self.state,
            "label": self.label,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
            "trace": self.trace,
            "points": [point.to_dict() for point in self.points],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Job":
        state = payload.get("state", QUEUED)
        if state not in JOB_STATES:
            raise ServiceError(f"unknown job state {state!r} in state file")
        return cls(
            job_id=payload["job_id"],
            kind=payload.get("kind", "run"),
            spec=payload.get("spec", {}),
            points=[Point.from_dict(p) for p in payload.get("points", [])],
            priority=payload.get("priority", 0),
            state=state,
            label=payload.get("label"),
            created=payload.get("created", time.time()),
            started=payload.get("started"),
            finished=payload.get("finished"),
            error=payload.get("error"),
            trace=payload.get("trace"),
        )


# ---------------------------------------------------------------------------
# Job construction
# ---------------------------------------------------------------------------


def job_from_spec(payload: dict, *, priority: int = 0) -> Job:
    """Expand a submitted run/sweep spec dict into a :class:`Job`.

    The job id is the spec's own content key; each point's key is the
    expanded :class:`~repro.runtime.spec.RunSpec` content key — exactly what
    the shared :class:`~repro.runtime.cache.ResultCache` is addressed by.
    Raises :class:`~repro.exceptions.SpecError` on malformed specs (submission
    fails loudly; no job is created).
    """
    from repro.runtime.spec import RunSpec, SweepSpec

    kind = payload.get("spec")
    if kind == "run":
        spec = RunSpec.from_dict(payload)
        points = [
            Point(
                key=spec.content_key(),
                payload=spec.to_dict(canonical=True),
                coords={},
                label=spec.label,
            )
        ]
        return Job(
            job_id=spec.content_key(),
            kind="run",
            spec=payload,
            points=points,
            priority=priority,
            label=spec.label,
        )
    if kind == "sweep":
        spec = SweepSpec.from_dict(payload)
        points = [
            Point(
                key=run.content_key(),
                payload=run.to_dict(canonical=True),
                coords=dict(coords),
                label=run.label,
            )
            for coords, run in spec.expand()
        ]
        return Job(
            job_id=spec.content_key(),
            kind="sweep",
            spec=payload,
            points=points,
            priority=priority,
            label=spec.name,
        )
    raise SpecError(
        f"cannot submit a spec of kind {kind!r}: expected a RunSpec or "
        f"SweepSpec dict (with 'spec': 'run' | 'sweep') or a payload batch"
    )


def job_from_batch(payloads: "list[dict]", *, priority: int = 0) -> Job:
    """A job from canonical RunSpec payloads (the executor-client path).

    Point keys are recomputed through :class:`~repro.runtime.spec.RunSpec`
    round-trips so a hand-altered payload cannot poison the shared cache
    under a stale key; the job id hashes the ordered key list.
    """
    from repro.runtime.spec import RunSpec

    if not payloads:
        raise SpecError("a batch submission needs at least one payload")
    points = []
    for payload in payloads:
        spec = RunSpec.from_dict(payload)
        points.append(
            Point(
                key=spec.content_key(),
                payload=spec.to_dict(canonical=True),
                coords={"index": len(points)},
                label=spec.label,
            )
        )
    job_id = content_hash([point.key for point in points], tag="batchjob")
    return Job(job_id=job_id, kind="batch", spec={"spec": "batch",
               "num_payloads": len(payloads)}, points=points, priority=priority)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


class JobStore:
    """Per-job JSON snapshots and completion journals under one directory.

    :meth:`save` writes ``<job_id>.json`` atomically (temp file +
    ``os.replace``) and then removes ``<job_id>.journal``, whose lines the
    snapshot now holds.  :meth:`append` adds one line to the journal per
    completed chunk.  :meth:`load` and :meth:`load_all` replay the journal
    over the snapshot, in file order and only onto points still pending, so
    lines left behind by a crash between the two steps of a save replay
    harmlessly.  Replay stops at the first line that does not decode or does
    not fit the job (a torn tail from a crash mid-append): its points stay
    pending and re-run.
    """

    def __init__(self, directory: "str | Path"):
        self.directory = Path(directory)

    def _path(self, job_id: str) -> Path:
        return self.directory / f"{job_id}.json"

    def _journal(self, job_id: str) -> Path:
        return self.directory / f"{job_id}.journal"

    def save(self, job: Job) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(job.job_id)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(job.to_dict()))
        os.replace(tmp, path)
        _unlink(self._journal(job.job_id))

    def append(self, job: Job, indices: "list[int]") -> None:
        """Journal the outcomes of ``job.points[i]`` for each ``i`` as one line.

        Each point is ``[index, status, error, wall_time, timings]``: no
        payloads, no arrays.  The file is closed (flushed to the OS) before
        this returns.
        """
        entries = []
        for index in indices:
            point = job.points[index]
            entries.append(
                [index, point.status, point.error, point.wall_time, point.timings]
            )
        with open(self._journal(job.job_id), "a") as handle:
            handle.write(json.dumps(entries) + "\n")

    def _replay(self, job: Job) -> Job:
        path = self._journal(job.job_id)
        try:
            lines = path.read_bytes().splitlines()
        except FileNotFoundError:
            return job
        for number, line in enumerate(lines, start=1):
            try:
                entries = _journal_entries(line, len(job.points))
            except (ValueError, TypeError) as exc:
                logger.warning(
                    "journal %s stops at line %d of %d (%s); its points re-run",
                    path.name, number, len(lines), exc,
                )
                break
            for index, status, error, wall_time, timings in entries:
                point = job.points[index]
                if point.status == PENDING:
                    point.status, point.error = status, error
                    point.wall_time, point.timings = wall_time, timings
        return job

    def load(self, job_id: str) -> "Job | None":
        try:
            job = Job.from_dict(json.loads(self._path(job_id).read_text()))
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, KeyError) as exc:
            raise ServiceError(f"corrupt job state file for {job_id}: {exc}") from exc
        return self._replay(job)

    def load_all(self) -> "list[Job]":
        """Every readable job, journal replayed, oldest submission first."""
        jobs = []
        for path in sorted(self.directory.glob("*.json")):
            try:
                job = Job.from_dict(json.loads(path.read_text()))
            except (json.JSONDecodeError, KeyError, ServiceError):
                # A torn write from a crashed daemon: quarantine, don't crash.
                logger.warning(
                    "quarantining corrupt job state file %s as %s",
                    path.name,
                    path.with_suffix(".json.corrupt").name,
                )
                path.rename(path.with_suffix(".json.corrupt"))
                journal = self._journal(path.stem)
                if journal.exists():
                    journal.rename(journal.with_suffix(".journal.corrupt"))
                continue
            jobs.append(self._replay(job))
        return sorted(jobs, key=lambda job: job.created)

    def delete(self, job_id: str) -> None:
        _unlink(self._path(job_id))
        _unlink(self._journal(job_id))


def _journal_entries(line: bytes, num_points: int) -> list:
    """One journal line's entries, checked against a job of ``num_points``."""
    entries = json.loads(line)
    if not isinstance(entries, list):
        raise ValueError("not a list of point outcomes")
    checked = []
    for entry in entries:
        index, status, error, wall_time, timings = entry
        if type(index) is not int or not 0 <= index < num_points:
            raise ValueError(f"point index {index!r} out of range")
        if status not in (OK, POINT_FAILED):
            raise ValueError(f"unknown point status {status!r}")
        checked.append((index, status, error, float(wall_time), timings))
    return checked


def _unlink(path: Path) -> None:
    try:
        path.unlink()
    except FileNotFoundError:
        pass
