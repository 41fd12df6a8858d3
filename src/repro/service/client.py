"""Client side of the repro service: job control plus the Executor seam.

:class:`ServiceClient` speaks the JSON-lines protocol to a running daemon.
It exposes the job API (``submit``/``status``/``wait``/``result``/``cancel``/
``stats``/``workers``/``shutdown_daemon``) *and* implements the
:class:`~repro.runtime.executor.Executor` protocol (``map_specs``), so the
whole runtime layer gains remote execution through one line::

    session = Session(executor=ServiceClient())
    results = session.sweep(problem, strategies=("direct", "pauli"), ...)

In executor mode the client submits the session's canonical task payloads as
one batch job, blocks in the daemon's ``wait`` op until the job finishes
(forwarding each change of its progress counters to the session's
``progress`` callback), and returns the per-point outcome dicts exactly as an
in-process executor would — the session cannot tell a daemon from a process
pool, but every submitting client now shares the daemon's warm compile memo
and one result-cache namespace.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any

from repro.exceptions import ExecutionError
from repro.resilience import RetryPolicy
from repro.service.protocol import (
    RemoteError,
    ServiceConnectionError,
    default_socket_path,
    outcome_from_wire,
    request,
)
from repro.telemetry import current_trace_context, span

#: Longest one ``wait`` request of :meth:`ServiceClient.wait` blocks in the
#: daemon, so the ``timeout`` and stall clocks are checked at least this often.
WAIT_SLICE = 1.0

#: Default seconds of *no observable progress* before :meth:`ServiceClient.wait`
#: declares a job stalled (progress resets the clock; see ``stall_timeout``).
DEFAULT_STALL_TIMEOUT = 300.0

#: Default seconds a client request waits out the daemon-startup race.
DEFAULT_CONNECT_WINDOW = 5.0

#: Sentinel: "build the default RetryPolicy" (``None`` means *no* retrying).
_DEFAULT_RETRY = object()


class ServiceClient:
    """Talk to a repro daemon; usable anywhere an executor is.

    Waiting on a job never sleeps in the client: :meth:`wait` (and so
    :meth:`map_specs`) blocks in the daemon's ``wait`` op, which answers the
    moment the job finishes.

    Parameters
    ----------
    socket_path:
        The daemon's Unix socket (default: the standard service directory).
    timeout:
        Per-request socket timeout in seconds.
    stall_timeout:
        Seconds of *zero observable progress* (no done-count or state
        change) before :meth:`wait`/:meth:`map_specs` declare a job stalled.
        A job actively completing points never trips it, however long the
        sweep runs.  ``None`` waits forever.
    connect_window:
        Seconds each request rides out the daemon-startup race (socket not
        yet bound / not yet listening) before failing.
    retry:
        The :class:`~repro.resilience.RetryPolicy` wrapped around every
        request.  The default reconnects with jittered backoff on
        :class:`~repro.service.protocol.ServiceConnectionError` — dropped
        connections, daemon restarts, socket timeouts.  Safe to resend
        because every op is idempotent (a job id IS its content key).
        ``None`` disables retrying.
    """

    name = "service"

    def __init__(
        self,
        socket_path: "str | Path | None" = None,
        *,
        timeout: float = 60.0,
        stall_timeout: "float | None" = DEFAULT_STALL_TIMEOUT,
        connect_window: float = DEFAULT_CONNECT_WINDOW,
        retry: "RetryPolicy | None" = _DEFAULT_RETRY,  # type: ignore[assignment]
    ):
        self.socket_path = (
            Path(socket_path).expanduser() if socket_path else default_socket_path()
        )
        self.timeout = float(timeout)
        self.stall_timeout = (
            None if stall_timeout is None else float(stall_timeout)
        )
        self.connect_window = float(connect_window)
        if retry is _DEFAULT_RETRY:
            retry = RetryPolicy(
                max_attempts=4,
                base_delay=0.05,
                max_delay=1.0,
                retryable=(ServiceConnectionError,),
            )
        self.retry = retry

    def _request(self, op: str, **fields: Any) -> dict:
        def send() -> dict:
            return request(
                self.socket_path,
                op,
                timeout=self.timeout,
                connect_window=self.connect_window,
                **fields,
            )

        if self.retry is None:
            return send()
        return self.retry.call(send, what=f"service op {op!r}")

    # ---------------------------------------------------------------- job API

    def ping(self) -> dict:
        """Round-trip liveness probe (daemon pid and protocol version)."""
        return self._request("ping")

    def submit(self, spec, *, priority: int = 0) -> dict:
        """Submit a run/sweep spec (object or dict); returns the submit ack.

        The ack carries ``job_id`` (the spec's content key), the job
        ``state`` and ``deduped`` — ``True`` when an equivalent job was
        already known to the daemon and nothing re-entered the queue.
        """
        payload = spec.to_dict() if hasattr(spec, "to_dict") else dict(spec)
        return self._request("submit", spec=payload, priority=priority,
                             **self._trace_field())

    def submit_payloads(self, payloads: "list[dict]", *, priority: int = 0) -> dict:
        """Submit canonical RunSpec payload dicts as one batch job."""
        return self._request("submit", payloads=list(payloads), priority=priority,
                             **self._trace_field())

    @staticmethod
    def _trace_field() -> dict:
        """The submitter's span context, so worker spans join this trace."""
        trace = current_trace_context()
        return {"trace": trace} if trace else {}

    def status(self, job_id: str, *, points: bool = False) -> dict:
        """The job's summary (state, per-point progress counts, timestamps)."""
        return self._request("status", job_id=job_id, points=points)

    def wait(
        self,
        job_id: str,
        *,
        timeout: "float | None" = None,
        stall_timeout: "float | None" = None,
        progress=None,
    ) -> dict:
        """Block until the job reaches a terminal state; returns final status.

        The blocking happens in the daemon: each ``wait`` request returns as
        soon as the job finishes, so there is no client-side poll sleep.
        With a ``progress(done, total)`` callback the request also carries
        the last observed ``(state, done)`` and returns on every change.

        Two independent clocks can end the wait early: ``timeout`` is a hard
        wall-clock cap on the whole wait, and ``stall_timeout`` (default:
        the client's ``stall_timeout``) trips only when the job makes *no
        observable progress* — no done-count movement and no state change —
        for that long.  A 10 000-point sweep completing one point a minute
        never stalls; a sweep whose workers all died does, after one window.
        Each request blocks for at most :data:`WAIT_SLICE` and never past
        either clock, so both are checked on time.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        if stall_timeout is None:
            stall_timeout = self.stall_timeout
        last_progress = time.monotonic()
        observed: "tuple | None" = None
        while True:
            now = time.monotonic()
            # Half the socket timeout at most: the answer must beat it home.
            budget = [WAIT_SLICE, 0.5 * self.timeout]
            if deadline is not None:
                budget.append(deadline - now)
            if stall_timeout is not None:
                budget.append(last_progress + stall_timeout - now)
            fields = {"slice": max(0.0, min(budget))}
            if progress is not None and observed is not None:
                fields["seen"] = list(observed)
            status = self._request("wait", job_id=job_id, **fields)
            if progress is not None:
                progress(status["done"], status["total"])
            if status["state"] in ("done", "failed", "cancelled"):
                return status
            now = time.monotonic()
            snapshot = (status["state"], status["done"])
            if snapshot != observed:
                observed = snapshot
                last_progress = now
            elif stall_timeout is not None and now - last_progress > stall_timeout:
                raise ExecutionError(
                    f"job {job_id[:12]}… made no progress for "
                    f"{stall_timeout:g}s (state {status['state']}, "
                    f"{status['done']}/{status['total']} points) — workers "
                    f"dead or queue starved"
                )
            if deadline is not None and now > deadline:
                raise ExecutionError(
                    f"timed out after {timeout:g}s waiting for job "
                    f"{job_id[:12]}… (state {status['state']}, "
                    f"{status['done']}/{status['total']} points)"
                )

    def result(self, job_id: str, *, partial: bool = False) -> "list[dict]":
        """Per-point outcome dicts (arrays decoded), in grid order."""
        response = self._request("result", job_id=job_id, partial=partial)
        return [outcome_from_wire(wire) for wire in response["outcomes"]]

    def records(self, job_id: str) -> "list[dict]":
        """Decoded per-point results: ``{coords, key, value | error, ...}``.

        The job-level convenience view for notebooks and the CLI;
        :meth:`result` returns the raw executor-shaped outcomes.
        """
        from repro.runtime.results import decode_result

        records = []
        for outcome in self.result(job_id):
            record = {
                "key": outcome.get("key"),
                "coords": outcome.get("coords", {}),
                "label": outcome.get("label"),
                "cached": outcome.get("cached", False),
                "wall_time": outcome.get("wall_time", 0.0),
                "ok": bool(outcome.get("ok")),
                "error": outcome.get("error"),
            }
            if outcome.get("ok"):
                record["value"] = decode_result(
                    outcome["result"], outcome.get("arrays", {})
                )
            records.append(record)
        return records

    def cancel(self, job_id: str) -> dict:
        """Cancel a queued/running job; pending points stop executing."""
        return self._request("cancel", job_id=job_id)

    def jobs(self) -> "list[dict]":
        """Summaries of every job the daemon knows about."""
        return self._request("jobs")["jobs"]

    def workers(self) -> "list[dict]":
        """The daemon's worker registry (local threads and remote processes)."""
        return self._request("workers")["workers"]

    def stats(self) -> dict:
        """Queue depth, jobs by state, cache hit rate, worker utilization."""
        return self._request("stats")

    def series(self, last: "int | None" = None) -> dict:
        """The daemon's metrics time-series ring buffer.

        Returns ``{"interval", "window", "samples": [...]}`` — each sample
        carries the registry counters/gauges plus per-second ``rates`` and
        the ``derived`` headlines (points/s, cache hit rate, queue depth).
        ``last`` limits the reply to the most recent N samples.
        """
        fields = {} if last is None else {"last": int(last)}
        return self._request("series", **fields)

    def health(self) -> dict:
        """Degradation probe: queue depth, reaper lag, cache writability,
        shm status and the ``resilience.*`` counters (plus ``healthy``)."""
        return self._request("health")

    def shutdown_daemon(self) -> dict:
        """Ask the daemon to stop (it persists all job state first)."""
        return self._request("shutdown")

    # --------------------------------------------------------- Executor seam

    def map_specs(self, payloads, *, progress=None) -> list[dict]:
        """The :class:`~repro.runtime.executor.Executor` protocol entry point.

        The canonical RunSpec payloads are submitted as one batch job and
        the per-point outcomes come back in payload order.
        """
        payloads = list(payloads)
        if not payloads:
            return []
        with span("service.map", points=len(payloads)):
            ack = self.submit_payloads(payloads)
            job_id = ack["job_id"]
            try:
                # Progress-aware: the deadline extends as long as points keep
                # completing and trips only on a true stall — a fixed
                # ``timeout * len(payloads)`` product both fails slow sweeps
                # that are working and waits absurdly long on dead ones.
                self.wait(job_id, progress=progress)
            except RemoteError as exc:
                raise ExecutionError(
                    f"daemon rejected job {job_id[:12]}…: {exc}"
                ) from exc
            outcomes = self.result(job_id)
        if len(outcomes) != len(payloads):
            raise ExecutionError(
                f"daemon returned {len(outcomes)} outcomes for {len(payloads)} tasks"
            )
        return outcomes

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ServiceClient({str(self.socket_path)!r})"
