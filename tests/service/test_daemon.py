"""Daemon lifecycle: queueing, leases, cancellation, recovery, dedup."""

from __future__ import annotations

import io
import sys
import threading
import time

import pytest

from repro.resilience import configure_faults
from repro.runtime import RunSpec, SweepSpec
from repro.runtime.executor import execute_spec
from repro.service import jobs as J
from repro.service.daemon import Daemon
from repro.service.jobs import JobStore
from repro.service.protocol import (
    outcome_from_wire,
    outcome_to_wire,
    recv_frame,
    send_frame,
)

from _service_helpers import make_problem, wait_until


def sweep_spec(**kwargs):
    kwargs.setdefault("strategies", ("direct",))
    kwargs.setdefault("steps", (1, 2, 3, 4))
    kwargs.setdefault("backend", "sampling")
    kwargs.setdefault("run_kwargs", {"shots": 32})
    kwargs.setdefault("seed", 7)
    return SweepSpec(problem=make_problem(), **kwargs)


def submit(daemon, spec, **fields):
    response = daemon.handle({"op": "submit", "spec": spec.to_dict(), **fields})
    assert response["ok"], response
    return response


def claim_and_complete(daemon, worker="w"):
    """Claim one chunk, execute it in-process and complete it; the claim."""
    claim = daemon.handle({"op": "claim", "worker": worker})
    if "chunk_id" in claim:
        outcomes = [outcome_to_wire(execute_spec(p)) for p in claim["payloads"]]
        done = daemon.handle({
            "op": "complete", "worker": worker,
            "chunk_id": claim["chunk_id"], "outcomes": outcomes,
        })
        assert done["applied"] == len(outcomes), done
    return claim


class TestSubmitAndExecute:
    def test_run_job_completes_and_serves_results(self, make_daemon):
        daemon = make_daemon(local_workers=1)
        spec = RunSpec(problem=make_problem(), backend="resource")
        ack = submit(daemon, spec)
        assert ack["job_id"] == spec.content_key() and not ack["deduped"]
        status = wait_until(
            lambda: (s := daemon.handle({"op": "status", "job_id": ack["job_id"]}))
            and s["state"] in ("done", "failed") and s
        )
        assert status["state"] == "done" and status["succeeded"] == 1
        result = daemon.handle({"op": "result", "job_id": ack["job_id"]})
        assert result["ok"] and len(result["outcomes"]) == 1
        assert result["outcomes"][0]["ok"]
        outcome = outcome_from_wire(result["outcomes"][0])
        assert outcome["result"]["kind"] == "resource_estimate"

    def test_sweep_points_land_in_grid_order(self, make_daemon):
        daemon = make_daemon(local_workers=2, chunk_size=2)
        spec = sweep_spec()
        ack = submit(daemon, spec)
        wait_until(
            lambda: daemon.handle({"op": "status", "job_id": ack["job_id"]})["state"]
            == "done"
        )
        result = daemon.handle({"op": "result", "job_id": ack["job_id"]})
        keys = [run.content_key() for _, run in spec.expand()]
        assert [o["key"] for o in result["outcomes"]] == keys
        assert all(o["ok"] for o in result["outcomes"])

    def test_failed_point_marks_job_failed_but_keeps_others(self, make_daemon):
        daemon = make_daemon(local_workers=1)
        spec = sweep_spec(
            strategies=("direct", "block_encoding"), steps=None,
            backend="exact", run_kwargs={}, seed=None,
        )
        ack = submit(daemon, spec)
        status = wait_until(
            lambda: (s := daemon.handle({"op": "status", "job_id": ack["job_id"]}))
            and s["state"] in ("done", "failed") and s
        )
        assert status["state"] == "failed"
        assert status["failed"] >= 1 and status["succeeded"] >= 1
        outcomes = daemon.handle({"op": "result", "job_id": ack["job_id"]})["outcomes"]
        failed = [o for o in outcomes if not o["ok"]]
        assert failed and all("traceback" in o["error"] for o in failed)

    def test_result_before_completion_requires_partial(self, make_daemon):
        daemon = make_daemon(local_workers=0)
        ack = submit(daemon, sweep_spec())
        refusal = daemon.handle({"op": "result", "job_id": ack["job_id"]})
        assert not refusal["ok"] and "poll status" in refusal["error"]["message"]
        partial = daemon.handle(
            {"op": "result", "job_id": ack["job_id"], "partial": True}
        )
        assert partial["ok"]
        assert all(o["error"]["type"] == "PendingError" for o in partial["outcomes"])


class TestDedupAndCache:
    def test_second_submission_of_same_content_key_dedups(self, make_daemon):
        daemon = make_daemon(local_workers=0)
        spec = sweep_spec()
        first = submit(daemon, spec)
        second = submit(daemon, spec)
        assert second["deduped"] and second["job_id"] == first["job_id"]
        # Nothing re-entered the queue for the duplicate.
        stats = daemon.handle({"op": "stats"})
        assert stats["points"]["dedup_hits"] == 1
        assert stats["queue"]["points_pending"] == spec.num_points

    def test_points_already_cached_never_queue(self, make_daemon):
        daemon = make_daemon(local_workers=1)
        run = RunSpec(problem=make_problem(), backend="statevector")
        ack = submit(daemon, run)
        wait_until(
            lambda: daemon.handle({"op": "status", "job_id": ack["job_id"]})["state"]
            == "done"
        )
        # A *different* job whose grid contains that same point: the shared
        # point is served from cache, only the new point queues.
        sweep = SweepSpec(
            problem=make_problem(), strategies=("direct",),
            steps=(make_problem().steps, 2), backend="statevector",
        )
        ack2 = submit(daemon, sweep)
        assert not ack2["deduped"] and ack2["cached"] == 1
        status = wait_until(
            lambda: (s := daemon.handle({"op": "status", "job_id": ack2["job_id"]}))
            and s["state"] == "done" and s
        )
        assert status["cached"] == 1 and status["succeeded"] == 2

    def test_resubmission_after_restart_is_served_from_cache(self, make_daemon):
        first = make_daemon(local_workers=1)
        spec = sweep_spec()
        ack = submit(first, spec)
        wait_until(
            lambda: first.handle({"op": "status", "job_id": ack["job_id"]})["state"]
            == "done"
        )
        first.shutdown()
        second = make_daemon(local_workers=0)  # no workers: cache or nothing
        # The job store remembers the job; even a fresh, content-equal spec
        # never reaches the (workerless) queue.
        resubmit = submit(second, spec)
        assert resubmit["deduped"] and resubmit["state"] == "done"
        outcomes = second.handle({"op": "result", "job_id": ack["job_id"]})["outcomes"]
        assert all(o["ok"] for o in outcomes)

    def test_result_sends_stored_entries_and_degrades_per_point(self, service_env):
        daemon = Daemon(local_workers=0, chunk_size=4)  # driven in-process
        spec = sweep_spec(backend="statevector", run_kwargs={}, seed=None)
        ack = submit(daemon, spec)
        configure_faults("cache.put:raise=EIO@n=1")  # the first point stays uncached
        try:
            claim_and_complete(daemon)
        finally:
            configure_faults(None)
        points = daemon._jobs[ack["job_id"]].points
        assert points[0].key not in daemon.cache
        damaged = daemon.cache._path(points[1].key)
        damaged.write_bytes(damaged.read_bytes()[:-1])
        hits, misses = daemon.cache.hits, daemon.cache.misses

        response = daemon.handle({"op": "result", "job_id": ack["job_id"]})
        outcomes = response["outcomes"]
        # The damaged entry fails its own point only; the uncached point is
        # served from the daemon's in-memory copy.
        assert [o["ok"] for o in outcomes] == [True, False, True, True]
        assert outcomes[1]["error"]["type"] == "CacheMissError"
        assert (daemon.cache.hits - hits, daemon.cache.misses - misses) == (2, 2)
        frame = io.BytesIO()  # the response frame, as the daemon writes it
        send_frame(frame, response)
        frame.seek(0)
        received = recv_frame(frame)["outcomes"]
        for index in (2, 3):  # the wire carries the stored bytes as they are
            stored = daemon.cache._path(points[index].key).read_bytes()
            assert outcomes[index]["entry"] == stored
            assert received[index]["entry"] == stored  # one attachment each
        for index in (0, 2, 3):
            reference = execute_spec(points[index].payload)["arrays"]["data"]
            served = outcome_from_wire(received[index])["arrays"]["data"]
            assert served.dtype == reference.dtype and served.shape == reference.shape
            assert served.tobytes() == reference.tobytes()


class TestCancellation:
    def test_cancel_queued_job_drops_all_chunks(self, make_daemon):
        daemon = make_daemon(local_workers=0, chunk_size=2)
        ack = submit(daemon, sweep_spec())
        cancel = daemon.handle({"op": "cancel", "job_id": ack["job_id"]})
        assert cancel["ok"] and cancel["changed"] and cancel["state"] == "cancelled"
        assert daemon.handle({"op": "claim", "worker": "w"})["idle"]
        outcomes = daemon.handle({"op": "result", "job_id": ack["job_id"]})["outcomes"]
        assert all(o["error"]["type"] == "CancelledError" for o in outcomes)
        # Cancelling again is a no-op, not an error.
        again = daemon.handle({"op": "cancel", "job_id": ack["job_id"]})
        assert again["ok"] and not again["changed"]

    def test_cancel_mid_sweep_stops_remaining_points(self, make_daemon):
        daemon = make_daemon(local_workers=0, chunk_size=2)
        ack = submit(daemon, sweep_spec())  # 4 points → 2 chunks
        claim = daemon.handle({"op": "claim", "worker": "w-1"})
        assert claim["ok"] and len(claim["payloads"]) == 2
        # The worker finishes its first point, then the job is cancelled.
        done_outcome = outcome_to_wire(execute_spec(claim["payloads"][0]))
        daemon.handle({"op": "cancel", "job_id": ack["job_id"]})
        # Mid-chunk heartbeat tells the worker to stop...
        beat = daemon.handle(
            {"op": "heartbeat", "worker": "w-1", "chunk_id": claim["chunk_id"]}
        )
        assert beat["cancelled"]
        # ...and a late completion is discarded, not applied.
        late = daemon.handle({
            "op": "complete", "worker": "w-1", "chunk_id": claim["chunk_id"],
            "outcomes": [done_outcome],
        })
        assert late["discarded"] and late["applied"] == 0
        status = daemon.handle({"op": "status", "job_id": ack["job_id"]})
        assert status["state"] == "cancelled"
        assert status["cancelled"] == 4 and status["done"] == 0


class TestWorkerDeath:
    def test_expired_lease_requeues_the_chunk(self, make_daemon):
        daemon = make_daemon(local_workers=0, chunk_size=2, lease_seconds=0.2)
        ack = submit(daemon, sweep_spec(steps=(1, 2)))  # one chunk of 2
        claim = daemon.handle({"op": "claim", "worker": "doomed"})
        assert claim["ok"] and not claim.get("idle")
        # The worker dies: no heartbeat, no completion.  The reaper re-queues.
        reclaim = wait_until(
            lambda: (c := daemon.handle({"op": "claim", "worker": "survivor"}))
            and not c.get("idle") and c
        )
        assert reclaim["job_id"] == ack["job_id"]
        assert reclaim["chunk_id"] != claim["chunk_id"]
        # The survivor finishes the chunk; the job completes normally.
        outcomes = [outcome_to_wire(execute_spec(p)) for p in reclaim["payloads"]]
        done = daemon.handle({
            "op": "complete", "worker": "survivor",
            "chunk_id": reclaim["chunk_id"], "outcomes": outcomes,
        })
        assert done["applied"] == 2 and not done["discarded"]
        assert daemon.handle({"op": "status", "job_id": ack["job_id"]})["state"] == "done"
        # The dead worker's lost lease is on the record.
        workers = {w["worker_id"]: w for w in daemon.handle({"op": "workers"})["workers"]}
        assert workers["doomed"]["lost_leases"] == 1

    def test_stale_completion_after_reap_is_discarded(self, make_daemon):
        daemon = make_daemon(local_workers=0, chunk_size=2, lease_seconds=0.2)
        submit(daemon, sweep_spec(steps=(1, 2)))
        claim = daemon.handle({"op": "claim", "worker": "slow"})
        wait_until(
            lambda: not daemon.handle({"op": "claim", "worker": "probe"}).get("idle")
            or None, timeout=10.0,
        )
        # "slow" finally reports — after losing the lease.
        outcomes = [outcome_to_wire(execute_spec(p)) for p in claim["payloads"]]
        late = daemon.handle({
            "op": "complete", "worker": "slow",
            "chunk_id": claim["chunk_id"], "outcomes": outcomes,
        })
        assert late["discarded"]

    def test_completion_from_a_non_holder_leaves_the_lease(self, make_daemon):
        daemon = make_daemon(local_workers=0, chunk_size=2)
        ack = submit(daemon, sweep_spec(steps=(1, 2)))  # one chunk of 2
        claim = daemon.handle({"op": "claim", "worker": "holder"})
        outcomes = [outcome_to_wire(execute_spec(p)) for p in claim["payloads"]]
        intruder = daemon.handle({
            "op": "complete", "worker": "intruder",
            "chunk_id": claim["chunk_id"], "outcomes": outcomes,
        })
        assert intruder["discarded"] and intruder["applied"] == 0
        # The holder's lease survives the intrusion...
        beat = daemon.handle(
            {"op": "heartbeat", "worker": "holder", "chunk_id": claim["chunk_id"]}
        )
        assert not beat["cancelled"]
        # ...so its own completion lands and the job finishes.
        done = daemon.handle({
            "op": "complete", "worker": "holder",
            "chunk_id": claim["chunk_id"], "outcomes": outcomes,
        })
        assert done["applied"] == 2 and not done["discarded"]
        assert daemon.handle({"op": "status", "job_id": ack["job_id"]})["state"] == "done"

    def test_lease_lost_during_the_cache_write_discards_the_completion(
        self, make_daemon
    ):
        daemon = make_daemon(local_workers=0, chunk_size=2)
        ack = submit(daemon, sweep_spec(steps=(1, 2)))
        claim = daemon.handle({"op": "claim", "worker": "w"})
        outcomes = [outcome_to_wire(execute_spec(p)) for p in claim["payloads"]]
        real_put = daemon.cache.put_encoded
        lock_free = []

        def put_then_cancel(*args, **kwargs):
            real_put(*args, **kwargs)
            # Cancel from another thread: it gets the lock only if the
            # cache write runs outside it.
            cancel = threading.Thread(
                target=daemon.handle,
                args=({"op": "cancel", "job_id": ack["job_id"]},),
                daemon=True,
            )
            cancel.start()
            cancel.join(timeout=5.0)
            lock_free.append(not cancel.is_alive())

        daemon.cache.put_encoded = put_then_cancel
        done = daemon.handle({
            "op": "complete", "worker": "w",
            "chunk_id": claim["chunk_id"], "outcomes": outcomes,
        })
        assert lock_free and all(lock_free)
        assert done["discarded"] and done["applied"] == 0
        status = daemon.handle({"op": "status", "job_id": ack["job_id"]})
        assert status["state"] == "cancelled" and status["done"] == 0
        # All the lost completion leaves is a content-addressed cache entry.
        assert all(RunSpec.from_dict(p).content_key() in daemon.cache
                   for p in claim["payloads"])


class TestRestartRecovery:
    def test_unfinished_job_requeues_on_restart(self, make_daemon):
        first = make_daemon(local_workers=0)
        spec = sweep_spec()
        ack = submit(first, spec)
        first.shutdown()  # nothing executed; state files say queued
        second = make_daemon(local_workers=1)
        status = wait_until(
            lambda: (s := second.handle({"op": "status", "job_id": ack["job_id"]}))
            and s["state"] == "done" and s
        )
        assert status["succeeded"] == spec.num_points

    def test_partially_finished_job_resumes_where_it_stopped(self, make_daemon):
        first = make_daemon(local_workers=0, chunk_size=2)
        spec = sweep_spec()
        ack = submit(first, spec)
        claim = first.handle({"op": "claim", "worker": "w"})
        outcomes = [outcome_to_wire(execute_spec(p)) for p in claim["payloads"]]
        first.handle({
            "op": "complete", "worker": "w",
            "chunk_id": claim["chunk_id"], "outcomes": outcomes,
        })
        first.shutdown()
        second = make_daemon(local_workers=1)
        status = wait_until(
            lambda: (s := second.handle({"op": "status", "job_id": ack["job_id"]}))
            and s["state"] == "done" and s
        )
        # Only the unfinished half re-executed; the first chunk's points
        # came back from the persisted record (they were never re-queued).
        assert status["succeeded"] == spec.num_points
        stats = second.handle({"op": "stats"})
        assert stats["points"]["executed"] == spec.num_points - len(outcomes)


class TestJournal:
    """Completions persist as journal lines between job snapshots."""

    @staticmethod
    def crash_after_two_chunks():
        """An 8-point job with 2 of its 4 chunks completed, then no shutdown.

        The daemon is never started or shut down, so the only record of the
        two completions is what ``complete`` wrote before returning.
        """
        crashed = Daemon(local_workers=0, chunk_size=2)
        ack = submit(crashed, sweep_spec(steps=tuple(range(1, 9))))
        for _ in range(2):
            claim_and_complete(crashed)
        return crashed, ack["job_id"]

    @staticmethod
    def assert_finishes(daemon, job_id, *, executed):
        status = wait_until(
            lambda: (s := daemon.handle({"op": "status", "job_id": job_id}))
            and s["state"] == "done" and s
        )
        assert status["succeeded"] == 8
        assert daemon.handle({"op": "stats"})["points"]["executed"] == executed
        outcomes = daemon.handle({"op": "result", "job_id": job_id})["outcomes"]
        for wire, point in zip(outcomes, daemon._jobs[job_id].points):
            reference = execute_spec(point.payload)
            outcome = outcome_from_wire(wire)
            assert outcome["ok"] and outcome["result"] == reference["result"]
            arrays = outcome["arrays"]
            assert arrays.keys() == reference["arrays"].keys()
            for name, array in reference["arrays"].items():
                assert arrays[name].tobytes() == array.tobytes()

    def test_restart_after_a_crash_resumes_from_the_journal(self, make_daemon):
        _, job_id = self.crash_after_two_chunks()
        self.assert_finishes(make_daemon(local_workers=1), job_id, executed=4)

    def test_torn_last_line_re_runs_only_its_chunk(self, make_daemon, caplog):
        crashed, job_id = self.crash_after_two_chunks()
        journal = crashed.store.directory / f"{job_id}.journal"
        first, second = journal.read_bytes().splitlines()
        journal.write_bytes(first + b"\n" + second[: len(second) // 2])
        self.assert_finishes(make_daemon(local_workers=1), job_id, executed=6)
        assert "stops at line 2 of 2" in caplog.text

    def test_completion_is_on_disk_when_complete_returns(self, make_daemon):
        daemon = make_daemon(local_workers=0, chunk_size=2)
        ack = submit(daemon, sweep_spec())
        claim_and_complete(daemon)
        fresh = JobStore(daemon.store.directory).load(ack["job_id"])
        assert [p.status for p in fresh.points] == ["ok", "ok", "pending", "pending"]
        assert all(p.wall_time > 0 for p in fresh.points[:2])

    def test_snapshots_per_job_do_not_grow_with_its_size(self, make_daemon):
        daemon = make_daemon(local_workers=0, chunk_size=2)
        real_save = daemon.store.save

        def lifecycle(spec):
            saves = []
            daemon.store.save = lambda job: (saves.append(job.state), real_save(job))
            try:
                submit(daemon, spec)
                while "chunk_id" in claim_and_complete(daemon):
                    pass
            finally:
                del daemon.store.save
            return saves

        small = lifecycle(sweep_spec(steps=(1, 2, 3, 4)))
        large = lifecycle(sweep_spec(steps=tuple(range(1, 17))))
        assert small == large == ["queued", "running", "done"]


class _Waiter:
    """A ``wait`` request blocking in ``Daemon.handle`` on its own thread."""

    def __init__(self, daemon, request):
        self.response = None
        self.returned_at = None
        self._thread = threading.Thread(
            target=self._run, args=(daemon, request), daemon=True
        )
        self._thread.start()

    def _run(self, daemon, request):
        self.response = daemon.handle({"op": "wait", **request})
        self.returned_at = time.monotonic()

    def join(self, timeout):
        self._thread.join(timeout=timeout)
        assert not self._thread.is_alive(), "wait never returned"
        return self.response


class TestWaitOp:
    def test_terminal_job_returns_at_once(self, make_daemon):
        daemon = make_daemon(local_workers=0)
        ack = submit(daemon, sweep_spec())
        daemon.handle({"op": "cancel", "job_id": ack["job_id"]})
        start = time.monotonic()
        status = daemon.handle({"op": "wait", "job_id": ack["job_id"], "slice": 5.0})
        assert time.monotonic() - start < 0.5
        assert status["ok"] and status["state"] == "cancelled"
        assert status["job_id"] == ack["job_id"] and status["total"] == 4

    def test_returns_when_done_moves_past_seen(self, make_daemon):
        daemon = make_daemon(local_workers=0, chunk_size=2)
        ack = submit(daemon, sweep_spec())
        claim = daemon.handle({"op": "claim", "worker": "w"})
        outcomes = [outcome_to_wire(execute_spec(p)) for p in claim["payloads"]]
        waiter = _Waiter(daemon, {
            "job_id": ack["job_id"], "seen": ["running", 0], "slice": 5.0,
        })
        time.sleep(0.1)
        assert waiter.response is None  # (running, 0) is what it has seen
        daemon.handle({
            "op": "complete", "worker": "w",
            "chunk_id": claim["chunk_id"], "outcomes": outcomes,
        })
        completed = time.monotonic()
        status = waiter.join(timeout=2.0)
        assert status["state"] == "running" and status["done"] == 2
        assert waiter.returned_at - completed < 0.5

    def test_unchanged_job_returns_when_the_slice_ends(self, make_daemon):
        daemon = make_daemon(local_workers=0)
        ack = submit(daemon, sweep_spec())
        for seen in ({"seen": ["queued", 0]}, {}):
            start = time.monotonic()
            status = daemon.handle(
                {"op": "wait", "job_id": ack["job_id"], "slice": 0.3, **seen}
            )
            assert 0.25 <= time.monotonic() - start < 2.0
            assert status["ok"] and status["state"] == "queued"
            assert status["done"] == 0

    def test_daemon_caps_the_slice(self, make_daemon, monkeypatch):
        from repro.service import daemon as daemon_module

        monkeypatch.setattr(daemon_module, "MAX_WAIT_SLICE", 0.2)
        daemon = make_daemon(local_workers=0)
        ack = submit(daemon, sweep_spec())
        start = time.monotonic()
        daemon.handle({"op": "wait", "job_id": ack["job_id"], "slice": 60.0})
        assert time.monotonic() - start < 2.0

    def test_cancel_from_another_thread_wakes_the_waiter(self, make_daemon):
        daemon = make_daemon(local_workers=0)
        ack = submit(daemon, sweep_spec())
        waiter = _Waiter(daemon, {"job_id": ack["job_id"], "slice": 5.0})
        time.sleep(0.1)
        daemon.handle({"op": "cancel", "job_id": ack["job_id"]})
        cancelled = time.monotonic()
        assert waiter.join(timeout=2.0)["state"] == "cancelled"
        assert waiter.returned_at - cancelled < 0.5

    def test_request_stop_wakes_the_waiter(self, make_daemon):
        daemon = make_daemon(local_workers=0)
        ack = submit(daemon, sweep_spec())
        waiter = _Waiter(daemon, {"job_id": ack["job_id"], "slice": 5.0})
        time.sleep(0.1)
        daemon.request_stop()
        stopped = time.monotonic()
        status = waiter.join(timeout=2.0)
        assert status["ok"] and status["state"] == "queued"
        assert waiter.returned_at - stopped < 0.5

    def test_unknown_job_or_nan_slice_is_an_error_frame(self, make_daemon):
        daemon = make_daemon(local_workers=0)
        missing = daemon.handle({"op": "wait", "job_id": "feedbead", "slice": 5.0})
        assert not missing["ok"] and "no such job" in missing["error"]["message"]
        ack = submit(daemon, sweep_spec())
        nan = daemon.handle(
            {"op": "wait", "job_id": ack["job_id"], "slice": float("nan")}
        )
        assert not nan["ok"] and "NaN" in nan["error"]["message"]


class TestLocalWorkers:
    def test_local_threads_run_the_worker_loop_without_wire_encoding(
        self, make_daemon, monkeypatch
    ):
        from repro.service import daemon as daemon_module
        from repro.service import worker as worker_module
        from repro.telemetry import metrics

        def no_wire(outcome):
            raise AssertionError("in-process completions must stay raw")

        monkeypatch.setattr(worker_module, "outcome_to_wire", no_wire)
        monkeypatch.setattr(daemon_module, "outcome_from_wire", no_wire)
        renewals = metrics.counter("service.lease_renewals")
        daemon = make_daemon(local_workers=1, chunk_size=2)
        ack = submit(daemon, sweep_spec())  # 4 unbatchable points, 2 chunks
        status = wait_until(
            lambda: (s := daemon.handle({"op": "status", "job_id": ack["job_id"]}))
            and s["state"] in ("done", "failed") and s
        )
        assert status["state"] == "done" and status["succeeded"] == 4
        [info] = daemon.handle({"op": "workers"})["workers"]
        assert info["worker_id"] == "local-0" and info["kind"] == "local"
        assert info["chunks_completed"] == 2 and info["points_completed"] == 4
        # One heartbeat between the two groups of each chunk.
        assert metrics.counter("service.lease_renewals") - renewals >= 2

    def test_concurrent_completions_land_each_point_once(self, make_daemon):
        # More worker threads than cores, each writing the cache outside
        # the daemon's lock: every point must be applied exactly once.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            daemon = make_daemon(local_workers=4, chunk_size=1)
            ack = submit(daemon, sweep_spec(steps=tuple(range(1, 17))))
            status = wait_until(
                lambda: (s := daemon.handle({"op": "status", "job_id": ack["job_id"]}))
                and s["state"] in ("done", "failed") and s, timeout=60.0,
            )
        finally:
            sys.setswitchinterval(interval)
        assert status["state"] == "done" and status["succeeded"] == 16
        assert daemon.handle({"op": "stats"})["points"]["executed"] == 16
        workers = daemon.handle({"op": "workers"})["workers"]
        assert sum(w["points_completed"] for w in workers) == 16
        assert sum(w["chunks_completed"] for w in workers) == 16

    def test_idle_wait_returns_at_once_when_work_is_queued(self, make_daemon):
        daemon = make_daemon(local_workers=0)
        start = time.monotonic()
        daemon._await_work()
        assert time.monotonic() - start >= 0.1  # empty queue: the bounded wait
        # A submit that lands between an idle claim and the wait is not
        # slept through.
        submit(daemon, sweep_spec())
        start = time.monotonic()
        daemon._await_work()
        assert time.monotonic() - start < 0.1

    def test_idle_wait_returns_at_once_when_stopping(self, make_daemon):
        daemon = make_daemon(local_workers=0)
        daemon.request_stop()
        start = time.monotonic()
        daemon._await_work()
        assert time.monotonic() - start < 0.1


class TestShutdownDrain:
    def test_a_silent_worker_holds_the_drain_at_most_its_cap(self, make_daemon):
        from repro.service.daemon import SHUTDOWN_DRAIN_SECONDS

        daemon = make_daemon(local_workers=0)
        daemon.handle({"op": "claim", "worker": "gone"})  # never claims again
        start = time.monotonic()
        daemon.shutdown()
        assert time.monotonic() - start < SHUTDOWN_DRAIN_SECONDS + 1.0
        assert not daemon.socket_path.exists()

    def test_stopping_daemon_keeps_answering_claims_until_shutdown(
        self, make_daemon
    ):
        from repro.service.protocol import request

        daemon = make_daemon(local_workers=0)
        daemon.request_stop()
        time.sleep(0.3)  # longer than one accept-loop timeout
        answer = request(daemon.socket_path, "claim", worker="late", timeout=5.0)
        assert answer["shutdown"]
        daemon.shutdown()
        assert not daemon.socket_path.exists()


class TestPriorityAndOps:
    def test_higher_priority_jobs_claim_first(self, make_daemon):
        daemon = make_daemon(local_workers=0)
        low = submit(daemon, sweep_spec(steps=(1, 2)), priority=0)
        high = submit(
            daemon, sweep_spec(steps=(3, 4), seed=11), priority=5
        )
        claim = daemon.handle({"op": "claim", "worker": "w"})
        assert claim["job_id"] == high["job_id"] != low["job_id"]

    def test_job_id_prefix_resolution(self, make_daemon):
        daemon = make_daemon(local_workers=0)
        ack = submit(daemon, sweep_spec())
        assert daemon.handle({"op": "status", "job_id": ack["job_id"][:12]})["ok"]
        missing = daemon.handle({"op": "status", "job_id": "feedbead"})
        assert not missing["ok"] and "no such job" in missing["error"]["message"]

    def test_unknown_op_and_protocol_mismatch(self, make_daemon):
        daemon = make_daemon(local_workers=0)
        assert "unknown op" in daemon.handle({"op": "frobnicate"})["error"]["message"]
        mismatch = daemon.handle({"op": "ping", "protocol": 99})
        assert not mismatch["ok"] and "version mismatch" in mismatch["error"]["message"]

    def test_stats_shape(self, make_daemon):
        daemon = make_daemon(local_workers=0)
        submit(daemon, sweep_spec())
        stats = daemon.handle({"op": "stats"})
        assert stats["queue"]["points_pending"] == 4
        assert stats["jobs"]["queued"] == 1
        assert set(stats["points"]) == {"executed", "from_cache", "hit_rate",
                                        "dedup_hits"}
        assert set(stats["cache"]) >= {"entries", "total_bytes", "hits", "misses"}

    def test_stats_health_and_sampler_share_one_snapshot(self, make_daemon):
        daemon = make_daemon(local_workers=0, chunk_size=2)
        submit(daemon, sweep_spec())  # 4 points in 2 chunks
        # kind="local": no remote worker for the shutdown drain to wait on.
        claim = daemon.handle({"op": "claim", "worker": "w", "kind": "local"})
        assert len(claim["payloads"]) == 2
        stats = daemon.handle({"op": "stats"})
        health = daemon.handle({"op": "health"})
        gauges = daemon._sampler_probe()["gauges"]
        queue = {"chunks_pending": 1, "chunks_leased": 1,
                 "points_pending": 2, "points_leased": 2}
        assert stats["queue"] == health["queue"] == queue
        assert (gauges["queue.chunks_pending"], gauges["queue.chunks_leased"],
                gauges["queue.points_pending"]) == (1, 1, 2)
        for view in (stats["workers"], health["workers"]):
            assert (view["total"], view["busy"], view["local"]) == (1, 1, 0)
        assert (gauges["workers.total"], gauges["workers.busy"]) == (1, 1)
        assert stats["jobs"]["running"] == gauges["jobs.running"] == 1
        assert set(health) == {"pid", "uptime", "queue", "workers", "reaper",
                               "cache", "resilience", "healthy", "ok"}

    def test_second_daemon_on_same_socket_is_refused(self, make_daemon):
        daemon = make_daemon(local_workers=0)
        from repro.service.daemon import Daemon
        from repro.service.protocol import ServiceError

        rival = Daemon(daemon.socket_path, local_workers=0)
        with pytest.raises(ServiceError, match="already listening"):
            rival.start()
