"""ServiceClient: the Executor seam, fleet end-to-end, dedup and cancel."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.exceptions import ExecutionError
from repro.runtime import RunSpec, SerialExecutor, Session, SweepSpec
from repro.service.client import ServiceClient
from repro.service.worker import DEFAULT_RECONNECT_WINDOW, run_worker

from _service_helpers import make_problem, wait_until


def sampling_axes():
    # 2 strategies × 4 step counts × 2 seeded repeats = 16 distinct points.
    return dict(
        strategies=("direct", "pauli"),
        steps=(1, 2, 4, 8),
        backend="sampling",
        run_kwargs={"shots": 128},
        seed=7,
        repeats=2,
    )


@pytest.fixture
def fleet(make_daemon):
    """A workerless daemon drained by two external workers (thread-hosted)."""
    daemon = make_daemon(local_workers=0, chunk_size=2, lease_seconds=10.0)
    client = ServiceClient(daemon.socket_path)
    threads = [
        threading.Thread(
            target=run_worker,
            args=(daemon.socket_path,),
            kwargs={"worker_id": f"external-{i}", "poll_interval": 0.02},
            daemon=True,
        )
        for i in range(2)
    ]
    for thread in threads:
        thread.start()
    yield daemon, client, threads
    daemon.shutdown()
    for thread in threads:
        thread.join(timeout=10.0)
    assert not any(thread.is_alive() for thread in threads), "worker leaked"


class TestFleetEndToEnd:
    def test_16_point_sweep_is_bit_identical_to_serial(self, fleet):
        daemon, client, _ = fleet
        problem = make_problem()
        remote = Session(cache=False, executor=client)
        serial = Session(cache=False, executor=SerialExecutor())
        got = remote.sweep(problem, **sampling_axes())
        want = serial.sweep(problem, **sampling_axes())
        assert len(got) == 16 and got.ok and want.ok
        for ours, theirs in zip(got, want):
            assert ours.key == theirs.key
            assert ours.value.counts == theirs.value.counts  # seeded: bitwise
        # Both external workers actually participated.
        workers = {w["worker_id"]: w for w in client.workers()}
        assert workers["external-0"]["points_completed"] > 0
        assert workers["external-1"]["points_completed"] > 0

    def test_statevector_results_cross_the_wire_losslessly(self, fleet):
        _, client, _ = fleet
        problem = make_problem()
        remote = Session(cache=False, executor=client)
        serial = Session(cache=False, executor=SerialExecutor())
        got = remote.sweep(problem, strategies=("direct",), steps=(1, 2))
        want = serial.sweep(problem, strategies=("direct",), steps=(1, 2))
        for ours, theirs in zip(got, want):
            np.testing.assert_array_equal(ours.value.data, theirs.value.data)

    def test_resubmitted_spec_is_served_from_cache_not_the_queue(self, fleet):
        daemon, client, _ = fleet
        spec = SweepSpec(problem=make_problem(), **sampling_axes())
        first = client.submit(spec)
        client.wait(first["job_id"], timeout=120.0)
        executed_before = client.stats()["points"]["executed"]
        # Same physics through the *other* submission path (a batch of
        # canonical payloads): every point is already in the shared cache.
        payloads = [run.to_dict(canonical=True) for _, run in spec.expand()]
        ack = client.submit_payloads(payloads)
        assert ack["state"] == "done" and ack["cached"] == 16
        assert client.stats()["points"]["executed"] == executed_before

    def test_progress_reaches_the_session_callback(self, fleet):
        _, client, _ = fleet
        seen = []
        session = Session(
            cache=False, executor=client, progress=lambda d, t: seen.append((d, t))
        )
        session.sweep(make_problem(), strategies=("direct",), steps=(1, 2, 3))
        assert seen and seen[-1] == (3, 3)


class TestClientApi:
    def test_map_of_nothing_is_nothing(self, make_daemon):
        daemon = make_daemon(local_workers=0)
        client = ServiceClient(daemon.socket_path)
        assert client.map_specs([]) == []

    def test_cancel_through_the_client(self, make_daemon):
        daemon = make_daemon(local_workers=0)
        client = ServiceClient(daemon.socket_path)
        ack = client.submit(SweepSpec(problem=make_problem(), steps=(1, 2, 3)))
        cancelled = client.cancel(ack["job_id"])
        assert cancelled["state"] == "cancelled"
        assert client.wait(ack["job_id"], timeout=5.0)["state"] == "cancelled"
        outcomes = client.result(ack["job_id"])
        assert all(o["error"]["type"] == "CancelledError" for o in outcomes)

    def test_records_decodes_values(self, make_daemon):
        daemon = make_daemon(local_workers=1)
        client = ServiceClient(daemon.socket_path)
        ack = client.submit(RunSpec(problem=make_problem(), backend="statevector"))
        client.wait(ack["job_id"], timeout=60.0)
        (record,) = client.records(ack["job_id"])
        assert record["ok"] and hasattr(record["value"], "data")

    def test_ping_and_jobs_listing(self, make_daemon):
        daemon = make_daemon(local_workers=0)
        client = ServiceClient(daemon.socket_path)
        assert client.ping()["pong"]
        assert client.jobs() == []
        client.submit(RunSpec(problem=make_problem(), backend="resource"))
        assert len(client.jobs()) == 1

    def test_run_blocks_in_the_daemon_instead_of_polling_status(
        self, make_daemon, monkeypatch
    ):
        daemon = make_daemon(local_workers=1)
        client = ServiceClient(daemon.socket_path)
        ops = []
        send = client._request

        def counting(op, **fields):
            ops.append(op)
            return send(op, **fields)

        monkeypatch.setattr(client, "_request", counting)
        record = Session(cache=False, executor=client).run(
            make_problem(), backend="statevector"
        )
        assert record.ok
        assert "status" not in ops
        assert 1 <= ops.count("wait") <= 2

    def test_progress_wait_sends_the_observed_counts(self, make_daemon, monkeypatch):
        daemon = make_daemon(local_workers=0)
        client = ServiceClient(daemon.socket_path)
        ack = client.submit(SweepSpec(problem=make_problem(), steps=(1, 2)))
        sent = []
        send = client._request

        def recording(op, **fields):
            sent.append(fields)
            return send(op, **fields)

        monkeypatch.setattr(client, "_request", recording)
        with pytest.raises(ExecutionError, match="timed out"):
            client.wait(ack["job_id"], timeout=1.2, progress=lambda d, t: None)
        # One slice blocks at most 1 s, so the 1.2 s wait took two requests.
        assert len(sent) >= 2 and "seen" not in sent[0]
        assert all(fields["seen"] == ["queued", 0] for fields in sent[1:])
        assert all(fields["slice"] <= 1.0 for fields in sent)
        sent.clear()
        with pytest.raises(ExecutionError, match="timed out"):
            client.wait(ack["job_id"], timeout=0.3)
        assert sent and all("seen" not in fields for fields in sent)

    def test_shutdown_lets_workers_drain_and_exit(self, make_daemon):
        daemon = make_daemon(local_workers=0)
        client = ServiceClient(daemon.socket_path)
        worker = threading.Thread(
            target=run_worker,
            args=(daemon.socket_path,),
            kwargs={"worker_id": "drainer", "poll_interval": 0.02},
            daemon=True,
        )
        worker.start()
        wait_until(lambda: client.workers())
        client.shutdown_daemon()
        wait_until(lambda: not daemon.running)
        start = time.monotonic()
        daemon.shutdown()
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        assert not daemon.socket_path.exists()
        # The drain told the idle worker "shutdown": it did not ride out its
        # reconnect window against a missing socket.
        assert time.monotonic() - start < DEFAULT_RECONNECT_WINDOW / 2
