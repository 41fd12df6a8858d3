"""The worker loop over a scripted transport, and the socket transport around it."""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import RunSpec
from repro.runtime.executor import execute_spec
from repro.service import worker as worker_module
from repro.service.protocol import (
    RemoteError,
    ServiceConnectionError,
    outcome_from_wire,
)
from repro.service.worker import run_worker, worker_loop

from _service_helpers import make_problem


def statevector_payloads(*steps):
    """Unbatchable points: one batch group (so one heartbeat gap) per point."""
    return [
        RunSpec(problem=make_problem(steps=s)).to_dict(canonical=True)
        for s in steps
    ]


def rejected(message):
    """The error a transport raises for a daemon's error frame."""
    return RemoteError({"type": "ServiceError", "message": message})


def chunk(chunk_id, payloads):
    return {"job_id": "job", "chunk_id": chunk_id, "payloads": payloads,
            "lease_seconds": 10.0, "trace": None}


class ScriptedDaemon:
    """A fake transport: answers each op from its script and records the calls.

    Script entries that are exceptions are raised.  An exhausted ``claim``
    script answers ``shutdown``; the other ops answer as a healthy daemon
    would.
    """

    def __init__(self, claims=(), heartbeats=(), completes=()):
        self.script = {
            "claim": list(claims),
            "heartbeat": list(heartbeats),
            "complete": list(completes),
        }
        self.calls: list[tuple[str, dict]] = []
        self.idles = 0

    def call(self, op, **fields):
        self.calls.append((op, fields))
        if self.script[op]:
            answer = self.script[op].pop(0)
        else:
            answer = {
                "claim": {"shutdown": True},
                "heartbeat": {"cancelled": False},
                "complete": {"applied": len(fields.get("outcomes", ())),
                             "discarded": False},
            }[op]
        if isinstance(answer, Exception):
            raise answer
        return answer

    def idle(self):
        self.idles += 1

    def run(self, **kwargs):
        return worker_loop(self.call, self.idle, worker_id="scripted", **kwargs)

    @property
    def ops(self):
        return [op for op, _ in self.calls]


class TestWorkerLoop:
    def test_shutdown_claim_exits_cleanly(self):
        daemon = ScriptedDaemon(claims=[{"shutdown": True}])
        assert daemon.run() == 0
        assert daemon.ops == ["claim"] and daemon.idles == 0

    def test_heartbeats_between_groups_not_before_the_first(self):
        daemon = ScriptedDaemon(claims=[chunk("c1", statevector_payloads(1, 2, 3))])
        assert daemon.run() == 0
        assert daemon.ops == ["claim", "heartbeat", "heartbeat", "complete", "claim"]
        for op, fields in daemon.calls:
            if op in ("heartbeat", "complete"):
                assert fields["chunk_id"] == "c1"

    def test_single_group_chunk_completes_without_a_heartbeat(self):
        daemon = ScriptedDaemon(claims=[chunk("c1", statevector_payloads(1))])
        assert daemon.run() == 0
        assert daemon.ops == ["claim", "complete", "claim"]

    def test_completion_carries_raw_outcomes_in_payload_order(self):
        payloads = statevector_payloads(1, 2)
        daemon = ScriptedDaemon(claims=[chunk("c1", payloads)])
        daemon.run()
        [outcomes] = [f["outcomes"] for op, f in daemon.calls if op == "complete"]
        assert len(outcomes) == 2
        for outcome, payload in zip(outcomes, payloads):
            reference = execute_spec(payload)
            assert outcome["ok"] and reference["ok"]
            # Raw ndarrays: wire encoding is the socket transport's job.
            assert isinstance(outcome["arrays"]["data"], np.ndarray)
            assert np.array_equal(
                outcome["arrays"]["data"], reference["arrays"]["data"]
            )

    @pytest.mark.parametrize(
        "answer", [{"cancelled": True}, rejected("unknown lease")],
        ids=["cancelled", "lease-gone"],
    )
    def test_lost_lease_abandons_the_chunk_and_claims_again(self, answer, monkeypatch):
        executed = []

        def recording_batch(payloads):
            executed.extend(payloads)
            return [execute_spec(p) for p in payloads]

        monkeypatch.setattr(worker_module, "execute_spec_batch", recording_batch)
        payloads = statevector_payloads(1, 2, 3)
        daemon = ScriptedDaemon(claims=[chunk("c1", payloads)], heartbeats=[answer])
        assert daemon.run() == 0
        assert daemon.ops == ["claim", "heartbeat", "claim"]  # no completion
        assert executed == payloads[:1]  # the tail never ran

    @pytest.mark.parametrize("op", ["claim", "heartbeat", "complete"])
    def test_unreachable_daemon_exits_zero(self, op):
        gone = ServiceConnectionError("daemon gone")
        work = chunk("c1", statevector_payloads(1, 2))
        daemon = ScriptedDaemon(
            claims=[gone] if op == "claim" else [work],
            heartbeats=[gone] if op == "heartbeat" else [],
            completes=[gone] if op == "complete" else [],
        )
        assert daemon.run() == 0
        assert daemon.ops[-1] == op

    def test_claim_rejections_are_retried_then_give_up_with_code_1(self):
        refusal = rejected("claim refused")
        daemon = ScriptedDaemon(claims=[refusal, {"shutdown": True}])
        assert daemon.run() == 0 and daemon.idles == 1
        daemon = ScriptedDaemon(claims=[refusal] * 3)
        assert daemon.run() == 1
        assert daemon.ops == ["claim"] * 3 and daemon.idles == 2

    def test_idle_claims_wait_then_max_idle_exits(self):
        daemon = ScriptedDaemon(claims=[{"idle": True}] * 2)
        assert daemon.run() == 0
        assert daemon.idles == 2 and daemon.ops == ["claim"] * 3
        daemon = ScriptedDaemon(claims=[{"idle": True}] * 5)
        assert daemon.run(max_idle=0) == 0
        assert daemon.idles == 0 and daemon.ops == ["claim"]

    def test_max_chunks_counts_only_accepted_completions(self):
        daemon = ScriptedDaemon(
            claims=[chunk(f"c{i}", statevector_payloads(1)) for i in range(4)],
            completes=[rejected("stale lease")],
        )
        assert daemon.run(max_chunks=2) == 0
        assert daemon.ops == ["claim", "complete"] * 3


class TestSocketTransport:
    def test_run_worker_wire_encodes_completions(self, monkeypatch):
        payloads = statevector_payloads(1)
        claims = [chunk("c1", payloads), {"shutdown": True}]
        requests = []

        def fake_request(socket_path, op, **fields):
            requests.append((op, fields))
            if op == "claim":
                return claims.pop(0)
            return {"applied": 1, "discarded": False}

        monkeypatch.setattr(worker_module, "request", fake_request)
        assert run_worker("unused.sock", worker_id="w1", reconnect_window=0) == 0
        assert [op for op, _ in requests] == ["claim", "complete", "claim"]
        assert all(fields["worker"] == "w1" for _, fields in requests)
        [wire] = requests[1][1]["outcomes"]
        assert isinstance(wire["arrays"]["data"], str)  # base64 .npy on the wire
        reference = execute_spec(payloads[0])
        assert np.array_equal(
            outcome_from_wire(wire)["arrays"]["data"], reference["arrays"]["data"]
        )
