"""Certification: faulted 16-point sweeps are bit-identical to clean serial runs.

Two stacks, same claim.  The pool certification injects a SIGKILLed worker
under the resilient :class:`ProcessExecutor`; the service certification runs
a daemon plus two *subprocess* workers with a SIGKILLed worker, a failed cache
write and injected client disconnects.  In both, the final results must
match a fault-free serial run bit for bit, and the resilience counters must
show the faults actually fired.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys

import pytest

from repro.service.client import ServiceClient
from repro.telemetry import metrics

from _chaos_helpers import (
    REPO_ROOT,
    assert_outcomes_identical,
    clean_serial,
    sweep_payloads,
)


def test_pool_chaos_certification(tmp_path, monkeypatch):
    from repro.runtime import ProcessExecutor

    payloads = sweep_payloads(repeats=2)  # 16 points
    assert len(payloads) == 16
    expected = clean_serial(payloads)
    state = tmp_path / "chaos-state"
    monkeypatch.setenv(
        "REPRO_FAULTS", f"state={state};seed=3;worker.execute:kill@once"
    )
    executor = ProcessExecutor(2, point_timeout=10.0, max_restarts=2)
    outcomes = executor.map_specs(payloads)
    assert_outcomes_identical(outcomes, expected)
    # The SIGKILL really happened (fleet-wide marker claimed) and forced a
    # pool restart; nothing timed out.
    assert (state / "worker.execute.0.fired").exists()
    assert metrics.counter("resilience.retries") >= 1
    assert metrics.counter("resilience.timeouts") == 0


def test_service_chaos_certification(make_daemon, tmp_path, monkeypatch):
    payloads = sweep_payloads(repeats=2)  # 16 points
    expected = clean_serial(payloads)
    metrics.reset()
    state = tmp_path / "svc-state"
    plan = (
        f"state={state};"
        "worker.execute:kill@once;"       # fires in exactly one fleet worker
        "cache.put:raise=EIO@n=1;"        # fails the daemon's first cache write
        "protocol.send:raise=ConnectionResetError@n=2"  # per-process disconnect
    )
    monkeypatch.setenv("REPRO_FAULTS", plan)
    daemon = make_daemon(local_workers=0, chunk_size=2, lease_seconds=1.0)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    workers = [
        subprocess.Popen(
            [
                sys.executable, "-m", "repro.service", "worker",
                "--socket", str(daemon.socket_path),
                "--id", f"chaos-{i}", "--poll", "0.05",
                "--max-idle", "3.0", "--reconnect", "2.0",
            ],
            env=env,
            cwd=REPO_ROOT,
        )
        for i in range(2)
    ]
    try:
        client = ServiceClient(daemon.socket_path)
        ack = client.submit_payloads(payloads)
        status = client.wait(ack["job_id"], timeout=120, stall_timeout=30)
        assert status["state"] == "done"
        outcomes = client.result(ack["job_id"])
        assert_outcomes_identical(outcomes, expected)
        codes = [worker.wait(timeout=60) for worker in workers]
    finally:
        for worker in workers:
            if worker.poll() is None:
                worker.kill()
                worker.wait(timeout=30)
    # One worker died by SIGKILL (its lease was reaped and the chunk re-run);
    # the survivor drained the queue and exited cleanly on idle.
    assert codes.count(-signal.SIGKILL) == 1, codes
    assert codes.count(0) == 1, codes
    assert (state / "worker.execute.0.fired").exists()
    # Test-process evidence: the failed cache write (served from the
    # daemon's uncached results) and the injected client disconnect both
    # fired here, and the client retried through the latter.
    assert metrics.counter("resilience.faults.cache.put") == 1
    assert metrics.counter("service.uncached_results") == 1
    assert metrics.counter("resilience.faults.protocol.send") >= 1
    assert metrics.counter("resilience.retries") >= 1
    # The daemon's own health endpoint saw the same counters.
    health = client.health()
    assert health["healthy"]
    assert health["resilience"]["faults_injected"] >= 2
