"""The hung-point watchdog: kill the pool, re-queue, or record TimeoutError."""

from __future__ import annotations

import os
import signal

import pytest

from repro.exceptions import SpecError
from repro.runtime import ProcessExecutor
from repro.telemetry import metrics

from _chaos_helpers import assert_outcomes_identical, clean_serial, sweep_payloads


def test_hung_point_requeues_onto_a_fresh_pool(tmp_path, monkeypatch):
    payloads = sweep_payloads()
    expected = clean_serial(payloads)
    # One worker hangs (30 s sleep) exactly once across the whole pool; the
    # watchdog must kill that pool and finish everything on a fresh one.
    monkeypatch.setenv(
        "REPRO_FAULTS", f"state={tmp_path / 'state'};worker.execute:delay=30@once"
    )
    executor = ProcessExecutor(2, point_timeout=0.6, max_restarts=2)
    outcomes = executor.map_specs(payloads)
    assert_outcomes_identical(outcomes, expected)
    assert metrics.counter("resilience.retries") >= 1
    assert metrics.counter("resilience.timeouts") == 0


def test_exhausted_restarts_record_timeout_outcomes(monkeypatch):
    payloads = sweep_payloads(strategies=("direct",), steps=(1, 2))
    monkeypatch.setenv("REPRO_FAULTS", "worker.execute:delay=30")
    executor = ProcessExecutor(2, point_timeout=0.3, max_restarts=0)
    outcomes = executor.map_specs(payloads)
    assert len(outcomes) == len(payloads)
    for outcome in outcomes:
        assert not outcome["ok"]
        assert outcome["error"]["type"] == "TimeoutError"
        assert "no progress" in outcome["error"]["message"]
    assert metrics.counter("resilience.timeouts") == len(payloads)


def _die(groups, trace=None):
    """Worker body for the SIGKILL test: die before returning anything."""
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.slow
def test_sigkilled_worker_is_reaped(monkeypatch):
    from repro.runtime import executor as executor_module

    # The forked worker inherits this patch and dies on its first chunk.
    # Every pass loses its pool, so after the one restart map_specs records
    # each point as a captured TimeoutError instead of raising.
    monkeypatch.setattr(executor_module, "_run_spec_chunk", _die)
    payloads = sweep_payloads(strategies=("direct",), steps=(1, 2, 4, 8))
    outcomes = ProcessExecutor(2, chunk_size=2).map_specs(payloads)
    assert len(outcomes) == 4
    for outcome in outcomes:
        assert outcome["ok"] is False
        assert outcome["error"]["type"] == "TimeoutError"
    assert metrics.counter("resilience.timeouts") == 4


def test_watchdog_tracks_progress_not_total_time(monkeypatch):
    # A sweep whose points each take longer than point_timeout would take as
    # a whole must NOT trip the watchdog as long as points keep completing —
    # only silence counts.  Short grid, generous per-point window.
    payloads = sweep_payloads(strategies=("direct",), steps=(1, 2, 4, 8))
    expected = clean_serial(payloads)
    executor = ProcessExecutor(2, point_timeout=10.0, max_restarts=0)
    outcomes = executor.map_specs(payloads)
    assert_outcomes_identical(outcomes, expected)
    assert metrics.counter("resilience.timeouts") == 0
    assert metrics.counter("resilience.retries") == 0


def test_parameter_validation():
    with pytest.raises(SpecError):
        ProcessExecutor(2, point_timeout=0.0)
    with pytest.raises(SpecError):
        ProcessExecutor(2, max_restarts=-1)
