"""The warm pool: one set of workers per executor, reused until it is closed.

Every test that starts workers checks that they are gone when it ends, and
every join and wait has a timeout.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.runtime import ProcessExecutor, RunSpec, Session, execute_spec
from repro.utils.serialization import canonical_json


def problem(**kwargs):
    kwargs.setdefault("time", 0.3)
    return repro.SimulationProblem.from_labels(
        4, {"nsdI": 0.8, "IZZI": 0.3, "XIXI": 0.2}, **kwargs
    )


def statevector_payloads(count: int = 6, strategy: str = "direct") -> "list[dict]":
    """One plan group per point, so a chunk size of 1 reaches both workers."""
    return [
        RunSpec(problem=problem(steps=k), strategy=strategy).to_dict(canonical=True)
        for k in range(1, count + 1)
    ]


def sampling_payloads(repeats: int = 4) -> "list[dict]":
    return [
        RunSpec(
            problem=problem(steps=steps), backend="sampling",
            run_kwargs={"shots": 64, "rng": 100 * steps + index},
        ).to_dict(canonical=True)
        for steps in (1, 2)
        for index in range(repeats)
    ]


def assert_bit_identical(outcomes, reference) -> None:
    assert len(outcomes) == len(reference)
    for got, want in zip(outcomes, reference):
        assert want["ok"], want.get("error")
        assert got["ok"], got.get("error")
        assert canonical_json(got["result"]) == canonical_json(want["result"])
        assert set(got["arrays"]) == set(want["arrays"])
        for name, array in want["arrays"].items():
            assert np.array_equal(got["arrays"][name], array)


def children() -> "set[int]":
    return {process.pid for process in multiprocessing.active_children()}


def wait_until_gone(pids, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while children() & set(pids):
        assert time.monotonic() < deadline, f"workers {pids} still alive"
        time.sleep(0.02)


@pytest.fixture
def spawned():
    """The child processes started since the test began; none may remain."""
    before = children()

    def current() -> "set[int]":
        return children() - before

    yield current
    assert current() == set()


class TestReuse:
    def test_two_calls_run_on_the_same_workers(self, spawned):
        payloads = statevector_payloads()
        reference = [execute_spec(p) for p in payloads]
        with ProcessExecutor(2, chunk_size=1) as executor:
            first = executor.map_specs(payloads)
            workers = spawned()
            second = executor.map_specs(payloads)
            assert len(workers) == 2
            assert spawned() == workers
        assert_bit_identical(first, reference)
        assert_bit_identical(second, reference)

    def test_the_pool_has_n_workers_whatever_the_chunk_count(self, spawned):
        # Two chunks on a four-worker executor still start four workers:
        # the pool is sized once, for every call it will serve.
        with ProcessExecutor(4) as executor:
            executor.map_specs(sampling_payloads())
            assert len(spawned()) == 4

    def test_workers_freeze_the_heap_they_inherit(self, spawned):
        # Otherwise a worker's full collection walks every object of the
        # parent's heap, copying each page it writes to, mid-call.
        import gc

        with ProcessExecutor(2, chunk_size=1) as executor:
            executor.map_specs(statevector_payloads())
            frozen = executor._warm.pool.submit(gc.get_freeze_count)
            assert frozen.result(timeout=30) > 0

    def test_spawn_pool_is_reused_and_bit_identical(self, spawned):
        payloads = sampling_payloads()
        reference = [execute_spec(p) for p in payloads]
        seen = []
        with ProcessExecutor(2, chunk_size=1, mp_context="spawn") as executor:
            first = executor.map_specs(payloads)
            workers = spawned()
            second = executor.map_specs(
                payloads, progress=lambda done, total: seen.append(done)
            )
            assert workers and spawned() == workers
        assert_bit_identical(first, reference)
        assert_bit_identical(second, reference)
        assert seen[-1] == len(payloads) and seen == sorted(set(seen))


class TestRebuild:
    """What workers copied at pool start must still hold at each call."""

    def test_a_worker_that_died_idle_is_replaced_without_a_restart(self, spawned):
        from repro.telemetry import metrics

        payloads = statevector_payloads()
        reference = [execute_spec(p) for p in payloads]
        # No restart to spare: the replacement must happen before the pass.
        with ProcessExecutor(2, chunk_size=1, max_restarts=0) as executor:
            executor.map_specs(payloads)
            workers = spawned()
            os.kill(min(workers), signal.SIGKILL)
            wait_until_gone({min(workers)})
            retries = metrics.counter("resilience.retries")
            outcomes = executor.map_specs(payloads)
            assert metrics.counter("resilience.retries") == retries
            assert len(spawned()) == 2 and not spawned() & workers
        assert_bit_identical(outcomes, reference)

    def test_a_strategy_registered_after_the_first_call_reaches_the_workers(
        self, spawned
    ):
        from repro.compile.strategies import STRATEGIES, DirectStrategy

        with ProcessExecutor(2, chunk_size=1) as executor:
            executor.map_specs(statevector_payloads())
            STRATEGIES.register("direct_alias", DirectStrategy)
            try:
                payloads = statevector_payloads(strategy="direct_alias")
                reference = [execute_spec(p) for p in payloads]
                outcomes = executor.map_specs(payloads)
            finally:
                STRATEGIES.unregister("direct_alias")
        assert_bit_identical(outcomes, reference)

    def test_a_fault_plan_set_after_the_first_call_reaches_the_workers(
        self, spawned, monkeypatch
    ):
        from repro.resilience import FAULTS_ENV, configure_faults

        payloads = statevector_payloads()
        reference = [execute_spec(p) for p in payloads]
        with ProcessExecutor(2, chunk_size=1) as executor:
            executor.map_specs(payloads)
            monkeypatch.setenv(FAULTS_ENV, "worker.execute:raise")
            try:
                faulted = executor.map_specs(payloads)
            finally:
                monkeypatch.delenv(FAULTS_ENV)
                configure_faults(None)
            # Unset again: the next pool runs clean.
            clean = executor.map_specs(payloads)
        assert not any(outcome["ok"] for outcome in faulted)
        assert {outcome["error"]["type"] for outcome in faulted} == {"FaultInjected"}
        assert_bit_identical(clean, reference)

    def test_fault_triggers_count_per_call_under_an_unchanged_plan(
        self, spawned, monkeypatch
    ):
        # Trigger counters live in the workers, so a plan's calls each get
        # fresh workers: `n=1` fires in every call, not only in the first.
        from repro.resilience import FAULTS_ENV, configure_faults

        payloads = statevector_payloads()
        monkeypatch.setenv(FAULTS_ENV, "worker.execute:raise@n=1")
        try:
            with ProcessExecutor(2, chunk_size=1) as executor:
                first = executor.map_specs(payloads)
                first_workers = spawned()
                second = executor.map_specs(payloads)
                assert spawned() and not spawned() & first_workers
        finally:
            monkeypatch.delenv(FAULTS_ENV)
            configure_faults(None)
        for outcomes in (first, second):
            # One fire in each worker that took a chunk.
            failed = [outcome for outcome in outcomes if not outcome["ok"]]
            assert 1 <= len(failed) <= 2
            assert {outcome["error"]["type"] for outcome in failed} == {"FaultInjected"}


class TestLifetime:
    def test_close_is_idempotent_and_joins_the_workers(self, spawned):
        executor = ProcessExecutor(2, chunk_size=1)
        executor.map_specs(statevector_payloads())
        assert len(spawned()) == 2
        executor.close()
        assert spawned() == set()
        executor.close()
        # A closed executor starts a fresh pool when it is used again.
        assert executor.map_specs(statevector_payloads())[0]["ok"]
        executor.close()

    def test_with_block_joins_the_workers(self, spawned):
        with ProcessExecutor(2, chunk_size=1) as executor:
            executor.map_specs(statevector_payloads())
            assert len(spawned()) == 2
        assert spawned() == set()

    def test_dropping_the_executor_joins_the_workers(self, spawned):
        executor = ProcessExecutor(2, chunk_size=1)
        executor.map_specs(statevector_payloads())
        assert len(spawned()) == 2
        del executor
        gc.collect()
        assert spawned() == set()

    def test_a_session_closes_the_pool_it_built(self, spawned):
        with Session(cache=False, executor=2) as session:
            session.sweep(problem(), steps=(1, 2, 3))
            assert len(spawned()) == 2
        assert spawned() == set()

    def test_a_session_leaves_a_passed_in_executor_open(self, spawned):
        with ProcessExecutor(2, chunk_size=1) as executor:
            with Session(cache=False, executor=executor) as session:
                session.sweep(problem(), steps=(1, 2, 3))
                workers = spawned()
            assert len(workers) == 2 and spawned() == workers
        assert spawned() == set()

    def test_an_interpreter_that_never_closes_its_executor_exits_cleanly(
        self, spawned
    ):
        script = """
import multiprocessing

import repro
from repro.runtime import ProcessExecutor, RunSpec

payloads = [
    RunSpec(
        problem=repro.SimulationProblem.from_labels(
            2, {"XX": 0.5, "ZI": 0.3}, time=0.2, steps=k
        )
    ).to_dict(canonical=True)
    for k in (1, 2, 3, 4)
]
executor = ProcessExecutor(2, chunk_size=1)
assert all(outcome["ok"] for outcome in executor.map_specs(payloads))
print(" ".join(str(p.pid) for p in multiprocessing.active_children()), flush=True)
"""
        src = Path(repro.__file__).resolve().parent.parent
        start = time.monotonic()
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        elapsed = time.monotonic() - start
        assert completed.returncode == 0, completed.stderr
        assert elapsed < 10.0
        workers = [int(pid) for pid in completed.stdout.split()]
        assert len(workers) == 2
        for pid in workers:  # each worker is gone, not left to exit later
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


class TestFailures:
    def test_a_raising_progress_callback_drops_the_pool(self, spawned):
        payloads = statevector_payloads(8)
        reference = [execute_spec(p) for p in payloads]

        def boom(done, total):
            raise RuntimeError("progress display failed")

        seen = []
        with ProcessExecutor(2, chunk_size=1) as executor:
            with pytest.raises(RuntimeError, match="progress display failed"):
                executor.map_specs(payloads, progress=boom)
            # The pool and its channel went with the failed call.
            assert spawned() == set()
            outcomes = executor.map_specs(
                payloads, progress=lambda done, total: seen.append((done, total))
            )
        assert_bit_identical(outcomes, reference)
        # Exact counts: each report is new, and the last one is the total.
        dones = [done for done, _ in seen]
        assert dones == sorted(set(dones)) and seen[-1] == (8, 8)


class TestThreads:
    def test_threads_sharing_one_executor_get_serial_outcomes(self, spawned):
        n_threads = 2 * (os.cpu_count() or 1) + 2
        jobs = [
            statevector_payloads(3 + index % 3) if index % 2 else sampling_payloads(2)
            for index in range(n_threads)
        ]
        references = [[execute_spec(p) for p in job] for job in jobs]
        results: "dict[int, list]" = {}
        errors: "list[BaseException]" = []
        most_workers = [0]

        def watch(done, total):
            most_workers[0] = max(most_workers[0], len(spawned()))

        with ProcessExecutor(2, chunk_size=1) as executor:

            def work(index: int) -> None:
                try:
                    results[index] = executor.map_specs(jobs[index], progress=watch)
                except BaseException as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            previous = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [
                    threading.Thread(target=work, args=(index,))
                    for index in range(n_threads)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(previous)
            assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert 1 <= most_workers[0] <= 2
        for index, reference in enumerate(references):
            assert_bit_identical(results[index], reference)
