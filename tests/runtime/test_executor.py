"""Executors: ordering, chunking, progress, failure capture, worker parity."""

from __future__ import annotations

import pytest

import repro
from repro.exceptions import SpecError
from repro.runtime import (
    ProcessExecutor,
    RunSpec,
    SerialExecutor,
    execute_spec,
    resolve_executor,
)


def _square(x):
    return x * x


def problem(**kwargs):
    kwargs.setdefault("time", 0.3)
    return repro.SimulationProblem.from_labels(
        4, {"nsdI": 0.8, "IZZI": 0.3, "XIXI": 0.2}, **kwargs
    )


class TestSerialExecutor:
    def test_map_preserves_order_and_reports_progress(self):
        seen = []
        result = SerialExecutor().map(
            _square, range(5), progress=lambda done, total: seen.append((done, total))
        )
        assert result == [0, 1, 4, 9, 16]
        assert seen == [(i, 5) for i in range(1, 6)]

    def test_map_specs_runs_each_payload_alone(self, monkeypatch):
        import numpy as np

        from repro.runtime import executor as executor_module

        def no_fusion(payloads):
            raise AssertionError("the serial oracle never fuses a group")

        monkeypatch.setattr(executor_module, "execute_spec_batch", no_fusion)
        payloads = [
            RunSpec(
                problem=problem(), backend="kernel",
                run_kwargs={"initial_state": index},
            ).to_dict(canonical=True)
            for index in range(3)
        ]
        seen = []
        outcomes = SerialExecutor().map_specs(
            payloads, progress=lambda done, total: seen.append((done, total))
        )
        assert seen == [(1, 3), (2, 3), (3, 3)]
        for outcome, payload in zip(outcomes, payloads):
            reference = execute_spec(payload)
            assert outcome["ok"] and "batched" not in outcome
            for key in reference["arrays"]:
                assert np.array_equal(outcome["arrays"][key], reference["arrays"][key])


class TestProcessExecutor:
    def test_single_item_runs_in_process(self, monkeypatch):
        import numpy as np

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-payload call must not start a pool")

        monkeypatch.setattr(ProcessExecutor, "_pool_pass", no_pool)
        payload = RunSpec(problem=problem()).to_dict(canonical=True)
        [outcome] = ProcessExecutor(4).map_specs([payload])
        reference = execute_spec(payload)
        assert outcome["ok"] and reference["ok"]
        assert np.array_equal(outcome["arrays"]["data"], reference["arrays"]["data"])

    def test_default_chunking(self):
        executor = ProcessExecutor(2)
        assert executor._resolve_chunk(100) == 13  # ceil(100 / 8)
        assert executor._resolve_chunk(1) == 1

    def test_invalid_parameters(self):
        with pytest.raises(SpecError):
            ProcessExecutor(0)
        with pytest.raises(SpecError):
            ProcessExecutor(2, chunk_size=0)


class TestResolveExecutor:
    def test_resolution_table(self):
        assert isinstance(resolve_executor(None), SerialExecutor)
        assert isinstance(resolve_executor(1), SerialExecutor)
        pool = resolve_executor(3)
        assert isinstance(pool, ProcessExecutor) and pool.n_workers == 3
        explicit = ProcessExecutor(2)
        assert resolve_executor(explicit) is explicit
        with pytest.raises(SpecError):
            resolve_executor("four")
        with pytest.raises(SpecError):
            resolve_executor(True)

    def test_the_protocol_is_map_specs_alone(self):
        class PayloadsOnly:
            def map_specs(self, payloads, *, progress=None):
                return []

        class CallablesOnly:
            def map(self, fn, items, *, progress=None):
                return []

        payloads_only = PayloadsOnly()
        assert resolve_executor(payloads_only) is payloads_only
        with pytest.raises(SpecError):
            resolve_executor(CallablesOnly())


class TestExecuteSpec:
    def test_success_outcome(self):
        payload = RunSpec(problem=problem()).to_dict(canonical=True)
        outcome = execute_spec(payload)
        assert outcome["ok"] and outcome["result"]["kind"] == "statevector"
        assert outcome["wall_time"] > 0

    def test_failure_outcome_records_traceback(self):
        payload = RunSpec(
            problem=problem(), backend="exact", run_kwargs={"bogus": 1}
        ).to_dict(canonical=True)
        outcome = execute_spec(payload)
        assert not outcome["ok"]
        assert outcome["error"]["type"] == "CompileError"
        assert "bogus" in outcome["error"]["message"]
        assert "Traceback" in outcome["error"]["traceback"]

    def test_garbage_payload_is_captured_not_raised(self):
        outcome = execute_spec({"spec": "run"})  # no problem at all
        assert not outcome["ok"] and outcome["error"]["type"] == "KeyError"


@pytest.mark.slow
class TestCrossProcessParity:
    def test_pool_outcomes_match_in_process(self):
        specs = [
            RunSpec(
                problem=problem(steps=k), backend="sampling",
                run_kwargs={"shots": 128, "rng": 7},
            ).to_dict(canonical=True)
            for k in (1, 2, 3, 4)
        ]
        local = [execute_spec(s) for s in specs]
        pooled = ProcessExecutor(2, chunk_size=1).map_specs(specs)
        for a, b in zip(local, pooled):
            assert a["ok"] and b["ok"]
            assert a["result"]["counts"] == b["result"]["counts"]


# ---------------------------------------------------------------------------
# Plan batching, the LRU program memo, worker hygiene and map_specs
# ---------------------------------------------------------------------------


def _read_blas_env(_):
    import os

    return os.environ.get("OMP_NUM_THREADS")


class TestProgramMemoLRU:
    def test_hits_refresh_recency(self, monkeypatch):
        """A touched entry must survive an eviction that FIFO would lose."""
        import repro.compile.pipeline as pipeline
        from repro.runtime import executor as executor_module

        calls = []
        real = pipeline.compile_problem

        def counting(problem, strategy, **kwargs):
            calls.append((problem.content_key(), strategy))
            return real(problem, strategy, **kwargs)

        monkeypatch.setattr(pipeline, "compile_problem", counting)
        monkeypatch.setattr(executor_module, "_PROGRAM_MEMO_CAP", 3)
        monkeypatch.setattr(executor_module, "_PROGRAM_MEMO", {})

        problems = {
            name: repro.SimulationProblem.from_labels(
                4, {label: 0.5}, time=0.3, name=name
            )
            for name, label in zip("abcd", ("ZZII", "IZZI", "IIZZ", "XIII"))
        }
        memo = executor_module._memoized_program
        memo(problems["a"], "direct")
        memo(problems["b"], "direct")
        memo(problems["c"], "direct")
        assert len(calls) == 3

        memo(problems["a"], "direct")  # hit: refreshes a's recency
        assert len(calls) == 3

        memo(problems["d"], "direct")  # evicts b (LRU), not a (FIFO would)
        assert len(calls) == 4

        memo(problems["a"], "direct")  # still memoized
        assert len(calls) == 4
        memo(problems["b"], "direct")  # evicted: compiles again
        assert len(calls) == 5

    def test_hit_returns_identical_program(self):
        from repro.runtime.executor import _memoized_program

        first = _memoized_program(problem(), "direct")
        assert _memoized_program(problem(), "direct") is first


class TestBatchGrouping:
    def kernel_payload(self, initial_state=0, steps=1):
        return RunSpec(
            problem=problem(steps=steps),
            backend="kernel",
            run_kwargs={"initial_state": initial_state},
        ).to_dict(canonical=True)

    def test_statevector_has_no_batch_axis(self):
        from repro.runtime import batch_key

        payload = RunSpec(problem=problem()).to_dict(canonical=True)
        assert batch_key(payload) is None

    def test_batch_key_ignores_only_the_batch_axis(self):
        from repro.runtime import batch_key

        a = batch_key(self.kernel_payload(initial_state=0))
        b = batch_key(self.kernel_payload(initial_state=5))
        c = batch_key(self.kernel_payload(initial_state=0, steps=2))
        assert a == b  # differ only along the batch axis
        assert a != c  # different compile → different plan → different group

    def test_group_payloads_consecutive_and_order_preserving(self):
        from repro.runtime import group_payloads

        payloads = [
            self.kernel_payload(initial_state=0),
            self.kernel_payload(initial_state=1),
            RunSpec(problem=problem()).to_dict(canonical=True),  # unbatchable
            self.kernel_payload(initial_state=2),
            self.kernel_payload(initial_state=3),
        ]
        groups = group_payloads(payloads)
        assert groups == [[0, 1], [2], [3, 4]]
        assert [i for group in groups for i in group] == list(range(5))


class TestExecuteSpecBatch:
    def test_kernel_initial_state_batch_is_bit_identical(self):
        import numpy as np

        from repro.runtime import execute_spec_batch

        payloads = [
            RunSpec(
                problem=problem(), backend="kernel",
                run_kwargs={"initial_state": index},
            ).to_dict(canonical=True)
            for index in range(5)
        ]
        batched = execute_spec_batch(payloads)
        single = [execute_spec(p) for p in payloads]
        for fused, reference in zip(batched, single):
            assert fused["ok"] and reference["ok"]
            assert fused["batched"] == 5
            for key in reference["arrays"]:
                assert np.array_equal(fused["arrays"][key], reference["arrays"][key])

    def test_sampling_rng_batch_matches_per_point_draws(self):
        from repro.runtime import execute_spec_batch

        payloads = [
            RunSpec(
                problem=problem(), backend="sampling",
                run_kwargs={"shots": 128, "rng": 100 + index},
            ).to_dict(canonical=True)
            for index in range(4)
        ]
        batched = execute_spec_batch(payloads)
        single = [execute_spec(p) for p in payloads]
        for fused, reference in zip(batched, single):
            assert fused["ok"] and reference["ok"]
            assert fused["result"]["counts"] == reference["result"]["counts"]

    def test_bad_point_falls_back_to_per_point_capture(self):
        from repro.runtime import execute_spec_batch

        payloads = [
            RunSpec(
                problem=problem(), backend="kernel",
                run_kwargs={"initial_state": index},
            ).to_dict(canonical=True)
            for index in (0, 1 << 10, 1)  # the middle index is out of range
        ]
        outcomes = execute_spec_batch(payloads)
        assert outcomes[0]["ok"] and outcomes[2]["ok"]
        assert not outcomes[1]["ok"]
        assert "batched" not in outcomes[0]  # fallback ran per point

    def test_unbatchable_backend_matches_serial(self):
        import numpy as np

        from repro.runtime import execute_spec_batch

        payloads = [
            RunSpec(problem=problem(steps=k)).to_dict(canonical=True)
            for k in (1, 2)
        ]
        outcomes = execute_spec_batch(payloads)
        single = [execute_spec(p) for p in payloads]
        for fused, reference in zip(outcomes, single):
            assert fused["ok"]
            assert np.array_equal(fused["arrays"]["data"], reference["arrays"]["data"])


class TestMapSpecs:
    def payloads(self):
        specs = [
            RunSpec(
                problem=problem(), backend="sampling",
                run_kwargs={"shots": 64, "rng": index},
            )
            for index in range(4)
        ] + [
            RunSpec(problem=problem(steps=k)) for k in (1, 2)
        ]
        return [spec.to_dict(canonical=True) for spec in specs]

    def test_single_worker_matches_per_point_map(self):
        import numpy as np

        payloads = self.payloads()
        reference = [execute_spec(p) for p in payloads]
        outcomes = ProcessExecutor(1).map_specs(payloads)
        for fused, ref in zip(outcomes, reference):
            assert fused["ok"] and ref["ok"]
            assert fused["result"]["kind"] == ref["result"]["kind"]
            for key in ref["arrays"]:
                assert np.array_equal(fused["arrays"][key], ref["arrays"][key])

    def test_pool_matches_per_point_map(self):
        import numpy as np

        payloads = self.payloads()
        reference = [execute_spec(p) for p in payloads]
        outcomes = ProcessExecutor(2, chunk_size=2).map_specs(payloads)
        for fused, ref in zip(outcomes, reference):
            assert fused["ok"] and ref["ok"]
            if ref["result"]["kind"] == "sampling":
                assert fused["result"]["counts"] == ref["result"]["counts"]
            for key in ref["arrays"]:
                assert np.array_equal(fused["arrays"][key], ref["arrays"][key])

    def test_progress_reaches_total(self):
        seen = []
        ProcessExecutor(2, chunk_size=2).map_specs(
            self.payloads(), progress=lambda d, t: seen.append((d, t))
        )
        assert seen[-1][0] == seen[-1][1] == 6

    def test_empty(self):
        assert ProcessExecutor(2).map_specs([]) == []

    def test_chunks_never_split_groups(self):
        executor = ProcessExecutor(4, chunk_size=2)
        groups = [[0, 1, 2], [3], [4, 5]]
        chunks = executor._chunk_groups(groups, 6)
        assert chunks == [[[0, 1, 2]], [[3], [4, 5]]]

    def test_use_shm_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "0")
        with pytest.raises(SpecError, match="use_shm"):
            ProcessExecutor(2, use_shm=True)
        with pytest.raises(SpecError):
            ProcessExecutor(2, blas_threads_per_worker=0)


class TestWorkerHygiene:
    def test_pool_workers_pin_blas_threads(self):
        import concurrent.futures

        from repro.runtime.executor import _worker_init

        with concurrent.futures.ProcessPoolExecutor(
            2, initializer=_worker_init, initargs=(None, 1)
        ) as pool:
            values = list(pool.map(_read_blas_env, [0, 1, 2]))
        assert values == ["1", "1", "1"]


# ---------------------------------------------------------------------------
# Per-point progress plumbing
# ---------------------------------------------------------------------------


class _RecordingQueue:
    def __init__(self):
        self.counts = []

    def put_nowait(self, count):
        self.counts.append(count)


class TestPerPointProgress:
    def test_run_spec_chunk_counts_group_sizes(self):
        from repro.runtime.executor import _run_spec_chunk

        groups = [
            [
                RunSpec(
                    problem=problem(), backend="sampling",
                    run_kwargs={"shots": 32, "rng": index},
                ).to_dict(canonical=True)
                for index in range(size)
            ]
            for size in (2, 1)
        ]
        queue = _RecordingQueue()
        outcome_groups = _run_spec_chunk(groups, None, queue)
        assert [len(g) for g in outcome_groups] == [2, 1]
        assert queue.counts == [2, 1]

    def test_pool_reports_mid_chunk_progress(self, monkeypatch):
        from repro.resilience import configure_faults

        # Two 4-point chunks of ~0.1 s points (pool workers re-read the
        # fault plan in _worker_init): chunk-granular reporting would
        # produce at most 3 callbacks, per-point counts produce more.
        payloads = [
            RunSpec(problem=problem(steps=k)).to_dict(canonical=True)
            for k in range(1, 9)
        ]
        monkeypatch.setenv("REPRO_FAULTS", "worker.execute:delay=0.1")
        seen = []
        try:
            ProcessExecutor(2, chunk_size=4).map_specs(
                payloads, progress=lambda d, t: seen.append((d, t))
            )
        finally:
            monkeypatch.delenv("REPRO_FAULTS")
            configure_faults(None)  # forget any plan this process read
        assert seen[-1] == (8, 8)
        assert [d for d, _ in seen] == sorted(d for d, _ in seen)
        assert len(seen) >= 4

    def test_no_progress_callback_skips_the_manager(self):
        executor = ProcessExecutor(2)
        manager, queue, drain = executor._progress_channel(None, 10)
        assert manager is None and queue is None
        drain(final=True)  # the no-op drain must be callable

