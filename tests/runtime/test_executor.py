"""Executors: ordering, chunking, progress, failure capture, worker parity."""

from __future__ import annotations

import pytest

import repro
from _stress import hammer
from repro.exceptions import SpecError
from repro.runtime import (
    ProcessExecutor,
    RunSpec,
    SerialExecutor,
    execute_spec,
    resolve_executor,
)
from repro.utils.lru import LRUCache


def _square(x):
    return x * x


def problem(**kwargs):
    kwargs.setdefault("time", 0.3)
    return repro.SimulationProblem.from_labels(
        4, {"nsdI": 0.8, "IZZI": 0.3, "XIXI": 0.2}, **kwargs
    )


def wide_kernel_payloads(count: int) -> "list[dict]":
    """10-qubit kernel points, one plan group each: 16 KiB statevectors."""
    labels = {"ZZIIIIIIII": 0.5, "IXXIIIIIII": 0.3, "IIIIIIIIZY": 0.2}
    return [
        RunSpec(
            problem=repro.SimulationProblem.from_labels(10, labels, time=0.1 * k),
            backend="kernel",
        ).to_dict(canonical=True)
        for k in range(1, count + 1)
    ]


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

    def test_removed_use_shm_keyword_is_rejected(self):
        # The pool has one result transport; the old switch must fail loudly
        # rather than be accepted and ignored.
        with pytest.raises(TypeError, match="use_shm"):
            ProcessExecutor(2, use_shm=True)


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


def _pin_and_read_blas(n):
    """Pool-worker body: pin BLAS to ``n``, then read back env and OpenBLAS."""
    import ctypes
    import os

    from repro.runtime import pin_blas_threads
    from repro.runtime.executor import BLAS_ENV_VARS, _bundled_blas_libraries

    pin_blas_threads(n)
    loaded = []
    for library in _bundled_blas_libraries():
        handle = ctypes.CDLL(library)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                loaded.append(getter())
    return {var: os.environ[var] for var in BLAS_ENV_VARS}, loaded


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
        monkeypatch.setattr(executor_module, "_PROGRAM_MEMO", LRUCache(cap=3))

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


class TestProgramMemoConcurrency:
    def test_concurrent_lookups_never_raise_and_hold_the_cap(self, monkeypatch):
        # `serve --workers N` runs N worker threads through this one memo.
        from repro.runtime import executor as executor_module

        monkeypatch.setattr(executor_module, "_PROGRAM_MEMO", LRUCache(cap=3))
        problems = [problem(time=0.1 * k) for k in range(1, 6)]
        keys = [p.content_key() for p in problems]
        sizes: list = []

        def look_up(rng) -> None:
            index = rng.randrange(len(problems))
            program = executor_module._memoized_program(problems[index], "direct")
            assert program.problem.content_key() == keys[index]
            sizes.append(len(executor_module._PROGRAM_MEMO))

        hammer(look_up, seconds=1.5)
        assert sizes and max(sizes) <= 3

    @pytest.mark.parametrize("entry", ["memo", "session"])
    def test_threads_that_miss_together_get_one_program(self, monkeypatch, entry):
        # Session.compile promises one program per content key; perfbench's
        # probes rely on it returning the executor's memo entry.
        import threading
        import time

        import repro.compile.pipeline as pipeline
        from repro.runtime import Session
        from repro.runtime import executor as executor_module

        real = pipeline.compile_problem

        def slow(problem, strategy, **kwargs):
            time.sleep(0.005)  # hold the race window open
            return real(problem, strategy, **kwargs)

        monkeypatch.setattr(pipeline, "compile_problem", slow)
        session = Session(cache=False)
        compile_ = {
            "memo": executor_module._memoized_program,
            "session": session.compile,
        }[entry]
        threads = 8
        for round_ in range(4):  # fresh keys, so every round starts on a miss
            fresh = problem(time=1.0 + 0.01 * round_ + (entry == "session"))
            barrier = threading.Barrier(threads)
            got: list = []

            def compile_after_barrier(fresh=fresh, barrier=barrier, got=got) -> None:
                barrier.wait()
                got.append(compile_(fresh, "direct"))

            workers = [
                threading.Thread(target=compile_after_barrier) for _ in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
            assert len(got) == threads
            assert all(program is got[0] for program in got)
            assert executor_module._memoized_program(fresh, "direct") is got[0]


class TestCanonicalExecution:
    """Payloads with equal content keys give bit-identical results in any
    call order: every executor compiles the canonical (sorted) problem."""

    # XXI and YIY anticommute, so at order 1 the as-written order matters.
    TERMS = [("XXI", 0.7), ("IZZ", 0.4), ("YIY", 0.5)]

    def payload(self, terms, backend="statevector", initial_state=1):
        return RunSpec(
            problem=repro.SimulationProblem.from_labels(3, terms, time=0.8),
            backend=backend,
            run_kwargs={"initial_state": initial_state},
        ).to_dict()

    def test_as_written_orders_really_differ(self):
        import numpy as np

        from repro.compile.pipeline import compile_problem

        def run(terms):
            p = repro.SimulationProblem.from_labels(3, terms, time=0.8)
            return compile_problem(p, "direct").run(initial_state=1).data

        assert not np.allclose(run(self.TERMS), run(self.TERMS[::-1]))

    def test_execute_spec_does_not_depend_on_call_order(self, monkeypatch):
        import numpy as np

        from repro.runtime import executor as executor_module

        forward, reverse = self.payload(self.TERMS), self.payload(self.TERMS[::-1])
        canonical = RunSpec.from_dict(forward).to_dict(canonical=True)
        assert RunSpec.from_dict(reverse).content_key() == RunSpec.from_dict(
            canonical
        ).content_key()
        runs = []
        for order in ((canonical,), (forward, reverse), (reverse, forward)):
            monkeypatch.setattr(executor_module, "_PROGRAM_MEMO", LRUCache(cap=32))
            for payload in order:
                outcome = execute_spec(payload)
                assert outcome["ok"], outcome.get("error")
                runs.append(outcome["arrays"]["data"])
        for data in runs[1:]:
            assert np.array_equal(data, runs[0])

    def test_batches_compile_the_canonical_form_too(self, monkeypatch):
        import numpy as np

        from repro.runtime import execute_spec_batch
        from repro.runtime import executor as executor_module

        def batch(terms):
            return [self.payload(terms, "kernel", state) for state in (1, 6)]

        monkeypatch.setattr(executor_module, "_PROGRAM_MEMO", LRUCache(cap=32))
        reference = [execute_spec(p) for p in batch(sorted(self.TERMS))]
        for terms in (self.TERMS[::-1], self.TERMS):
            monkeypatch.setattr(executor_module, "_PROGRAM_MEMO", LRUCache(cap=32))
            fused = execute_spec_batch(batch(terms))
            assert [outcome.get("batched") for outcome in fused] == [2, 2]
            for outcome, ref in zip(fused, reference):
                assert np.array_equal(outcome["arrays"]["data"], ref["arrays"]["data"])


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

    def test_malformed_point_gets_no_batch_key_and_fails_alone(self):
        from repro.runtime import batch_key

        bad = self.kernel_payload(initial_state=1)
        bad["problem"]["hamiltonian"]["terms"][0]["label"] = "nsQI"
        assert batch_key(bad) is None
        payloads = [self.kernel_payload(0), bad, self.kernel_payload(2)]
        outcomes = ProcessExecutor(1).map_specs(payloads)
        assert [o["ok"] for o in outcomes] == [True, False, True]
        assert outcomes[1]["error"]["type"] == "OperatorError"

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

    def test_a_lone_payload_is_not_grouped(self, monkeypatch):
        from repro.runtime import executor as executor_module

        calls = []
        real = executor_module.batch_key
        monkeypatch.setattr(
            executor_module, "batch_key", lambda p: calls.append(p) or real(p)
        )
        [outcome] = ProcessExecutor(2).map_specs([self.kernel_payload(3)])
        assert outcome["ok"] and calls == []

    def test_repeats_parse_their_problem_once_per_run(self, monkeypatch):
        from repro.compile.problem import SimulationProblem
        from repro.runtime import group_payloads

        parses = []
        real = SimulationProblem.from_dict.__func__

        def counted(cls, payload):
            parses.append(payload)
            return real(cls, payload)

        monkeypatch.setattr(SimulationProblem, "from_dict", classmethod(counted))
        payloads = [
            RunSpec(
                problem=problem(steps=steps), backend="sampling",
                run_kwargs={"shots": 64, "rng": index},
            ).to_dict(canonical=True)
            for steps in (1, 2)
            for index in range(64)
        ]
        assert group_payloads(payloads) == [list(range(64)), list(range(64, 128))]
        assert len(parses) == 2

    def test_spellings_equal_as_dicts_keep_their_own_keys(self):
        import numpy as np

        from repro.runtime import batch_key, group_payloads
        from repro.utils.serialization import canonical_json

        def sampling(shots, rng, time=0.3):
            payload = RunSpec(
                problem=problem(), backend="sampling",
                run_kwargs={"shots": shots, "rng": rng},
            ).to_dict(canonical=True)
            payload["problem"]["time"] = time
            return payload

        payloads = [
            sampling(64, 1), sampling(64.0, 2), sampling(64.0, 3),
            sampling(64, 4, time=1), sampling(64, 5, time=1.0),
        ]
        # 64 and 64.0 compare equal but hash to different plan keys; a time
        # of 1 and 1.0 normalizes to one problem key.
        assert payloads[0]["run_kwargs"]["shots"] == payloads[1]["run_kwargs"]["shots"]
        keys = [batch_key(payload) for payload in payloads]
        assert keys[0] != keys[1] == keys[2] != keys[3] == keys[4]
        assert group_payloads(payloads) == [[0], [1, 2], [3, 4]]
        outcomes = ProcessExecutor(2, chunk_size=1).map_specs(payloads)
        for outcome, payload in zip(outcomes, payloads):
            reference = execute_spec(payload)
            assert outcome["ok"] and reference["ok"]
            assert canonical_json(outcome["result"]) == canonical_json(reference["result"])
            for name, array in reference["arrays"].items():
                assert np.array_equal(outcome["arrays"][name], array)


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

    @pytest.mark.parametrize("backend", ["kernel", "sampling"])
    def test_negative_initial_state_is_a_captured_compile_error_everywhere(
        self, backend
    ):
        # The batch axis differs per backend (initial_state vs rng), so the
        # two groups fail on different sides of the fused path: the kernel
        # batch refuses the index up front, the sampling batch raises from
        # prepare().  Both must land as the serial path's captured error.
        from repro.runtime import execute_spec_batch

        if backend == "kernel":
            kwargs = [{"initial_state": index} for index in (0, -1, 1)]
        else:
            kwargs = [
                {"initial_state": -1, "shots": 64, "rng": seed} for seed in (0, 1, 2)
            ]
        payloads = [
            RunSpec(problem=problem(), backend=backend, run_kwargs=run_kwargs)
            .to_dict(canonical=True)
            for run_kwargs in kwargs
        ]
        bad = [index for index, run_kwargs in enumerate(kwargs)
               if run_kwargs["initial_state"] == -1]
        for outcomes in (
            SerialExecutor().map_specs(payloads),
            ProcessExecutor(2, chunk_size=1).map_specs(payloads),
            execute_spec_batch(payloads),
        ):
            for index, outcome in enumerate(outcomes):
                if index in bad:
                    assert not outcome["ok"]
                    assert outcome["error"]["type"] == "CompileError"
                else:
                    assert outcome["ok"]

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

    def test_failing_point_is_captured_and_neighbours_land(self):
        payloads = [
            RunSpec(
                problem=problem(), backend="sampling",
                run_kwargs={"shots": -1 if index == 1 else 64, "rng": index},
            ).to_dict(canonical=True)
            for index in range(4)
        ]
        outcomes = ProcessExecutor(2, chunk_size=1).map_specs(payloads)
        assert outcomes[1]["ok"] is False
        assert "Traceback" in outcomes[1]["error"]["traceback"]
        for index in (0, 2, 3):
            reference = execute_spec(payloads[index])
            assert outcomes[index]["ok"]
            assert outcomes[index]["result"]["counts"] == reference["result"]["counts"]

    def test_blas_threads_per_worker_validation(self):
        with pytest.raises(SpecError):
            ProcessExecutor(2, blas_threads_per_worker=0)

    def test_large_statevectors_return_bit_identical(self):
        import numpy as np

        payloads = wide_kernel_payloads(4)
        outcomes = ProcessExecutor(2, chunk_size=1).map_specs(payloads)
        for outcome, payload in zip(outcomes, payloads):
            reference = execute_spec(payload)["arrays"]["data"]
            data = outcome["arrays"]["data"]
            assert outcome["ok"]
            # A plain, writable array straight off the result pipe.
            assert type(data) is np.ndarray and data.flags.writeable
            assert data.nbytes >= 1 << 14
            assert data.dtype == reference.dtype and data.shape == reference.shape
            assert np.array_equal(data, reference)

    def test_removed_shm_variables_create_no_segments(self, monkeypatch):
        from pathlib import Path

        # Even the old "shared memory at every size" setting must leave
        # /dev/shm alone, through clean points and a failing one alike.
        monkeypatch.setenv("REPRO_SHM", "1")
        monkeypatch.setenv("REPRO_SHM_MIN_BYTES", "0")
        root = Path("/dev/shm")

        def segments() -> "set[str]":
            return {p.name for p in root.glob("repro_*")} if root.exists() else set()

        before = segments()
        failing = RunSpec(
            problem=problem(), backend="sampling", run_kwargs={"shots": -1}
        ).to_dict(canonical=True)
        payloads = wide_kernel_payloads(3) + [failing]
        outcomes = ProcessExecutor(2, chunk_size=1).map_specs(payloads)
        assert [outcome["ok"] for outcome in outcomes] == [True, True, True, False]
        assert segments() - before == set()


class TestWorkerHygiene:
    def test_pool_workers_pin_blas_threads(self):
        import concurrent.futures

        from repro.runtime.executor import _worker_init

        with concurrent.futures.ProcessPoolExecutor(
            2, initializer=_worker_init, initargs=(1,)
        ) as pool:
            values = list(pool.map(_read_blas_env, [0, 1, 2]))
        assert values == ["1", "1", "1"]

    def test_pin_blas_threads_clamps_and_reaches_loaded_blas(self):
        import concurrent.futures

        # A forked worker inherits an initialized OpenBLAS that no longer
        # reads the environment; pinning must reach it through ctypes too.
        # A request below one thread is clamped to one.
        with concurrent.futures.ProcessPoolExecutor(1) as pool:
            env, loaded = pool.submit(_pin_and_read_blas, 0).result()
        assert set(env.values()) == {"1"}
        assert all(threads == 1 for threads in loaded)

    def test_shm_surface_is_gone_and_blas_pinning_stays_exported(self):
        import importlib

        import repro.runtime as runtime
        from repro.runtime import executor as executor_module

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.runtime.shm")
        for name in ("SHM_ENV", "SHM_MIN_BYTES_ENV", "shm_enabled", "reap_orphans"):
            assert not hasattr(runtime, name)
            assert name not in runtime.__all__
        assert runtime.pin_blas_threads is executor_module.pin_blas_threads
        assert "pin_blas_threads" in runtime.__all__

    def test_pool_leaves_no_resource_tracker(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        # A fresh interpreter: no earlier test has started a tracker in it.
        # Four 10-qubit kernel points in four plan groups, so both workers
        # return 16 KiB statevectors.
        script = """
import multiprocessing
from multiprocessing import resource_tracker

import repro
from repro.runtime import ProcessExecutor, RunSpec

labels = {"ZZIIIIIIII": 0.5, "IXXIIIIIII": 0.3, "IIIIIIIIZY": 0.2}
payloads = [
    RunSpec(
        problem=repro.SimulationProblem.from_labels(10, labels, time=0.1 * k),
        backend="kernel",
    ).to_dict(canonical=True)
    for k in range(1, 5)
]
outcomes = ProcessExecutor(2, chunk_size=1).map_specs(payloads)
assert all(outcome["ok"] for outcome in outcomes)
assert all(outcome["arrays"]["data"].nbytes >= 1 << 14 for outcome in outcomes)
assert resource_tracker._resource_tracker._pid is None, "resource tracker started"
assert multiprocessing.active_children() == []
"""
        src = Path(repro.__file__).resolve().parent.parent
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr


# ---------------------------------------------------------------------------
# Per-point progress plumbing
# ---------------------------------------------------------------------------


class _RecordingQueue:
    def __init__(self):
        self.counts = []

    def put(self, count):
        self.counts.append(count)


class TestPerPointProgress:
    def test_run_spec_chunk_counts_group_sizes(self, monkeypatch):
        from repro.runtime import executor as executor_module
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
        # The channel a pool worker's initializer installs.
        queue = _RecordingQueue()
        monkeypatch.setattr(executor_module, "_WORKER_CHANNEL", queue)
        outcome_groups = _run_spec_chunk(groups, None)
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

    def test_progress_starts_no_process_beside_the_workers(self):
        import multiprocessing

        # Counts travel over the pool's own channel: during a call with a
        # progress callback the only children are the pool's workers, and
        # they are the same processes after the call.
        payloads = [
            RunSpec(problem=problem(steps=k)).to_dict(canonical=True)
            for k in range(1, 7)
        ]
        during = []
        with ProcessExecutor(2, chunk_size=1) as executor:
            executor.map_specs(
                payloads,
                progress=lambda d, t: during.append(
                    {p.pid for p in multiprocessing.active_children()}
                ),
            )
            after = {p.pid for p in multiprocessing.active_children()}
        assert during and len(after) == 2
        assert all(children == after for children in during)
