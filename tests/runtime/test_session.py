"""Session: cache-first execution, determinism, mutation safety, driver wiring."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.exceptions import ExecutionError, SpecError
from repro.runtime import (
    ResultCache,
    RunSpec,
    SerialExecutor,
    Session,
    SweepSpec,
)


@pytest.fixture
def session(tmp_path):
    return Session(cache=tmp_path / "cache")


def problem(terms=None, **kwargs):
    terms = terms if terms is not None else {"nsdI": 0.8, "IZZI": 0.3, "XIXI": 0.2}
    kwargs.setdefault("time", 0.3)
    return repro.SimulationProblem.from_labels(4, terms, **kwargs)


class TestRun:
    def test_miss_then_hit(self, session):
        first = session.run(problem(), "direct")
        assert first.ok and not first.cached
        second = session.run(problem(), "direct")
        assert second.cached
        np.testing.assert_array_equal(first.value.data, second.value.data)

    def test_cached_agrees_with_fresh_compute(self, session):
        cached = session.run(problem(), "direct").value
        again = session.run(problem(), "direct").value  # cache hit
        fresh = Session(cache=False).run(problem(), "direct").value
        np.testing.assert_allclose(again.data, fresh.data, atol=1e-12, rtol=0)
        np.testing.assert_allclose(cached.data, fresh.data, atol=1e-12, rtol=0)

    def test_reordered_terms_hit_same_entry_with_identical_result(self, session):
        terms = {"nsdI": 0.8, "IZZI": 0.3, "XIXI": 0.2}
        reordered = dict(reversed(list(terms.items())))
        a = session.run(problem(terms), "direct")
        b = session.run(problem(reordered), "direct")
        assert b.cached and a.key == b.key
        np.testing.assert_array_equal(a.value.data, b.value.data)

    def test_run_accepts_runspec(self, session):
        spec = RunSpec(problem=problem(), backend="resource")
        record = session.run(spec)
        assert record.ok and record.value.rotations > 0

    def test_run_rejects_overrides_next_to_a_spec(self, session):
        spec = RunSpec(problem=problem(), backend="resource")
        with pytest.raises(SpecError, match="not both"):
            session.run(spec, backend="sampling")
        with pytest.raises(SpecError, match="not both"):
            session.run(spec, shots=128)

    def test_failure_is_recorded_not_raised(self, session):
        record = session.run(problem(), "block_encoding", backend="exact")
        assert not record.ok and record.error["type"] == "CompileError"
        with pytest.raises(ExecutionError, match="CompileError"):
            record.require()

    def test_cache_disabled(self):
        session = Session(cache=False)
        assert not session.run(problem()).cached
        assert not session.run(problem()).cached
        assert session.cache_stats()["entries"] == 0


class TestMutationRegression:
    """Satellite: add_term between two Session.run calls must never go stale."""

    def test_mutated_hamiltonian_misses_the_cache(self, session):
        ham = repro.Hamiltonian.from_labels(4, {"nsdI": 0.8, "IZZI": 0.3})
        first = session.run(repro.SimulationProblem(ham, 0.3), "direct")
        assert not first.cached
        ham.add_label("XIXI", 0.2)  # in-place mutation bumps the version
        second = session.run(repro.SimulationProblem(ham, 0.3), "direct")
        assert not second.cached, "stale cache hit after in-place mutation"
        assert first.key != second.key
        # The mutated run really reflects the extra term.
        reference = Session(cache=False).run(
            repro.SimulationProblem(
                repro.Hamiltonian.from_labels(
                    4, {"nsdI": 0.8, "IZZI": 0.3, "XIXI": 0.2}
                ),
                0.3,
            ),
            "direct",
        )
        np.testing.assert_allclose(
            second.value.data, reference.value.data, atol=1e-12, rtol=0
        )

    def test_compile_is_call_history_independent(self, tmp_path):
        """Content-equal problems must compile to bit-identical programs
        regardless of which term ordering the session saw first."""
        terms_a = [("XIII", 0.4), ("nsdI", 0.8), ("IZZI", 0.3)]
        terms_b = list(reversed(terms_a))
        make = lambda t: repro.SimulationProblem(
            repro.Hamiltonian.from_labels(4, t), 0.3
        )
        session = Session(cache=tmp_path / "c")
        via_compile = session.compile(make(terms_b), "direct").run(
            backend="statevector"
        )
        via_run = session.run(make(terms_b), "direct").value
        np.testing.assert_allclose(
            via_compile.data, via_run.data, atol=1e-12, rtol=0
        )
        # Seeing ordering A first must not change what ordering B yields.
        fresh = Session(cache=False)
        fresh.compile(make(terms_a), "direct")
        after_a = fresh.compile(make(terms_b), "direct").run(backend="statevector")
        np.testing.assert_allclose(after_a.data, via_run.data, atol=1e-12, rtol=0)

    def test_mutation_misses_the_program_memo(self, session):
        ham = repro.Hamiltonian.from_labels(4, {"nsdI": 0.8})
        before = session.compile(repro.SimulationProblem(ham, 0.3), "direct")
        assert session.compile(repro.SimulationProblem(ham, 0.3), "direct") is before
        ham.add_label("IZZI", 0.3)
        after = session.compile(repro.SimulationProblem(ham, 0.3), "direct")
        assert after is not before


class TestSweep:
    def test_grid_cache_and_order(self, session):
        axes = dict(strategies=("direct", "pauli"), steps=(1, 2), backend="statevector")
        cold = session.sweep(problem(), **axes)
        assert len(cold) == 4 and cold.ok and cold.num_cached == 0
        warm = session.sweep(problem(), **axes)
        assert warm.num_cached == 4
        for a, b in zip(cold, warm):
            assert a.coords == b.coords
            np.testing.assert_allclose(
                a.value.data, b.value.data, atol=1e-12, rtol=0
            )

    def test_identical_points_execute_once(self, session):
        spec = SweepSpec(problem=problem(), times=(0.3, 0.3))  # duplicate points
        results = session.sweep(spec)
        assert len(results) == 2
        assert results[0].key == results[1].key
        assert session.cache.stats()["entries"] == 1

    def test_sweepspec_and_axes_are_exclusive(self, session):
        with pytest.raises(SpecError):
            session.sweep(SweepSpec(problem=problem()), steps=(1, 2))

    def test_failure_does_not_kill_the_sweep(self, session):
        results = session.sweep(
            problem(),
            strategies=("direct", "block_encoding"),
            backend="exact",  # rejects non-evolution programs
        )
        assert len(results) == 2 and not results.ok
        failures = results.failures()
        assert len(failures) == 1
        assert failures[0].coords["strategy"] == "block_encoding"
        assert results.filter(strategy="direct")[0].ok

    def test_filter_values_and_value(self, session):
        results = session.sweep(
            problem(), strategies=("direct", "pauli"), backend="resource"
        )
        assert len(results.filter(strategy="pauli")) == 1
        assert len(results.values()) == 2
        estimate = results.value(strategy="direct", steps=1)
        assert estimate.strategy == "direct"
        with pytest.raises(ExecutionError):
            results.value(steps=1)  # two matches

    def test_to_json_and_table(self, session):
        import json

        results = session.sweep(problem(), steps=(1, 2), backend="sampling",
                                run_kwargs={"shots": 64}, seed=3)
        doc = json.loads(results.to_json())
        assert doc["num_records"] == 2
        assert doc["records"][0]["value"]["kind"] == "sampling"
        table = results.table()
        assert "steps" in table and "sampling" in table

    def test_progress_callback(self, tmp_path):
        seen = []
        session = Session(
            cache=tmp_path / "c", progress=lambda done, total: seen.append((done, total))
        )
        session.sweep(problem(), steps=(1, 2, 3))
        assert seen[-1] == (3, 3)


class TestExecutorSeam:
    def test_any_object_with_map_specs_is_an_executor(self, tmp_path):
        class Recording:
            def __init__(self):
                self.batches = []

            def map_specs(self, payloads, *, progress=None):
                self.batches.append(list(payloads))
                return SerialExecutor().map_specs(payloads, progress=progress)

        executor = Recording()
        session = Session(cache=tmp_path / "cache", executor=executor)
        cold = session.sweep(problem(), steps=(1, 2))
        assert cold.ok and cold.num_cached == 0
        [batch] = executor.batches  # one call carries every pending point
        canonical = [RunSpec.from_dict(p).to_dict(canonical=True) for p in batch]
        assert canonical == batch
        assert session.sweep(problem(), steps=(1, 2)).num_cached == 2
        assert len(executor.batches) == 1  # cache hits never reach it


class TestWorkerDeterminism:
    """Satellite: worker count must never change sampled counts."""

    def axes(self):
        return dict(
            strategies=("direct", "pauli"),
            steps=(1, 2),
            backend="sampling",
            run_kwargs={"shots": 256},
            seed=17,
        )

    def test_serial_vs_four_workers_identical_counts(self, tmp_path):
        serial = Session(cache=False, executor=1).sweep(problem(), **self.axes())
        pooled = Session(cache=False, executor=4).sweep(problem(), **self.axes())
        assert [r.value.counts for r in serial] == [r.value.counts for r in pooled]

    def test_root_seed_changes_streams_and_keys(self, tmp_path):
        axes = self.axes()
        a = Session(cache=False).sweep(problem(), **axes)
        axes["seed"] = 18
        b = Session(cache=False).sweep(problem(), **axes)
        # Different root seed → different per-point streams and cache keys
        # (the sampled counts themselves may coincide on a concentrated
        # distribution, so the contract is on seeds/keys, not counts).
        assert [ra.spec.run_kwargs["rng"] for ra in a] != [
            rb.spec.run_kwargs["rng"] for rb in b
        ]
        assert [ra.key for ra in a] != [rb.key for rb in b]


class TestMapProblems:
    def test_order_and_labels(self, session):
        problems = [problem(time=t) for t in (0.1, 0.2, 0.3)]
        results = session.map_problems(problems, "direct", backend="resource")
        assert [r.coords["index"] for r in results] == [0, 1, 2]
        assert all(r.ok for r in results)


class TestSessionCall:
    def test_memoizes_by_payload(self, session):
        calls = []

        def expensive():
            calls.append(1)
            return {"value": 42}

        a = session.call("study", {"x": 1}, expensive)
        b = session.call("study", {"x": 1}, expensive)
        c = session.call("study", {"x": 2}, expensive)
        assert a == b == {"value": 42} and c == {"value": 42}
        assert len(calls) == 2  # distinct payloads computed once each

    def test_unencodable_results_still_returned(self, session):
        token = object()
        assert session.call("odd", {"k": 1}, lambda: token) is token
        # Not cached: the second call recomputes.
        other = object()
        assert session.call("odd", {"k": 1}, lambda: other) is other


class TestDriverWiring:
    def test_compare_strategies_cached(self, session):
        ham = repro.Hamiltonian.from_labels(4, {"nsdI": 0.8, "IZZI": 0.3})
        from repro.analysis import compare_strategies

        first = compare_strategies(ham, 0.4, session=session)
        hits = session.cache.hits
        second = compare_strategies(ham, 0.4, session=session)
        assert second.direct_error == first.direct_error
        assert session.cache.hits > hits

    def test_trotter_error_curve_cached(self, session):
        from repro.analysis import trotter_error_curve

        ham = repro.Hamiltonian.from_labels(4, {"nsdI": 0.8, "IZZI": 0.3})
        builder = lambda steps: session.compile(
            repro.SimulationProblem(ham, 0.4, steps=steps), "direct"
        )
        first = trotter_error_curve(ham, builder, 0.4, [1, 2], session=session)
        hits = session.cache.hits
        second = trotter_error_curve(ham, builder, 0.4, [1, 2], session=session)
        assert first == second
        assert session.cache.hits >= hits + 2

    def test_compare_all_uses_program_memo(self, session):
        prob = problem()
        sweep_a = repro.compare_all(prob, session=session)
        sweep_b = repro.compare_all(prob, session=session)
        assert sweep_a["direct"] is sweep_b["direct"]

    def test_compare_all_session_honours_prescription_kwargs(self, session):
        prob = problem()
        with_session = repro.compare_all(
            prob, steps=3, order=2, optimize_level=1, session=session
        )
        plain = repro.compare_all(prob, steps=3, order=2, optimize_level=1)
        for name in ("direct", "pauli"):
            assert with_session[name].problem.steps == 3
            assert with_session[name].problem.order == 2
            assert with_session[name].problem.options.optimize_level == 1
            assert (
                with_session[name].problem.content_key()
                == plain[name].problem.content_key()
            )

    def test_compile_many_session_honours_time(self, session):
        prob = problem(time=0.2)
        with_session = repro.compile_many([prob], "direct", time=0.9, session=session)
        plain = repro.compile_many([prob], "direct", time=0.9)
        assert with_session[0].problem.time == plain[0].problem.time == 0.9

    def test_chemistry_measurement_study_cached(self, session):
        from repro.applications.chemistry import chemistry_measurement_study

        first = chemistry_measurement_study(
            total_shots=512, repeats=2, rng=0, session=session
        )
        second = chemistry_measurement_study(
            total_shots=512, repeats=2, rng=0, session=session
        )
        assert first == second

    def test_unseeded_studies_are_never_cached(self, session):
        """rng=None draws fresh entropy — freezing one draw into the cache
        would replay it forever, so the unseeded path must bypass caching."""
        from repro.applications.hubo import random_hubo, run_qaoa

        hubo = random_hubo(3, 4, 2, rng=1)
        before = session.cache.stats()["entries"]
        run_qaoa(hubo, 1, rng=None, maxiter=5, session=session)
        assert session.cache.stats()["entries"] == before

    def test_run_qaoa_cached(self, session):
        from repro.applications.hubo import random_hubo, run_qaoa

        hubo = random_hubo(4, 5, 3, rng=1)
        first = run_qaoa(hubo, 1, rng=3, maxiter=20, session=session)
        second = run_qaoa(hubo, 1, rng=3, maxiter=20, session=session)
        assert first.optimal_value == second.optimal_value
        assert first.best_bitstring == second.best_bitstring
        np.testing.assert_array_equal(
            first.optimal_parameters, second.optimal_parameters
        )


class TestDefaultSession:
    def test_default_session_is_process_wide(self, tmp_path, monkeypatch):
        from repro.runtime import get_default_session, set_default_session
        from repro.runtime.cache import CACHE_DIR_ENV

        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "default"))
        set_default_session(None)
        try:
            assert get_default_session() is get_default_session()
        finally:
            set_default_session(None)


class TestBatchedPoolParity:
    """The plan-batched pool path must be indistinguishable from serial."""

    def test_seeded_repeats_identical_counts(self):
        axes = dict(
            strategies=("direct", "pauli"),
            steps=(1,),
            backend="sampling",
            run_kwargs={"shots": 256},
            seed=23,
            repeats=6,
        )
        serial = Session(cache=False, executor=1).sweep(problem(), **axes)
        pooled = Session(cache=False, executor=4).sweep(problem(), **axes)
        assert len(serial) == 12
        assert [r.value.counts for r in serial] == [r.value.counts for r in pooled]

    def test_statevector_grid_bit_identical(self):
        axes = dict(
            strategies=("direct", "pauli"), steps=(1, 2, 3), backend="statevector"
        )
        serial = Session(cache=False, executor=1).sweep(problem(), **axes)
        pooled = Session(cache=False, executor=4).sweep(problem(), **axes)
        for a, b in zip(serial, pooled):
            assert a.error is None and b.error is None
            assert np.array_equal(a.value.data, b.value.data)

    def test_kernel_backend_bit_identical(self):
        axes = dict(
            strategies=("direct", "pauli"),
            steps=(1, 2),
            backend="kernel",
            run_kwargs={"initial_state": 3},
        )
        serial = Session(cache=False, executor=1).sweep(problem(), **axes)
        pooled = Session(cache=False, executor=4).sweep(problem(), **axes)
        for a, b in zip(serial, pooled):
            assert a.error is None and b.error is None
            assert np.array_equal(a.value.data, b.value.data)

    def test_pool_failures_still_captured_per_point(self):
        results = Session(cache=False, executor=2).sweep(
            problem(),
            strategies=("direct", "block_encoding"),
            backend="exact",
        )
        assert len(results) == 2 and not results.ok
        assert len(results.failures()) == 1
