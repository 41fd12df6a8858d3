"""The step cache: which programs bind a cached Trotter step, and its bounds.

Bit identity of every bound step with its circuit is the differential
harness's job (``tests/integration/test_bound_steps.py``); these tests pin
down the cache itself — its key, its entry and byte bounds, the programs
that bypass it, the ``bind`` build phase, and its byte accounting under
threads that share it.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from _stress import hammer
from repro.circuits.statevector import Statevector
from repro.compile import steps
from repro.compile.pipeline import compile_problem
from repro.compile.problem import SimulationProblem
from repro.compile.strategies import STRATEGIES, DirectStrategy
from repro.exceptions import CompileError
from repro.operators.hamiltonian import Hamiltonian
from repro.utils.lru import LRUCache

TERMS = [("nsdI", 0.8), ("IZZI", 0.3), ("IXsd", 0.5 + 0.2j), ("mnsd", 0.2), ("IIII", 0.4)]


@pytest.fixture
def fresh_cache(monkeypatch):
    """An empty step cache for the test; the process-wide one is restored after."""
    cache = LRUCache(steps._STEPS.cap_bytes, steps._STEPS.cap)
    monkeypatch.setattr(steps, "_STEPS", cache)
    return cache


def problem(terms=TERMS, **kwargs) -> SimulationProblem:
    kwargs.setdefault("time", 0.3)
    return SimulationProblem(Hamiltonian.from_labels(4, terms), **kwargs)


def circuit_bytes(program) -> bytes:
    return Statevector(0, program.problem.num_qubits).evolve(program.circuit).data.tobytes()


class TestWhoBinds:
    @pytest.mark.parametrize("strategy", ["direct", "pauli"])
    def test_builtin_trotter_strategies_bind_and_time_it(self, fresh_cache, strategy):
        program = compile_problem(problem(steps=3, order=2), strategy)
        state = program.run("statevector")
        assert program.bound_step() is not None and program.bound_step().steps == 3
        assert not program.is_built  # the circuit was never built
        assert "bind" in program.build_timings
        assert state.data.tobytes() == circuit_bytes(program)

    @pytest.mark.parametrize(
        "strategy, opts",
        [("direct", {"optimize_level": 1}), ("block_encoding", {}), ("mpf", {})],
    )
    def test_other_programs_run_their_execution_circuit(self, fresh_cache, strategy, opts):
        program = compile_problem(problem(), strategy, **opts)
        state = program.run("statevector")
        assert program.bound_step() is None
        assert state.data.tobytes() == Statevector(
            0, program.execution_circuit.num_qubits
        ).evolve(program.execution_circuit).data.tobytes()

    def test_a_custom_strategy_runs_its_own_build(self, fresh_cache):
        class Doubled(DirectStrategy):
            name = "doubled-test"

            def build(self, problem):
                return super().build(replace(problem, time=2 * problem.time))

        STRATEGIES.register("doubled-test")(Doubled)
        try:
            program = compile_problem(problem(), "doubled-test")
            state = program.run("statevector")
            assert program.bound_step() is None
            assert state.data.tobytes() == circuit_bytes(program)
            # Its parent's build stays the direct circuit under any name.
            reference = DirectStrategy().build(problem(time=0.6))
            assert program.circuit.count_ops() == reference.count_ops()
            assert program.circuit.count_ops() != compile_problem(
                problem(time=0.6), "pauli"
            ).circuit.count_ops()
        finally:
            STRATEGIES.unregister("doubled-test")

    def test_only_the_builtin_steps_are_cached(self, fresh_cache):
        with pytest.raises(CompileError, match="doubled-test"):
            steps.step_fragments(problem(), "doubled-test")
        with pytest.raises(CompileError, match="doubled-test"):
            steps.bind_step(problem(), "doubled-test")
        assert not fresh_cache._entries


class TestKey:
    def test_reordered_terms_get_their_own_entry(self, fresh_cache):
        forward = problem()
        backward = problem(terms=TERMS[::-1])
        assert forward.content_key() == backward.content_key()
        for p in (forward, backward):
            compile_problem(p, "direct").run("statevector")
        assert len(fresh_cache._entries) == 2

    def test_times_and_steps_share_one_entry_per_order(self, fresh_cache):
        for time_, steps_, order in [(0.1, 1, 1), (0.7, 3, 1), (0.2, 2, 2), (0.9, 1, 2)]:
            compile_problem(problem(time=time_, steps=steps_, order=order), "pauli").run(
                "statevector"
            )
        [entry] = fresh_cache._entries.values()
        assert sorted(entry.templates) == [1, 2]

    def test_option_slices_key_apart(self, fresh_cache):
        for opts in ({}, {"parity_mode": "pyramid"}, {"mcx_mode": "vchain"}):
            compile_problem(problem(), "direct", **opts).run("statevector")
        # mcx_mode is not part of the direct builder's option slice.
        assert len(fresh_cache._entries) == 2


class TestBounds:
    def test_entries_and_bytes_stay_bounded(self, fresh_cache):
        newest = problem(terms=[("YYZI", 0.5)])
        compile_problem(newest, "pauli").run("statevector")
        newest_bytes = fresh_cache.nbytes
        fresh_cache.clear()

        fresh_cache.cap = 2
        for label in ["XXZI", "IXXZ", "ZIXX", "XZIX"]:
            compile_problem(problem(terms=[(label, 0.5), ("ZZII", 0.2)]), "pauli").run(
                "statevector"
            )
        assert len(fresh_cache._entries) == 2
        assert fresh_cache.nbytes == sum(fresh_cache._sizes.values()) > 0
        # A byte bound that fits the newest step alone evicts every older one.
        fresh_cache.cap_bytes = newest_bytes
        compile_problem(newest, "pauli").run("statevector")
        [key] = fresh_cache._entries
        assert key[-1] == newest.hamiltonian.sequence_key()
        assert fresh_cache.nbytes == fresh_cache._sizes[key] == newest_bytes > 0

    def test_a_step_over_the_byte_bound_runs_its_circuit(self, fresh_cache):
        fresh_cache.cap_bytes = 0
        program = compile_problem(problem(terms=[("XXZI", 0.5)]), "pauli")
        state = program.run("statevector")
        assert program.bound_step() is None and program.is_built
        assert state.data.tobytes() == circuit_bytes(program)


def test_threads_share_the_cache_under_a_tiny_switch_interval(fresh_cache):
    fresh_cache.cap = 3
    labels = ["XXZI", "IXXZ", "ZIXX", "XZIX", "nsdI", "IXsd"]
    cases = [
        problem(terms=[(label, 0.5), ("ZZII", 0.2), ("IIII", 0.1)], time=0.4, order=order)
        for label in labels
        for order in (1, 2)
    ]
    expected = {
        index: circuit_bytes(compile_problem(case, "pauli")) for index, case in enumerate(cases)
    }
    # The bytes one order's step charges to its entry, bound alone.
    step_bytes = {}
    for case in cases:
        key = steps._key(case, "pauli")
        fresh_cache.clear()
        compile_problem(case, "pauli").run("statevector")
        step_bytes[key, case.order] = fresh_cache._sizes[key]
    fresh_cache.clear()

    def bind(rng) -> None:
        index = rng.randrange(len(cases))
        state = compile_problem(cases[index], "pauli").run("statevector")
        assert state.data.tobytes() == expected[index]

    hammer(bind, seconds=1.0)
    # A lost update of the byte count, or a step charged twice, would break these.
    assert fresh_cache.nbytes == sum(fresh_cache._sizes.values())
    for key, entry in fresh_cache._entries.items():
        orders = [order for order, template in entry.templates.items() if template is not None]
        assert fresh_cache._sizes[key] == sum(step_bytes[key, order] for order in orders)
    assert len(fresh_cache._entries) <= 3
