"""EvolutionPlan lowering: mask-plan evolution must match circuit evolution.

Property suite for the term-level engine: random SCB Hamiltonians are lowered
under both evolution strategies and every plan is replayed against the exact
same circuit the strategy builds — full complex vectors compared, so global
phases count, including the batch axis.  The refusal paths (non-evolution
strategies, ``trotter_split`` complex fragments), the per-program cache,
the per-Hamiltonian lowering cache and the one-phase-vector step of an
all-diagonal (HUBO) Hamiltonian are covered as well.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.compile.plan as plan_module
from _stress import hammer
from repro.applications.hubo import random_hubo
from repro.circuits.statevector import Statevector
from repro.compile.plan import (
    EvolutionPlan,
    PlanLoweringError,
    lower_problem,
)
from repro.operators.hamiltonian import Hamiltonian
from repro.operators.scb_term import SCBTerm
from repro.utils.linalg import random_statevector
from repro.utils.lru import LRUCache

ALPHABET = "IXYZnmsd"


def random_problem(seed: int, *, steps: int = 1, order: int = 1, time: float = 0.3):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    terms: dict[str, float] = {}
    for _ in range(int(rng.integers(1, 4))):
        while True:
            label = "".join(rng.choice(list(ALPHABET), size=n))
            if set(label) != {"I"} and label not in terms:
                break
        terms[label] = float(rng.uniform(0.2, 1.0) * rng.choice((-1, 1)))
    return repro.SimulationProblem.from_labels(
        n, terms, time=time, steps=steps, order=order
    )


def circuit_reference(program, psi: np.ndarray) -> np.ndarray:
    return Statevector(psi).evolve(program.circuit).data


class TestPlanMatchesCircuit:
    @given(
        seed=st.integers(0, 200),
        strategy=st.sampled_from(["direct", "pauli"]),
        steps=st.integers(1, 3),
        order=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_hamiltonians(self, seed, strategy, steps, order):
        problem = random_problem(seed, steps=steps, order=order)
        program = repro.compile(problem, strategy)
        plan = program.evolution_plan()
        assert plan is not None
        psi = random_statevector(problem.num_qubits, np.random.default_rng(seed))
        # Full vectors, not fidelities: the identity-string global phase must
        # match the circuit's global_phase too.
        np.testing.assert_allclose(
            plan.evolve(psi), circuit_reference(program, psi), atol=1e-10
        )

    @given(seed=st.integers(0, 100), strategy=st.sampled_from(["direct", "pauli"]))
    @settings(max_examples=20, deadline=None)
    def test_batch_axis(self, seed, strategy):
        problem = random_problem(seed, steps=2, order=2)
        program = repro.compile(problem, strategy)
        rng = np.random.default_rng(seed + 1)
        batch = np.column_stack(
            [random_statevector(problem.num_qubits, rng) for _ in range(3)]
        )
        evolved = program.evolution_plan().evolve(batch)
        for column in range(3):
            np.testing.assert_allclose(
                evolved[:, column],
                circuit_reference(program, batch[:, column]),
                atol=1e-10,
            )

    def test_global_phase_only_problem(self):
        # A purely diagonal Hamiltonian with an identity component: the plan's
        # accumulated step phase must reproduce the circuit's global phase.
        problem = repro.SimulationProblem.from_labels(
            2, {"nm": 0.7, "ZI": 0.4}, time=0.9, steps=3
        )
        program = repro.compile(problem, "pauli")
        psi = random_statevector(2, np.random.default_rng(0))
        np.testing.assert_allclose(
            program.evolution_plan().evolve(psi),
            circuit_reference(program, psi),
            atol=1e-12,
        )


class TestLoweringRefusals:
    def test_non_evolution_strategy_refuses(self):
        problem = random_problem(3)
        with pytest.raises(PlanLoweringError, match="does not lower"):
            lower_problem(problem, "block_encoding")

    def test_complex_transition_fragment_lowers_exactly(self):
        # A complex coefficient produces anticommuting strings — no product of
        # independent rotations exists — but the closed-form fragment
        # exponential still reproduces the exact circuit.
        ham = repro.Hamiltonian(3).add_term(SCBTerm.from_label("ssI", 0.5 + 0.5j))
        ham.add_term(SCBTerm.from_label("IZn", 0.3))
        program = repro.compile(repro.SimulationProblem(ham, 0.3, steps=2), "direct")
        psi = random_statevector(3, np.random.default_rng(1))
        np.testing.assert_allclose(
            program.evolution_plan().evolve(psi),
            circuit_reference(program, psi),
            atol=1e-10,
        )

    def test_trotter_split_complex_fragment_refuses(self):
        # Under complex_mode="trotter_split" the circuit deliberately carries
        # a splitting error; the exact plan would disagree, so lowering refuses.
        ham = repro.Hamiltonian(3).add_term(SCBTerm.from_label("ssI", 0.5 + 0.5j))
        problem = repro.SimulationProblem(ham, 0.3).with_options(
            complex_mode="trotter_split"
        )
        with pytest.raises(PlanLoweringError, match="trotter_split"):
            lower_problem(problem, "direct")

    def test_kernel_backend_falls_back_when_refused(self):
        ham = repro.Hamiltonian(3).add_term(SCBTerm.from_label("ssI", 0.5 + 0.5j))
        problem = repro.SimulationProblem(ham, 0.3).with_options(
            complex_mode="trotter_split"
        )
        program = repro.compile(problem, "direct")
        assert program.evolution_plan() is None
        kernel = program.run(backend="kernel")
        reference = program.run(backend="statevector")
        np.testing.assert_allclose(kernel.data, reference.data, atol=1e-12)

    @pytest.mark.parametrize("strategy", ["block_encoding", "mpf"])
    def test_kernel_backend_falls_back_for_wide_programs(self, strategy):
        problem = repro.SimulationProblem.from_labels(
            3, {"nsd": 0.4, "ZII": 0.3}, time=0.2
        )
        program = repro.compile(problem, strategy)
        assert program.evolution_plan() is None
        kernel = program.run(backend="kernel")
        reference = program.run(backend="statevector")
        np.testing.assert_allclose(kernel.data, reference.data, atol=1e-12)


class TestPlanObject:
    def test_plan_is_cached_on_the_program(self):
        program = repro.compile(random_problem(5), "direct")
        assert program.evolution_plan() is program.evolution_plan()

    def test_failed_lowering_is_cached_too(self):
        ham = repro.Hamiltonian(2).add_term(SCBTerm.from_label("ss", 1.0 + 1.0j))
        problem = repro.SimulationProblem(ham, 0.1).with_options(
            complex_mode="trotter_split"
        )
        program = repro.compile(problem, "direct")
        assert program.evolution_plan() is None
        assert program.evolution_plan() is None
        assert program._plan_unavailable

    def test_num_rotations_and_describe(self):
        problem = repro.SimulationProblem.from_labels(
            3, {"ZZI": 0.5, "IXX": 0.25}, time=0.4, steps=4, order=2
        )
        plan = repro.compile(problem, "pauli").evolution_plan()
        assert isinstance(plan, EvolutionPlan)
        # The order-2 turnaround coalesces the doubled middle fragment, so the
        # step schedule is s0(½) · s1(1) · s0(½): three rotations per step.
        assert plan.num_rotations == 3 * 4
        assert "pauli" in plan.describe()

    def test_dimension_mismatch_raises(self):
        plan = repro.compile(random_problem(7), "direct").evolution_plan()
        with pytest.raises(repro.CompileError, match="does not fit"):
            plan.evolve(np.ones(3, dtype=complex))

    def test_more_than_one_batch_axis_raises(self):
        # Extra trailing axes would broadcast the baked tables against batch
        # dimensions and silently corrupt amplitudes; the contract is
        # (dim,) or (dim, batch) only.
        problem = random_problem(7)
        plan = repro.compile(problem, "direct").evolution_plan()
        dim = 1 << problem.num_qubits
        with pytest.raises(repro.CompileError, match="batch"):
            plan.evolve(np.ones((dim, 2, 2), dtype=complex))

    def test_kernel_backend_rejects_unknown_kwargs(self):
        program = repro.compile(random_problem(7), "direct")
        with pytest.raises(repro.CompileError, match="unknown kernel-backend"):
            program.run(backend="kernel", shots=10)

    def test_factored_sign_path_matches_circuit(self, monkeypatch):
        # Force the Jordan–Wigner factoring (common-Z sign + residual table)
        # onto the wide groups by shrinking the dense-table cap below the
        # Z-chain width (but not below the two-transition residual).
        problem = repro.SimulationProblem.from_labels(
            5,
            {"dZZZs": 0.6, "ZZZZI": 0.4, "nIIIn": 0.3},
            time=0.3,
            steps=2,
            order=2,
        )
        # Lowered first under the default cap: the cached lowering of that
        # cap must not be served once the cap shrinks.
        for strategy in ("direct", "pauli"):
            plan = lower_problem(problem, strategy)
            assert not any(getattr(op, "sign_mask", 0) for op in plan._baked_ops())
        monkeypatch.setattr(plan_module, "_MAX_TABLE_BITS", 3)
        for strategy in ("direct", "pauli"):
            program = repro.compile(problem, strategy)
            plan = program.evolution_plan()
            assert any(
                getattr(op, "sign_mask", 0) for op in plan._baked_ops()
            ), "expected at least one factored-sign op"
            psi = random_statevector(5, np.random.default_rng(3))
            np.testing.assert_allclose(
                plan.evolve(psi), circuit_reference(program, psi), atol=1e-10
            )
            batch = np.column_stack([psi, random_statevector(5, np.random.default_rng(4))])
            np.testing.assert_allclose(
                plan.evolve(batch)[:, 0], circuit_reference(program, psi), atol=1e-10
            )

    def test_kernel_backend_batched_initial_state(self):
        problem = random_problem(9, steps=2)
        program = repro.compile(problem, "direct")
        rng = np.random.default_rng(2)
        batch = np.column_stack(
            [random_statevector(problem.num_qubits, rng) for _ in range(2)]
        )
        out = program.run(backend="kernel", initial_state=batch)
        assert isinstance(out, np.ndarray) and out.shape == batch.shape
        np.testing.assert_allclose(
            out[:, 0], circuit_reference(program, batch[:, 0]), atol=1e-10
        )

    def test_kernel_run_after_plan_bakes_nothing(self, monkeypatch):
        # The plan build phase covers lowering and baking; a kernel run only
        # replays the baked tables, so the ledger's evolve phase is physics.
        calls = []
        bake = EvolutionPlan._bake_group

        def counting(self, *args):
            calls.append(1)
            return bake(self, *args)

        monkeypatch.setattr(EvolutionPlan, "_bake_group", counting)
        program = repro.compile(random_problem(11, steps=2, order=2), "direct")
        program.evolution_plan()
        assert calls, "the plan build must bake"
        calls.clear()
        program.run(backend="kernel")
        program.run(backend="kernel", initial_state=1)
        assert calls == []


class TestAllDiagonalPlans:
    """HUBO, Ising and number-only Hamiltonians bake one phase vector per step."""

    @pytest.mark.parametrize("steps", [1, 3])
    @pytest.mark.parametrize("order", [1, 2, 4])
    @pytest.mark.parametrize("strategy", ["direct", "pauli"])
    @pytest.mark.parametrize("formalism", ["boolean", "spin"])
    def test_hubo_step_is_one_exact_phase_vector(self, formalism, strategy, order, steps):
        hubo = random_hubo(8, 16, 4, formalism=formalism, rng=17)
        time = 0.7
        plan = lower_problem(
            hubo.to_simulation_problem(time, steps=steps, order=order), strategy
        )
        [op] = plan._baked_ops()
        assert isinstance(op, plan_module._DiagonalOp)
        psi = random_statevector(8, np.random.default_rng(steps + order))
        np.testing.assert_allclose(
            plan.evolve(psi), np.exp(-1j * time * hubo.energy_vector()) * psi, atol=1e-12
        )

    def test_kernel_run_counts_rotations_without_building_them(self):
        # The 10-variable, 48-monomial HUBO the layered benchmark samples.
        hubo = random_hubo(10, 48, 6, rng=2025)
        program = repro.compile(hubo.to_simulation_problem(0.5), "direct")
        program.run(backend="kernel")
        plan = program.evolution_plan()
        assert plan.num_rotations == 1250 and "1250 rotations" in plan.describe()
        assert plan._groups is None  # run, counted and described, never built
        assert len(plan.step_groups) == len(plan.visits) == 48
        assert len(plan.step_rotations) == 1250

    def test_mixed_hamiltonian_bakes_per_visit_and_sums_diagonal_runs(self, monkeypatch):
        calls = []
        bake = EvolutionPlan._bake_group

        def counting(self, *args):
            calls.append(1)
            return bake(self, *args)

        monkeypatch.setattr(EvolutionPlan, "_bake_group", counting)
        # Two diagonal fragments, one hop, one diagonal fragment: the first
        # run folds into the hop's pair op, the last one is its own op.
        problem = repro.SimulationProblem.from_labels(
            4, {"nnII": 0.4, "IZZI": 0.3, "IIsd": 0.5, "ZIIn": 0.2}, time=0.6
        )
        program = repro.compile(problem, "direct")
        plan = program.evolution_plan()
        assert plan._lowering.energy is None
        assert calls == [1]
        assert [type(op) for op in plan._baked_ops()] == [
            plan_module._PairOp, plan_module._DiagonalOp,
        ]
        psi = random_statevector(4, np.random.default_rng(9))
        np.testing.assert_allclose(
            plan.evolve(psi), circuit_reference(program, psi), atol=1e-10
        )

    def test_register_past_the_merge_cap_bakes_per_visit(self, monkeypatch):
        hubo = random_hubo(8, 16, 4, rng=17)
        problem = hubo.to_simulation_problem(0.7, steps=2, order=2)
        # Lowered first under the default cap: a cached energy vector must
        # not be served once the cap shrinks below the register width.
        assert lower_problem(problem, "direct")._lowering.energy is not None
        monkeypatch.setattr(plan_module, "_MAX_MERGED_DIAGONAL_BITS", 5)
        plan = lower_problem(problem, "direct")
        assert plan._lowering.energy is None
        ops = plan._baked_ops()
        assert len(ops) > 1
        assert all(isinstance(op, plan_module._DiagonalOp) for op in ops)
        psi = random_statevector(8, np.random.default_rng(1))
        np.testing.assert_allclose(
            plan.evolve(psi), np.exp(-1j * 0.7 * hubo.energy_vector()) * psi, atol=1e-12
        )


def hubbard_like(order_of_terms=None) -> Hamiltonian:
    """Non-commuting terms with transitions, numbers and identity parts."""
    terms = [("sdI", 0.6), ("IsZ", 0.5 + 0.2j), ("nIn", 0.4), ("ZXI", -0.3)]
    if order_of_terms is not None:
        terms = [terms[i] for i in order_of_terms]
    return Hamiltonian.from_labels(3, terms)


class TestLoweringCache:
    @pytest.fixture(autouse=True)
    def cold_cache(self):
        plan_module._LOWERING_CACHE.clear()
        yield
        plan_module._LOWERING_CACHE.clear()

    def test_new_point_reuses_the_decomposition(self, monkeypatch):
        problem = repro.SimulationProblem(hubbard_like(), 0.4, steps=1, order=1)
        for strategy in ("direct", "pauli"):
            lower_problem(problem, strategy)

        def forbidden(*args, **kwargs):
            raise AssertionError("a cached Hamiltonian was decomposed again")

        monkeypatch.setattr(Hamiltonian, "hermitian_fragments", forbidden)
        monkeypatch.setattr(Hamiltonian, "to_pauli", forbidden)
        for strategy in ("direct", "pauli"):
            for changes in ({"time": 0.9}, {"steps": 3}, {"order": 4}):
                lower_problem(replace(problem, **changes), strategy)

    def test_term_order_is_part_of_the_key(self):
        forward = hubbard_like()
        backward = hubbard_like([3, 2, 1, 0])
        assert forward.content_key() == backward.content_key()
        psi = random_statevector(3, np.random.default_rng(5))
        for strategy in ("direct", "pauli"):
            outputs = []
            for hamiltonian in (forward, backward):
                program = repro.compile(
                    repro.SimulationProblem(hamiltonian, 0.8, steps=1), strategy
                )
                out = program.evolution_plan().evolve(psi)
                np.testing.assert_allclose(
                    out, circuit_reference(program, psi), atol=1e-10
                )
                outputs.append(out)
            # A Trotter product of non-commuting fragments depends on order.
            assert not np.allclose(outputs[0], outputs[1], atol=1e-6)

    def test_add_term_reaches_the_next_lowering(self):
        hamiltonian = hubbard_like()
        problem = repro.SimulationProblem(hamiltonian, 0.5, steps=2)
        before = lower_problem(problem, "direct")
        hamiltonian.add_term(SCBTerm.from_label("XYd", 0.35))
        after = lower_problem(problem, "direct")
        assert len(after.step_groups) == len(before.step_groups) + 1
        program = repro.compile(problem, "direct")
        psi = random_statevector(3, np.random.default_rng(6))
        np.testing.assert_allclose(
            after.evolve(psi), circuit_reference(program, psi), atol=1e-10
        )

    def test_sweep_on_cache_hits_matches_circuit_and_cold_plans(self):
        hamiltonian = hubbard_like()
        rng = np.random.default_rng(7)
        batch = np.column_stack([random_statevector(3, rng) for _ in range(2)])
        points = [
            (strategy, steps, time, order)
            for strategy in ("direct", "pauli")
            for steps in (1, 2, 4)
            for time in (0.3, 1.1)
            for order in (1, 2, 4)
        ]
        warm = []
        for strategy, steps, time, order in points:
            problem = repro.SimulationProblem(hamiltonian, time, steps=steps, order=order)
            program = repro.compile(problem, strategy)
            out = program.evolution_plan().evolve(batch)
            np.testing.assert_allclose(
                out[:, 0], circuit_reference(program, batch[:, 0]), atol=1e-10
            )
            warm.append(out)
        assert len(plan_module._LOWERING_CACHE) == 2  # one entry per strategy
        for (strategy, steps, time, order), out in zip(points, warm):
            plan_module._LOWERING_CACHE.clear()
            problem = repro.SimulationProblem(hamiltonian, time, steps=steps, order=order)
            assert np.array_equal(lower_problem(problem, strategy).evolve(batch), out)

    def test_concurrent_lowering_never_raises_and_holds_the_cap(self, monkeypatch):
        # The daemon lowers from several worker threads at once.
        monkeypatch.setattr(plan_module, "_LOWERING_CACHE", LRUCache(cap=2))
        problems = [
            repro.SimulationProblem(hubbard_like(order), 0.6, steps=2, order=2)
            for order in ([0, 1, 2, 3], [3, 2, 1, 0], [1, 0, 3, 2])
        ]
        psi = random_statevector(3, np.random.default_rng(8))
        expected = {
            (index, strategy): lower_problem(problem, strategy).evolve(psi)
            for index, problem in enumerate(problems)
            for strategy in ("direct", "pauli")
        }
        sizes: list = []

        def lower(rng) -> None:
            index = rng.randrange(len(problems))
            strategy = rng.choice(("direct", "pauli"))
            out = lower_problem(problems[index], strategy).evolve(psi)
            sizes.append(len(plan_module._LOWERING_CACHE))
            assert np.array_equal(out, expected[index, strategy])

        def watch() -> None:
            sizes.append(len(plan_module._LOWERING_CACHE))

        hammer(lower, seconds=2.0, threads=4, watch=watch)
        assert sizes and max(sizes) <= 2
