"""CompiledProgram behaviour: laziness, memoization, backends, comparison."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.circuits.statevector import Statevector
from repro.circuits.unitary import circuit_unitary
from repro.compile.pipeline import compare_all, compile_many, compile_problem, run_many
from repro.compile.problem import SimulationProblem
from repro.exceptions import CompileError, OptionsError
from repro.operators.hamiltonian import Hamiltonian

QUICKSTART_TERMS = {"nsdI": 0.8, "IZZI": 0.3, "IXsd": 0.5, "mnsd": 0.2}


@pytest.fixture
def problem() -> SimulationProblem:
    return SimulationProblem.from_labels(4, QUICKSTART_TERMS, time=0.2)


class TestProblem:
    def test_from_labels_one_expression(self, problem):
        assert problem.num_qubits == 4
        assert problem.num_terms == 4

    def test_validation(self):
        ham = Hamiltonian.from_labels(2, {"ZZ": 1.0})
        with pytest.raises(CompileError):
            SimulationProblem(ham, 0.1, steps=0)
        with pytest.raises(CompileError):
            SimulationProblem(ham, 0.1, order=3)
        with pytest.raises(CompileError):
            SimulationProblem("not a hamiltonian", 0.1)

    def test_with_options_validates(self, problem):
        updated = problem.with_options(basis_change="pyramid")
        assert updated.options.basis_change == "pyramid"
        with pytest.raises(OptionsError):
            problem.with_options(basis_chang="pyramid")


class TestLazinessAndMemoization:
    def test_circuit_is_lazy_then_cached(self, problem):
        program = compile_problem(problem, "direct")
        assert not program.is_built
        first = program.circuit
        assert program.is_built
        assert program.circuit is first

    def test_unitary_is_memoized(self, problem):
        program = compile_problem(problem, "direct")
        first = program.unitary()
        assert program.unitary() is first
        np.testing.assert_allclose(first, circuit_unitary(program.circuit), atol=1e-12)

    def test_resource_backend_never_builds_a_circuit(self, problem):
        program = compile_problem(problem, "direct")
        estimate = program.run(backend="resource")
        assert estimate.fragments == 4
        assert not program.is_built


class TestRunBackends:
    def test_statevector_run_matches_exact_evolution(self, problem):
        program = compile_problem(problem, "direct", steps=8, order=2)
        state = program.run(backend="statevector")
        initial = np.zeros(16, dtype=complex)
        initial[0] = 1.0
        exact = problem.hamiltonian.evolve_exact(initial, problem.time)
        fidelity = abs(np.vdot(state.data, exact))
        assert fidelity > 1 - 1e-4

    def test_statevector_accepts_state_and_index(self, problem):
        program = compile_problem(problem, "direct")
        from_index = program.run(backend="statevector", initial_state=3)
        from_state = program.run(
            backend="statevector", initial_state=Statevector(3, 4)
        )
        np.testing.assert_allclose(from_index.data, from_state.data, atol=1e-12)

    def test_unitary_backend(self, problem):
        program = compile_problem(problem, "pauli")
        np.testing.assert_allclose(
            program.run(backend="unitary"), circuit_unitary(program.circuit), atol=1e-12
        )

    def test_unknown_backend_kwargs_rejected(self, problem):
        program = compile_problem(problem, "direct")
        with pytest.raises(CompileError, match="unknown"):
            program.run(backend="unitary", shots=100)

    @pytest.mark.parametrize(
        "backend",
        ["statevector", "kernel", "sparse", "exact", "density_matrix", "sampling"],
    )
    @pytest.mark.parametrize(
        "initial_state",
        [-1, 8, np.full((4, 2), 1 / np.sqrt(8))],
        ids=["negative-index", "index-past-the-register", "2-d-array"],
    )
    def test_every_backend_refuses_the_same_bad_initial_states(
        self, backend, initial_state
    ):
        # A negative index used to wrap to |111>, 8 raised a bare IndexError
        # and a (4, 2) array was flattened into an 8-vector.
        program = compile_problem(
            SimulationProblem.from_labels(3, {"nsd": 0.4, "ZIZ": 0.3}, time=0.2),
            "direct",
        )
        with pytest.raises(CompileError):
            program.run(backend=backend, initial_state=initial_state)


class TestAgreement:
    """Acceptance: direct and pauli agree to 1e-8 on the quickstart Hamiltonian."""

    def test_direct_and_pauli_agree(self, problem):
        direct = repro.compile(problem, strategy="direct").run(backend="statevector")
        pauli = repro.compile(problem, strategy="pauli").run(backend="statevector")
        np.testing.assert_allclose(direct.data, pauli.data, atol=1e-8)

    def test_direct_and_pauli_unitaries_agree(self, problem):
        sweep = compare_all(problem)
        np.testing.assert_allclose(
            sweep["direct"].unitary(), sweep["pauli"].unitary(), atol=1e-8
        )

    def test_block_encoding_matrix_is_hamiltonian(self, problem):
        program = repro.compile(problem, strategy="block_encoding")
        np.testing.assert_allclose(
            program.matrix(), problem.hamiltonian.matrix(), atol=1e-9
        )
        assert program.metadata["scale"] == pytest.approx(
            sum(abs(complex(c)) for c in QUICKSTART_TERMS.values()) * 2
            - abs(0.3)  # the Hermitian Pauli term is not doubled
        )

    def test_mpf_beats_single_formula(self):
        problem = SimulationProblem.from_labels(
            3, {"nsd": 0.7, "Zns": 0.4}, time=0.4
        )
        from scipy.linalg import expm

        from repro.utils.linalg import spectral_norm_diff

        exact = expm(-1j * problem.time * problem.hamiltonian.matrix())
        mpf = repro.compile(problem, strategy="mpf", mpf_steps=(1, 2))
        single = repro.compile(problem, strategy="direct", order=2)
        err_mpf = spectral_norm_diff(mpf.matrix(), exact)
        err_single = spectral_norm_diff(single.matrix(), exact)
        assert err_mpf < err_single


class TestCompareAll:
    def test_gap_matches_analysis_compare_strategies(self, problem):
        from repro.analysis.comparison import compare_strategies

        legacy = compare_strategies(problem.hamiltonian, problem.time, compute_error=False)
        sweep = compare_all(problem)
        legacy_gap = (
            legacy.direct_report.two_qubit_gates - legacy.pauli_report.two_qubit_gates
        )
        assert sweep.gate_count_gap() == legacy_gap
        reports = sweep.reports()
        assert reports["direct"].two_qubit_gates == legacy.direct_report.two_qubit_gates
        assert reports["pauli"].two_qubit_gates == legacy.pauli_report.two_qubit_gates

    def test_program_compare(self, problem):
        sweep = compare_all(problem)
        comparison = sweep["direct"].compare(sweep["pauli"])
        assert comparison.operator_distance < 1e-8
        assert comparison.two_qubit_gap == sweep.gate_count_gap()
        assert "direct" in comparison.summary()


class TestBatchHelpers:
    def test_compile_many_run_many(self):
        problems = [
            SimulationProblem.from_labels(2, {"ns": 0.5}, time=t) for t in (0.1, 0.2, 0.3)
        ]
        programs = compile_many(problems, "direct")
        assert len(programs) == 3
        states = run_many(programs, backend="statevector")
        norms = [s.norm() for s in states]
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_bare_hamiltonian_needs_time(self):
        ham = Hamiltonian.from_labels(2, {"ZZ": 1.0})
        with pytest.raises(CompileError, match="time"):
            compile_problem(ham, "direct")
        program = compile_problem(ham, "direct", time=0.3)
        assert program.problem.time == 0.3

    def test_time_override_on_existing_problem(self, problem):
        program = compile_problem(problem, "direct", time=0.7)
        assert program.problem.time == 0.7
        assert problem.time == 0.2  # original untouched


class TestGuards:
    def test_block_encoding_compiles_lazily(self, problem):
        program = compile_problem(problem, "block_encoding")
        assert not program.is_built
        program.run(backend="resource")
        assert not program.is_built
        np.testing.assert_allclose(
            program.matrix(), problem.hamiltonian.matrix(), atol=1e-9
        )
        assert program.metadata["scale"] > 0

    def test_cached_unitary_still_respects_max_qubits(self, problem):
        from repro.exceptions import SimulationError

        program = compile_problem(problem, "direct")
        program.unitary()
        with pytest.raises(SimulationError, match="limit 2"):
            program.unitary(max_qubits=2)

    def test_unitary_limit_flows_from_options(self, problem):
        from repro.exceptions import SimulationError

        program = compile_problem(problem, "direct", unitary_max_qubits=2)
        with pytest.raises(SimulationError, match="limit 2"):
            program.unitary()
        # An explicit argument still overrides the option.
        assert program.unitary(max_qubits=4).shape == (16, 16)


class TestExecutionFastPath:
    def test_execution_circuit_is_the_logical_circuit_at_level_0(self, problem):
        program = compile_problem(problem, "direct")
        assert program.execution_circuit is program.circuit

    def test_fusion_is_cached_and_does_not_change_reports(self, problem):
        plain = compile_problem(problem, "direct")
        fused = compile_problem(problem, "direct", optimize_level=1)
        assert fused.execution_circuit is fused.execution_circuit
        assert fused.execution_circuit.size() < plain.circuit.size()
        # Resource reports keep reading the logical circuit.
        assert (
            fused.resources().two_qubit_gates == plain.resources().two_qubit_gates
        )
        np.testing.assert_allclose(fused.unitary(), plain.unitary(), atol=1e-12)

    def test_sparse_operators_cached(self, problem):
        program = compile_problem(problem, "direct")
        ops = program.sparse_operators()
        assert program.sparse_operators() is ops
        assert len(ops) == program.execution_circuit.size()

    def test_sparse_backend_matches_statevector(self, problem):
        program = compile_problem(problem, "direct", steps=2)
        dense = program.run(backend="statevector")
        sparse = program.run(backend="sparse")
        np.testing.assert_allclose(dense.data, sparse.data, atol=1e-12)


class TestCallableModule:
    def test_repro_compile_is_callable_and_a_package(self, problem):
        import repro.compile as rc

        program = repro.compile(problem, strategy="direct")
        assert isinstance(program, rc.CompiledProgram)
        assert rc.compile_problem is not None
        assert repro.compile.available_strategies() == rc.available_strategies()

    def test_unknown_option_through_facade(self, problem):
        with pytest.raises(OptionsError):
            repro.compile(problem, strategy="direct", basis_chnge="pyramid")
