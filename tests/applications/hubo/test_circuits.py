"""Unit tests for the HUBO phase separators and Table III gate counts."""

import numpy as np
import pytest
from scipy.linalg import expm

from repro.applications.hubo import (
    HUBOProblem,
    phase_separator,
    phase_separator_gate_summary,
    phase_separator_two_qubit_count,
    qaoa_circuit,
    random_hubo,
    table3_gate_counts,
)
from repro.circuits import circuit_unitary
from repro.exceptions import ProblemError
from repro.utils.linalg import phase_aligned_distance


class TestPhaseSeparators:
    @pytest.mark.parametrize("formalism", ["boolean", "spin"])
    @pytest.mark.parametrize("strategy", ["direct", "usual"])
    def test_exactness_every_combination(self, formalism, strategy):
        problem = random_hubo(5, 7, 3, rng=9, formalism=formalism)
        gamma = 0.63
        circuit = phase_separator(problem, gamma, strategy=strategy)
        exact = expm(-1j * gamma * problem.to_hamiltonian().matrix())
        assert phase_aligned_distance(circuit_unitary(circuit), exact) < 1e-8

    def test_direct_and_usual_agree(self):
        problem = random_hubo(4, 6, 4, rng=5)
        direct = circuit_unitary(phase_separator(problem, 0.4, strategy="direct"))
        usual = circuit_unitary(phase_separator(problem, 0.4, strategy="usual"))
        assert phase_aligned_distance(direct, usual) < 1e-8

    def test_unknown_strategy(self):
        with pytest.raises(ProblemError):
            phase_separator(random_hubo(3, 3, 2, rng=0), 0.1, strategy="magic")

    def test_direct_native_gate_counts(self):
        # One (multi-controlled) phase gate per monomial in the native formalism.
        problem = HUBOProblem(4, {(0,): 1.0, (0, 1): 1.0, (1, 2, 3): 1.0}, formalism="boolean")
        circuit = phase_separator(problem, 0.3, strategy="direct")
        counts = circuit.count_ops()
        assert counts.get("p", 0) == 1
        assert counts.get("mcp", 0) + counts.get("cp", 0) == 2

    def test_usual_native_gate_counts(self):
        problem = HUBOProblem(4, {(0, 1): 1.0, (1, 2, 3): 1.0}, formalism="spin")
        circuit = phase_separator(problem, 0.3, strategy="usual")
        counts = circuit.count_ops()
        assert counts["rz"] == 2
        assert counts["cx"] == 2 * 1 + 2 * 2

    def test_constant_term_becomes_global_phase(self):
        problem = HUBOProblem(2, {(): 2.0, (0,): 1.0}, formalism="boolean")
        circuit = phase_separator(problem, 0.5, strategy="direct")
        assert circuit.global_phase == pytest.approx(-1.0)


class TestTable3:
    def test_native_rows_single_gate(self):
        assert table3_gate_counts(1, "spin", "usual") == {"rz": 1}
        assert table3_gate_counts(2, "spin", "usual") == {"rzz": 1}
        assert table3_gate_counts(3, "spin", "usual") == {"rzzz": 1}
        assert table3_gate_counts(1, "boolean", "direct") == {"p": 1}
        assert table3_gate_counts(2, "boolean", "direct") == {"cp": 1}
        assert table3_gate_counts(3, "boolean", "direct") == {"ccp": 1}

    def test_mismatched_rows_match_paper_table3(self):
        # Z-string of order 3 with the direct strategy: CCP + 3 CP + 3 P.
        assert table3_gate_counts(3, "spin", "direct") == {"p": 3, "cp": 3, "ccp": 1}
        # n-string of order 3 with the usual strategy: RZZZ + 3 RZZ + 3 RZ.
        assert table3_gate_counts(3, "boolean", "usual") == {"rz": 3, "rzz": 3, "rzzz": 1}
        # Order 2 mismatches.
        assert table3_gate_counts(2, "spin", "direct") == {"p": 2, "cp": 1}
        assert table3_gate_counts(2, "boolean", "usual") == {"rz": 2, "rzz": 1}

    def test_higher_order_generalisation(self):
        counts = table3_gate_counts(5, "boolean", "usual")
        assert counts["rz"] == 5
        assert counts["rz^5"] == 1
        assert sum(counts.values()) == 2 ** 5 - 1

    def test_invalid_inputs(self):
        with pytest.raises(ProblemError):
            table3_gate_counts(0, "spin", "usual")
        with pytest.raises(ProblemError):
            table3_gate_counts(2, "foo", "usual")
        with pytest.raises(ProblemError):
            table3_gate_counts(2, "spin", "bar")

    def test_problem_summary_aggregates(self):
        problem = HUBOProblem(4, {(0,): 1.0, (1, 2): 1.0, (0, 1, 2): 1.0}, formalism="boolean")
        summary = phase_separator_gate_summary(problem, "direct")
        assert summary == {"p": 1, "cp": 1, "ccp": 1}

    def test_two_qubit_count_model(self):
        problem = HUBOProblem(5, {(0, 1, 2, 3, 4): 1.0}, formalism="spin")
        usual = phase_separator_two_qubit_count(problem, "usual")
        direct = phase_separator_two_qubit_count(problem, "direct")
        assert usual == 2 * 4
        assert direct > usual  # low order: the usual strategy wins, as the paper says


class TestQAOACircuit:
    def test_layer_structure(self):
        problem = random_hubo(4, 5, 2, rng=0)
        circuit = qaoa_circuit(problem, [0.1, 0.2], [0.3, 0.4])
        counts = circuit.count_ops()
        assert counts["h"] == 4          # initial superposition
        assert counts["rx"] == 8         # two mixer layers

    def test_mismatched_parameter_lengths(self):
        with pytest.raises(ProblemError):
            qaoa_circuit(random_hubo(3, 3, 2, rng=1), [0.1], [0.2, 0.3])


class TestLogicalGateCounts:
    """Structured execution never changes the logical circuits it runs."""

    def test_reference_hubo_two_qubit_counts_are_pinned(self):
        # The 10-variable, 48-monomial, order-6 problem of the layered
        # benchmark's HUBO workload, at one Trotter step.
        import repro

        problem = random_hubo(10, 48, 6, rng=2025).to_simulation_problem(0.5, name="hubo")
        direct = repro.compile(problem, strategy="direct").circuit
        pauli = repro.compile(problem, strategy="pauli").circuit
        assert direct.num_two_qubit_gates() == 6
        assert pauli.num_two_qubit_gates() == 2344
        assert pauli.count_ops() == {"cx": 2344, "rz": 434}
        assert direct.size() == 48
