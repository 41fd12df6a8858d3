"""Pre-pipeline builders: they live in repro.core and match the pipeline."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.circuits.unitary import circuit_unitary
from repro.compile.pipeline import compile_problem
from repro.compile.problem import SimulationProblem
from repro.core import direct_hamiltonian_simulation, pauli_hamiltonian_simulation
from repro.operators.hamiltonian import Hamiltonian
from repro.operators.scb_term import SCBTerm


@pytest.fixture
def hamiltonian() -> Hamiltonian:
    return Hamiltonian.from_labels(3, {"nsd": 0.8, "ZZI": 0.3})


class TestTopLevelAliasesRemoved:
    def test_old_top_level_names_are_gone(self):
        for name in (
            "evolve_term",
            "evolve_fragment",
            "direct_hamiltonian_simulation",
            "pauli_hamiltonian_simulation",
            "hamiltonian_block_encoding",
            "fragment_block_encoding",
            "term_lcu_decomposition",
        ):
            assert not hasattr(repro, name), name
            assert name not in repro.__all__, name

    def test_core_imports_do_not_warn(self, hamiltonian, recwarn):
        direct_hamiltonian_simulation(hamiltonian, 0.2)
        deprecations = [w for w in recwarn if w.category is DeprecationWarning]
        assert not deprecations


class TestShimEquivalenceWithPipeline:
    """The old builders and the pipeline emit the very same circuits."""

    def test_direct_matches_pipeline(self, hamiltonian):
        problem = SimulationProblem(hamiltonian, 0.2, steps=2, order=2)
        pipeline_circuit = compile_problem(problem, "direct").circuit
        legacy_circuit = direct_hamiltonian_simulation(hamiltonian, 0.2, steps=2, order=2)
        assert pipeline_circuit.count_ops() == legacy_circuit.count_ops()
        np.testing.assert_allclose(
            circuit_unitary(pipeline_circuit), circuit_unitary(legacy_circuit), atol=1e-12
        )

    def test_pauli_matches_pipeline(self, hamiltonian):
        problem = SimulationProblem(hamiltonian, 0.2)
        pipeline_circuit = compile_problem(problem, "pauli").circuit
        legacy_circuit = pauli_hamiltonian_simulation(
            hamiltonian.to_pauli(), 0.2, num_qubits=hamiltonian.num_qubits
        )
        assert pipeline_circuit.count_ops() == legacy_circuit.count_ops()
        np.testing.assert_allclose(
            circuit_unitary(pipeline_circuit), circuit_unitary(legacy_circuit), atol=1e-12
        )

    def test_poisson_shim_matches_pipeline(self):
        from repro.applications.pde import (
            line_grid,
            poisson_evolution_circuit,
            poisson_simulation_problem,
        )

        grid = line_grid(8)
        problem = poisson_simulation_problem(grid, 0.2, steps=2)
        via_pipeline = compile_problem(problem, "direct").circuit
        via_shim = poisson_evolution_circuit(grid, 0.2, steps=2)
        assert via_pipeline.count_ops() == via_shim.count_ops()

    def test_hubo_cost_unitary_consumes_pipeline(self):
        from repro.applications.hubo import HUBOProblem, cost_unitary

        problem = HUBOProblem(3).add_term((0, 1), 1.0).add_term((1, 2), -0.5)
        direct = cost_unitary(problem, 0.7, strategy="direct")
        usual = cost_unitary(problem, 0.7, strategy="usual")
        np.testing.assert_allclose(
            circuit_unitary(direct), circuit_unitary(usual), atol=1e-10
        )
        with pytest.raises(Exception):
            cost_unitary(problem, 0.7, strategy="quantum-leap")

    def test_hubo_cost_unitary_gate_family_tracks_strategy(self):
        """Table III: direct → multi-controlled phases, usual → RZ ladders,
        whatever formalism the problem is stated in."""
        from repro.applications.hubo import HUBOProblem, cost_unitary

        spin = HUBOProblem(3, formalism="spin").add_term((0, 1, 2), 0.7)
        direct_ops = cost_unitary(spin, 0.5, strategy="direct").count_ops()
        usual_ops = cost_unitary(spin, 0.5, strategy="usual").count_ops()
        assert "rz" not in direct_ops  # phases, not rotations
        assert any(name in direct_ops for name in ("p", "cp", "mcp", "ccp"))
        assert "rz" in usual_ops and "cx" in usual_ops


class TestConveniences:
    def test_hamiltonian_from_labels_matches_add_label(self):
        built = Hamiltonian.from_labels(3, {"nsd": 0.8, "ZZI": 0.3})
        manual = Hamiltonian(3).add_label("nsd", 0.8).add_label("ZZI", 0.3)
        assert [str(t) for t in built.terms] == [str(t) for t in manual.terms]

    def test_hamiltonian_from_labels_accepts_pairs(self):
        built = Hamiltonian.from_labels(2, [("ns", 0.5), ("ns", 0.25)])
        assert built.num_terms == 2

    def test_scb_term_repr_round_trips(self):
        term = SCBTerm.from_label("nsdI", 0.8)
        clone = eval(repr(term), {"SCBTerm": SCBTerm})
        assert clone == term
        complex_term = SCBTerm.from_label("ns", 0.5 + 0.25j)
        assert eval(repr(complex_term), {"SCBTerm": SCBTerm}) == complex_term
