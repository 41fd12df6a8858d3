"""Registry round-trips for strategies and backends."""

from __future__ import annotations

import pytest

from repro.compile.backends import BACKENDS, available_backends, get_backend
from repro.compile.problem import SimulationProblem
from repro.compile.registry import Registry
from repro.compile.strategies import (
    STRATEGIES,
    Strategy,
    available_strategies,
    get_strategy,
)
from repro.exceptions import CompileError
from repro.operators.hamiltonian import Hamiltonian


class TestRegistryMechanics:
    def test_register_create_roundtrip(self):
        registry = Registry("widget")

        @registry.register("thing")
        class Thing:
            pass

        assert "thing" in registry
        assert isinstance(registry.create("thing"), Thing)
        assert isinstance(registry.create("THING"), Thing)
        registry.unregister("thing")
        assert "thing" not in registry

    def test_register_and_unregister_bump_the_version(self):
        registry = Registry("widget")
        versions = [registry.version]
        registry.register("thing", object)
        versions.append(registry.version)
        registry.register("thing", dict)  # a replacement is a change too
        versions.append(registry.version)
        registry.unregister("thing")
        versions.append(registry.version)
        assert versions == sorted(set(versions))

    def test_unknown_name_lists_available(self):
        with pytest.raises(CompileError, match="available:"):
            STRATEGIES.create("nope")


class TestBuiltinRegistrations:
    def test_all_strategies_registered(self):
        assert set(available_strategies()) >= {"direct", "pauli", "block_encoding", "mpf"}

    def test_all_backends_registered(self):
        assert set(available_backends()) >= {"statevector", "unitary", "resource"}

    def test_get_strategy_by_name_and_instance(self):
        direct = get_strategy("direct")
        assert direct.name == "direct"
        assert get_strategy(direct) is direct
        assert isinstance(direct, Strategy)

    def test_get_backend_by_name_and_instance(self):
        backend = get_backend("statevector")
        assert backend.name == "statevector"
        assert get_backend(backend) is backend

    def test_get_strategy_rejects_non_strategy(self):
        with pytest.raises(CompileError):
            get_strategy(3.14)


class TestCustomPlugin:
    def test_custom_strategy_plugs_into_pipeline(self):
        from repro.circuits.circuit import QuantumCircuit
        from repro.compile.pipeline import compile_problem
        from repro.compile.strategies import ResourceEstimate

        @STRATEGIES.register("identity-test")
        class IdentityStrategy:
            name = "identity-test"
            kind = "evolution"

            def build(self, problem):
                return QuantumCircuit(problem.num_qubits, "identity")

            def estimate_resources(self, problem):
                return ResourceEstimate(
                    strategy=self.name,
                    fragments=0,
                    rotations=0,
                    two_qubit_gates=0,
                    formula_passes=1,
                )

        try:
            problem = SimulationProblem(Hamiltonian.from_labels(2, {"ZI": 0.5}), 0.1)
            program = compile_problem(problem, "identity-test")
            assert program.circuit.size() == 0
            assert program.run(backend="resource").fragments == 0
        finally:
            STRATEGIES.unregister("identity-test")
