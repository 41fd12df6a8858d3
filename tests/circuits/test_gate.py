"""Unit tests for Gate / ControlledGate / Instruction objects."""

import numpy as np
import pytest

from repro.circuits.gate import ControlledGate, Instruction, StandardGate, UnitaryGate
from repro.exceptions import GateError
from repro.utils.linalg import is_unitary


class TestStandardGate:
    def test_matrix_and_width(self):
        gate = StandardGate("cx")
        assert gate.num_qubits == 2
        assert gate.matrix().shape == (4, 4)

    def test_invalid_params(self):
        with pytest.raises(GateError):
            StandardGate("rx")

    def test_inverse_of_rotation(self):
        gate = StandardGate("rz", (0.7,))
        np.testing.assert_allclose(
            gate.inverse().matrix() @ gate.matrix(), np.eye(2), atol=1e-12
        )

    def test_inverse_of_s_is_sdg(self):
        assert StandardGate("s").inverse().name == "sdg"

    def test_inverse_of_u(self):
        gate = StandardGate("u", (0.5, 0.2, -0.9))
        np.testing.assert_allclose(
            gate.inverse().matrix() @ gate.matrix(), np.eye(2), atol=1e-12
        )

    def test_inverse_of_rxy(self):
        gate = StandardGate("rxy", (0.3, -0.8))
        np.testing.assert_allclose(
            gate.inverse().matrix() @ gate.matrix(), np.eye(2), atol=1e-12
        )

    def test_inverse_of_iswap_falls_back_to_unitary(self):
        gate = StandardGate("iswap")
        np.testing.assert_allclose(
            gate.inverse().matrix() @ gate.matrix(), np.eye(4), atol=1e-12
        )

    def test_is_rotation(self):
        assert StandardGate("rx", (0.2,)).is_rotation()
        assert not StandardGate("h").is_rotation()

    def test_equality_and_hash(self):
        assert StandardGate("rz", (0.5,)) == StandardGate("rz", (0.5,))
        assert hash(StandardGate("x")) == hash(StandardGate("x"))

    def test_hash_agrees_with_tolerant_equality(self):
        # Equality compares parameters with np.allclose, so gates it calls
        # equal must hash equal, or sets and dicts disagree with ==.
        a, b = StandardGate("rz", (0.1,)), StandardGate("rz", (0.1 + 1e-12,))
        assert a == b
        assert hash(a) == hash(b)
        assert b in {a}
        assert {a: "rz"}[b] == "rz"

    def test_validation_raises_the_registry_errors(self):
        with pytest.raises(GateError, match="unknown standard gate 'nope'"):
            StandardGate("nope")
        with pytest.raises(GateError, match=r"gate 'rz' expects 1 parameter\(s\), got 0"):
            StandardGate("rz")
        with pytest.raises(GateError, match=r"gate 'x' expects 0 parameter\(s\), got 1"):
            StandardGate("x", (0.3,))
        with pytest.raises(GateError, match=r"gate 'u' expects 3 parameter\(s\), got 2"):
            StandardGate("u", (0.1, 0.2))

    def test_construction_builds_no_matrix(self, monkeypatch):
        import repro.circuits.gate as gate_module

        def fail(*args):
            raise AssertionError("StandardGate() built a matrix")

        monkeypatch.setattr(gate_module, "standard_gate_matrix", fail)
        gate = StandardGate("rz", (0.4,))
        assert gate.num_qubits == 1 and gate.inverse().params == (-0.4,)


class TestUnitaryGate:
    def test_rejects_non_unitary(self):
        with pytest.raises(GateError):
            UnitaryGate(np.array([[1, 1], [0, 1]]))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(GateError):
            UnitaryGate(np.eye(3))

    def test_rejects_rectangular(self):
        with pytest.raises(GateError):
            UnitaryGate(np.ones((2, 4)))

    def test_inverse(self, random_unitary_2x2):
        gate = UnitaryGate(random_unitary_2x2)
        np.testing.assert_allclose(
            gate.inverse().matrix() @ gate.matrix(), np.eye(2), atol=1e-12
        )


class TestControlledGate:
    def test_default_ctrl_state_all_ones(self):
        gate = ControlledGate(StandardGate("x"), 2)
        assert gate.ctrl_state == 3
        matrix = gate.matrix()
        assert matrix[6, 7] == 1 and matrix[7, 6] == 1

    def test_ctrl_state_as_string(self):
        gate = ControlledGate(StandardGate("x"), 2, "01")
        assert gate.ctrl_state == 1
        matrix = gate.matrix()
        # control block |01> occupies rows/cols 2..3
        assert matrix[2, 3] == 1 and matrix[3, 2] == 1

    def test_ctrl_state_out_of_range(self):
        with pytest.raises(GateError):
            ControlledGate(StandardGate("x"), 1, 2)

    def test_invalid_ctrl_state_string(self):
        with pytest.raises(GateError):
            ControlledGate(StandardGate("x"), 2, "21")

    def test_zero_controls_rejected(self):
        with pytest.raises(GateError):
            ControlledGate(StandardGate("x"), 0)

    def test_matrix_is_unitary(self, random_unitary_2x2):
        gate = ControlledGate(UnitaryGate(random_unitary_2x2), 2, 1)
        assert is_unitary(gate.matrix())

    def test_inverse(self):
        gate = ControlledGate(StandardGate("rx", (0.8,)), 2, 2)
        np.testing.assert_allclose(
            gate.inverse().matrix() @ gate.matrix(), np.eye(8), atol=1e-12
        )

    def test_ctrl_bits(self):
        gate = ControlledGate(StandardGate("z"), 3, 0b101)
        assert gate.ctrl_bits == (1, 0, 1)

    def test_is_rotation_propagates(self):
        assert ControlledGate(StandardGate("p", (0.1,)), 1).is_rotation()


class TestInstruction:
    def test_wrong_qubit_count(self):
        with pytest.raises(GateError):
            Instruction(StandardGate("cx"), (0,))

    def test_duplicate_qubits(self):
        with pytest.raises(GateError):
            Instruction(StandardGate("cx"), (1, 1))

    def test_inverse(self):
        instr = Instruction(StandardGate("s"), (2,))
        assert instr.inverse().gate.name == "sdg"
        assert instr.inverse().qubits == (2,)
