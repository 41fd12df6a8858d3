"""Unit tests for the QuantumCircuit container."""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit, Statevector, circuit_unitary, circuits_equivalent
from repro.circuits.gate import ControlledGate, StandardGate, UnitaryGate
from repro.circuits.standard_gates import STANDARD_GATES
from repro.exceptions import CircuitError


def _src_path() -> str:
    import repro

    return os.path.dirname(os.path.dirname(repro.__file__))


class TestConstruction:
    def test_negative_width(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(-1)

    def test_append_out_of_range(self):
        qc = QuantumCircuit(2)
        with pytest.raises(Exception):
            qc.x(3)

    def test_convenience_methods_chain(self):
        qc = QuantumCircuit(3)
        qc.h(0).cx(0, 1).rz(0.3, 2).ccx(0, 1, 2)
        assert qc.size() == 4

    def test_copy_is_independent(self):
        qc = QuantumCircuit(2)
        qc.x(0)
        copy = qc.copy()
        copy.x(1)
        assert qc.size() == 1 and copy.size() == 2

    def test_global_phase_copied(self):
        qc = QuantumCircuit(1)
        qc.global_phase = 0.4
        assert qc.copy().global_phase == pytest.approx(0.4)


class TestCompose:
    def test_compose_same_width(self):
        a = QuantumCircuit(2)
        a.h(0)
        b = QuantumCircuit(2)
        b.cx(0, 1)
        a.compose(b)
        assert [i.name for i in a] == ["h", "cx"]

    def test_compose_with_mapping(self):
        a = QuantumCircuit(3)
        b = QuantumCircuit(2)
        b.cx(0, 1)
        a.compose(b, qubits=[2, 0])
        assert a.instructions[0].qubits == (2, 0)

    def test_compose_too_wide(self):
        a = QuantumCircuit(1)
        b = QuantumCircuit(2)
        with pytest.raises(CircuitError):
            a.compose(b)

    def test_compose_wrong_map_length(self):
        a = QuantumCircuit(3)
        b = QuantumCircuit(2)
        with pytest.raises(CircuitError):
            a.compose(b, qubits=[0])

    def test_compose_without_a_map_shares_the_validated_instructions(self):
        a, b = QuantumCircuit(3), QuantumCircuit(2)
        b.h(0).cx(0, 1)
        a.compose(b)
        assert a.instructions == b.instructions
        assert all(x is y for x, y in zip(a.instructions, b.instructions))

    @pytest.mark.parametrize(
        "call, qubits, phase",
        [
            ("qc.compose(qc)", [[0], [0, 1], [2], [0], [0, 1], [2]], 0.5),
            ("qc.compose(qc, qubits=[1, 2, 0])", [[0], [0, 1], [2], [1], [1, 2], [0]], 0.5),
            ("qc.extend(qc)", [[0], [0, 1], [2], [0], [0, 1], [2]], 0.25),
        ],
    )
    def test_composing_a_circuit_into_itself_appends_one_copy(self, call, qubits, phase):
        # These once appended to the list they were iterating and never
        # returned.  The call runs in a child process whose watchdog exits
        # as soon as the circuit outgrows any sane result, so a regression
        # fails fast instead of hanging and eating memory.
        script = textwrap.dedent(
            f"""
            import json, os, threading, time
            from repro.circuits import QuantumCircuit, circuit_unitary

            qc = QuantumCircuit(3)
            qc.h(0).cx(0, 1).rz(0.3, 2)
            qc.global_phase = 0.25
            before = circuit_unitary(qc)

            def watchdog():
                while len(qc._instructions) < 100:
                    time.sleep(0.001)
                os._exit(3)

            threading.Thread(target=watchdog, daemon=True).start()
            {call}
            print(json.dumps({{
                "names": [i.name for i in qc],
                "qubits": [i.qubits for i in qc],
                "phase": qc.global_phase,
                "squared": bool(abs(circuit_unitary(qc) - before @ before).max() < 1e-12),
            }}))
            """
        )
        env = {**os.environ, "PYTHONPATH": _src_path()}
        try:
            done = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True,
                timeout=30, env=env,
            )
        except subprocess.TimeoutExpired:
            pytest.fail(f"{call} did not return within 30 s")
        assert done.returncode == 0, f"{call} kept appending: {done.stderr}"
        result = json.loads(done.stdout)
        assert result["names"] == ["h", "cx", "rz"] * 2
        assert result["qubits"] == qubits
        assert result["phase"] == pytest.approx(phase)
        if call == "qc.compose(qc)":
            assert result["squared"]

    def test_compose_accumulates_global_phase(self):
        a = QuantumCircuit(1)
        a.global_phase = 0.2
        b = QuantumCircuit(1)
        b.global_phase = 0.3
        a.compose(b)
        assert a.global_phase == pytest.approx(0.5)


@st.composite
def mixed_circuits(draw):
    """Every standard gate, plain, controlled or as an explicit matrix."""
    num_qubits = draw(st.integers(1, 4))
    circuit = QuantumCircuit(num_qubits, "mixed")
    circuit.global_phase = draw(st.floats(-3.0, 3.0))
    names = sorted(name for name, spec in STANDARD_GATES.items() if spec[0] <= num_qubits)
    for _ in range(draw(st.integers(0, 12))):
        name = draw(st.sampled_from(names))
        width, num_params, _ = STANDARD_GATES[name]
        gate = StandardGate(name, [draw(st.floats(-3.0, 3.0)) for _ in range(num_params)])
        kind = draw(st.sampled_from(("standard", "controlled", "matrix")))
        if kind == "controlled" and width < num_qubits:
            gate = ControlledGate(gate, 1, draw(st.integers(0, 1)))
        elif kind == "matrix":
            gate = UnitaryGate(gate.matrix())
        circuit.append(gate, draw(st.permutations(range(num_qubits)))[: gate.num_qubits])
    return circuit


class TestInverseAndPower:
    def test_inverse_does_not_revalidate_qubits(self, monkeypatch):
        import repro.circuits.circuit as circuit_module

        qc = QuantumCircuit(3)
        qc.h(0).cx(0, 1).rz(0.3, 2).t(1)

        def no_check(*args, **kwargs):
            raise AssertionError("inverse re-validated a qubit list")

        monkeypatch.setattr(circuit_module, "check_qubit_indices", no_check)
        inverse = qc.inverse()
        assert [instr.name for instr in inverse] == ["tdg", "rz", "cx", "h"]
        assert [instr.qubits for instr in inverse] == [(1,), (2,), (0, 1), (0,)]

    @given(mixed_circuits())
    def test_inverse_equals_the_appended_reference(self, qc):
        reference = QuantumCircuit(qc.num_qubits, f"{qc.name}_dg")
        reference.global_phase = -qc.global_phase
        for instr in reversed(qc.instructions):
            reference.append(instr.gate.inverse(), instr.qubits)
        inverse = qc.inverse()
        assert inverse.name == reference.name
        assert inverse.global_phase == reference.global_phase
        assert len(inverse) == len(reference)
        for got, want in zip(inverse, reference):
            assert type(got.gate) is type(want.gate)
            assert (got.name, got.qubits) == (want.name, want.qubits)
            assert np.array_equal(got.gate.matrix(), want.gate.matrix())
        product = qc.copy().compose(inverse)
        np.testing.assert_allclose(
            circuit_unitary(product), np.eye(1 << qc.num_qubits), atol=1e-9
        )

    def test_inverse_is_inverse(self, rng):
        qc = QuantumCircuit(3)
        qc.h(0)
        qc.crx(0.7, 0, 1)
        qc.ccp(0.3, 0, 1, 2)
        qc.rz(-1.2, 2)
        product = qc.copy()
        product.compose(qc.inverse())
        np.testing.assert_allclose(circuit_unitary(product), np.eye(8), atol=1e-9)

    def test_power(self):
        qc = QuantumCircuit(1)
        qc.rz(0.2, 0)
        cubed = qc.power(3)
        assert cubed.size() == 3

    def test_negative_power_inverts(self):
        qc = QuantumCircuit(1)
        qc.rx(0.5, 0)
        inv = qc.power(-1)
        combined = qc.copy()
        combined.compose(inv)
        np.testing.assert_allclose(circuit_unitary(combined), np.eye(2), atol=1e-10)


class TestControlledCircuit:
    def test_controlled_identity_on_control_zero(self):
        qc = QuantumCircuit(1)
        qc.x(0)
        controlled = qc.controlled(1)
        state = Statevector.zero_state(2).evolve(controlled)
        np.testing.assert_allclose(state.data, [1, 0, 0, 0], atol=1e-12)

    def test_controlled_acts_on_control_one(self):
        qc = QuantumCircuit(1)
        qc.x(0)
        controlled = qc.controlled(1)
        state = Statevector(0b10, 2).evolve(controlled)
        np.testing.assert_allclose(np.abs(state.data), [0, 0, 0, 1], atol=1e-12)

    def test_controlled_includes_global_phase(self):
        qc = QuantumCircuit(1)
        qc.global_phase = 0.9
        controlled = qc.controlled(1)
        unitary = circuit_unitary(controlled)
        assert np.angle(unitary[2, 2]) == pytest.approx(0.9)
        assert unitary[0, 0] == pytest.approx(1.0)


class TestMetrics:
    def test_depth_parallel_gates(self):
        qc = QuantumCircuit(4)
        qc.h(0)
        qc.h(1)
        qc.h(2)
        assert qc.depth() == 1

    def test_depth_sequential(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1)
        qc.cx(0, 1)
        assert qc.depth() == 2

    def test_two_qubit_depth_ignores_singles(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.h(0)
        qc.cx(0, 1)
        assert qc.two_qubit_depth() == 1

    def test_count_ops(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.h(1)
        qc.cx(0, 1)
        assert qc.count_ops() == {"h": 2, "cx": 1}

    def test_num_two_qubit_gates(self):
        qc = QuantumCircuit(3)
        qc.cx(0, 1)
        qc.ccx(0, 1, 2)
        qc.x(0)
        assert qc.num_two_qubit_gates() == 1
        assert qc.num_multi_qubit_gates() == 1

    def test_num_rotation_gates(self):
        qc = QuantumCircuit(2)
        qc.rx(0.1, 0)
        qc.cp(0.2, 0, 1)
        qc.h(1)
        assert qc.num_rotation_gates() == 2

    def test_qubits_used(self):
        qc = QuantumCircuit(5)
        qc.cx(3, 1)
        assert qc.qubits_used() == (1, 3)

    def test_draw_contains_gates(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        text = qc.draw()
        assert "h" in text


class TestMultiControlledAppenders:
    def test_mcx_matrix(self):
        qc = QuantumCircuit(3)
        qc.mcx([0, 1], 2, 0b10)
        unitary = circuit_unitary(qc)
        # control state |10>: block rows 4..5 swapped
        assert unitary[4, 5] == 1 and unitary[5, 4] == 1
        assert unitary[6, 6] == 1

    def test_mc_unitary(self, random_unitary_2x2):
        qc = QuantumCircuit(2)
        qc.mc_unitary(random_unitary_2x2, [0], [1])
        ref = QuantumCircuit(2)
        ref.unitary(np.kron(np.diag([1, 0]), np.eye(2)) + np.kron(np.diag([0, 1]), random_unitary_2x2), [0, 1])
        assert circuits_equivalent(qc, ref)
