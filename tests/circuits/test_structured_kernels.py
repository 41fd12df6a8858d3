"""Property tests of the structured gate kernels.

Every circuit-running engine applies a gate by its structure: permutations
gather through an index table, diagonal gates multiply, controlled gates act
on their control slice, and everything else contracts with
:func:`apply_matrix`.  Random circuits mixing every structured kind with
dense gates must give what the dense references give — ``circuit_unitary``
and per-gate :func:`apply_matrix` — to 1e-12 in complex128 (a tolerance set
from the dtype in complex64), and must never write the caller's array.
"""

from __future__ import annotations

import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuits import (
    ControlledGate,
    DensityMatrix,
    MatrixGate,
    QuantumCircuit,
    StandardGate,
    Statevector,
    apply_matrix,
    circuit_unitary,
    evolve_statevectors,
)
from repro.circuits import statevector as statevector_module
from repro.circuits.standard_gates import DIAGONAL_GATES, STANDARD_GATES
from repro.circuits.statevector import _evolve_tensor, _IndexTables
from repro.noise import NoiseModel
from repro.noise.channels import amplitude_damping_channel

ATOL = 1e-12
#: complex64 rounds each gate at float32 precision (eps ~1.2e-7); a circuit
#: of a few dozen gates stays well inside this.
ATOL_C64 = 1e-5

PERMUTATIONS = ("x", "cx", "ccx", "swap")
CONTROLLED_BASES = ("x", "z", "p", "rz", "rx", "h")
DENSE = ("h", "u", "matrix")

angles = st.floats(-np.pi, np.pi, allow_nan=False)


def _standard(draw, name: str) -> StandardGate:
    num_params = STANDARD_GATES[name][1]
    return StandardGate(name, [draw(angles) for _ in range(num_params)])


def _random_unitary(seed: int, num_qubits: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dim = 1 << num_qubits
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _controlled(draw, base_name: str):
    gate = _standard(draw, base_name)
    for _ in range(draw(st.integers(1, 2))):  # a second level nests the controls
        num_ctrl = draw(st.integers(1, 4 - (gate.num_qubits - 1)))
        gate = ControlledGate(gate, num_ctrl, draw(st.integers(0, (1 << num_ctrl) - 1)))
        if gate.num_qubits >= 4 or not draw(st.booleans()):
            break
    return gate


@st.composite
def structured_circuits(draw, max_qubits: int = 6):
    num_qubits = draw(st.integers(1, max_qubits))
    circuit = QuantumCircuit(num_qubits)
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(("diagonal", "permutation", "controlled", "dense")))
        if kind == "diagonal":
            gate = _standard(draw, draw(st.sampled_from(sorted(DIAGONAL_GATES))))
        elif kind == "permutation":
            gate = _standard(draw, draw(st.sampled_from(PERMUTATIONS)))
        elif kind == "controlled":
            gate = _controlled(draw, draw(st.sampled_from(CONTROLLED_BASES)))
        else:
            name = draw(st.sampled_from(DENSE))
            if name == "matrix":
                width = draw(st.integers(1, 2))
                gate = MatrixGate(_random_unitary(draw(st.integers(0, 2**16)), width))
            else:
                gate = _standard(draw, name)
        if gate.num_qubits > num_qubits:
            continue
        qubits = draw(st.permutations(range(num_qubits)))[: gate.num_qubits]
        circuit.append(gate, qubits)
    return circuit


def _random_state(seed: int, dim: int, *batch: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    state = rng.normal(size=(dim, *batch)) + 1j * rng.normal(size=(dim, *batch))
    return state / np.linalg.norm(state, axis=0)


def _dense_noisy_reference(rho: np.ndarray, circuit: QuantumCircuit, noise: NoiseModel):
    """The pre-dispatch density-matrix loop: two apply_matrix per gate."""
    state = DensityMatrix(rho)
    for instr in circuit:
        state = state.evolve_matrix(instr.gate.matrix(), instr.qubits)
        for channel, targets in noise.channels_for(instr.name, instr.qubits):
            state = state.apply_channel(channel, targets)
    return state.data


class TestKernelsMatchTheDenseReference:
    @given(circuit=structured_circuits(), seed=st.integers(0, 2**16))
    def test_statevector_evolve(self, circuit, seed):
        psi = _random_state(seed, 1 << circuit.num_qubits)
        state = Statevector(psi)
        out = state.evolve(circuit)
        np.testing.assert_allclose(out.data, circuit_unitary(circuit) @ psi, atol=ATOL, rtol=0)
        np.testing.assert_array_equal(state.data, psi)

    @given(circuit=structured_circuits(), seed=st.integers(0, 2**16))
    def test_evolve_statevectors_batch(self, circuit, seed):
        states = _random_state(seed, 1 << circuit.num_qubits, 3)
        before = states.copy()
        out = evolve_statevectors(circuit, states)
        np.testing.assert_allclose(out, circuit_unitary(circuit) @ states, atol=ATOL, rtol=0)
        np.testing.assert_array_equal(states, before)

    @given(circuit=structured_circuits(max_qubits=5), seed=st.integers(0, 2**16))
    def test_density_matrix_evolve(self, circuit, seed):
        psi = _random_state(seed, 1 << circuit.num_qubits)
        rho = np.outer(psi, psi.conj())
        state = DensityMatrix(rho)
        unitary = circuit_unitary(circuit)
        out = state.evolve(circuit)
        np.testing.assert_allclose(out.data, unitary @ rho @ unitary.conj().T, atol=ATOL, rtol=0)
        np.testing.assert_array_equal(state.data, rho)

    @given(circuit=structured_circuits(max_qubits=4), seed=st.integers(0, 2**16))
    def test_noisy_density_matrix_evolve(self, circuit, seed):
        noise = NoiseModel.uniform_depolarizing(0.02, 0.05)
        noise.add_gate_error(amplitude_damping_channel(0.1), ["x", "mcx", "c1-x"])
        psi = _random_state(seed, 1 << circuit.num_qubits)
        rho = np.outer(psi, psi.conj())
        state = DensityMatrix(rho)
        out = state.evolve(circuit, noise_model=noise)
        np.testing.assert_allclose(
            out.data, _dense_noisy_reference(rho, circuit, noise), atol=ATOL, rtol=0
        )
        np.testing.assert_array_equal(state.data, rho)

    @pytest.mark.parametrize("dtype, atol", [(np.complex128, ATOL), (np.complex64, ATOL_C64)])
    @given(circuit=structured_circuits(), seed=st.integers(0, 2**16), batch=st.integers(0, 2))
    def test_dispatcher_keeps_the_dtype_and_batch_axes(self, dtype, atol, circuit, seed, batch):
        # The public engines hold complex128 states; the dispatcher itself
        # keeps any complex dtype and any trailing batch axes, as
        # apply_matrix does.
        n = circuit.num_qubits
        batch_axes = (3,) * batch
        tensor = _random_state(seed, 1 << n, *batch_axes).astype(dtype)
        tensor = tensor.reshape((2,) * n + batch_axes)
        dense = tensor
        for instr in circuit:
            dense = apply_matrix(dense, instr.gate.matrix(), instr.qubits)
        structured = _evolve_tensor(tensor.copy(), circuit, n)
        assert structured.dtype == dtype and structured.shape == tensor.shape
        np.testing.assert_allclose(structured, dense, atol=atol, rtol=0)


class TestDispatch:
    @pytest.mark.parametrize(
        "gate, qubits, kind",
        [
            (StandardGate("x"), (1,), "gather"),
            (StandardGate("cx"), (2, 0), "gather"),
            (StandardGate("ccx"), (0, 1, 2), "gather"),
            (StandardGate("swap"), (2, 0), "gather"),
            (ControlledGate(StandardGate("x"), 2, 1), (0, 2, 1), "gather"),
            (ControlledGate(ControlledGate(StandardGate("x"), 1, 0), 1), (0, 2, 1), "gather"),
            (StandardGate("rz", (0.3,)), (1,), "diagonal"),
            (StandardGate("ccp", (0.3,)), (2, 0, 1), "diagonal"),
            (ControlledGate(StandardGate("p", (0.3,)), 2), (0, 2, 1), "diagonal"),
            (ControlledGate(StandardGate("h"), 1, 0), (0, 1), "dense"),
            (StandardGate("h"), (0,), "dense"),
            (MatrixGate(np.eye(4)), (0, 2), "dense"),
        ],
    )
    def test_each_gate_type_picks_its_path(self, gate, qubits, kind):
        op = statevector_module._lower_gate(gate, qubits, 3)
        assert op.kind == getattr(statevector_module, f"_{kind.upper()}")
        if isinstance(gate, ControlledGate):
            assert len(op.controls) == (0 if kind == "gather" else gate.num_ctrl)

    def test_ctrl_state_and_nesting_reach_the_structured_paths(self):
        circuit = QuantumCircuit(4)
        circuit.mcx([0, 2], 3, ctrl_state="01")
        circuit.append(ControlledGate(ControlledGate(StandardGate("x"), 1, 0), 2, 2), (1, 3, 0, 2))
        circuit.append(ControlledGate(StandardGate("p", (0.4,)), 3, 5), (3, 0, 2, 1))
        circuit.append(ControlledGate(StandardGate("cx"), 1, 0), (2, 1, 3))
        circuit.append(ControlledGate(StandardGate("gphase", (0.3,)), 2, 1), (1, 0, 2))
        circuit.append(StandardGate("cswap"), (3, 0, 2))
        circuit.append(ControlledGate(StandardGate("h"), 1, 0), (1, 3))
        psi = _random_state(5, 16)
        np.testing.assert_allclose(
            Statevector(psi).evolve(circuit).data, circuit_unitary(circuit) @ psi,
            atol=ATOL, rtol=0,
        )

    def test_tables_are_read_only(self):
        state = Statevector(_random_state(1, 8))
        circuit = QuantumCircuit(3)
        circuit.cx(0, 2)
        state.evolve(circuit)
        table = statevector_module._TABLES.get((3, (0, 2), "x", 1))
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1


class TestIndexTableCache:
    def test_a_wide_register_keeps_the_cache_under_its_cap(self, monkeypatch):
        cap = 1 << 20  # 1 MiB: four 15-qubit tables (256 KiB each)
        tables = _IndexTables(cap)
        monkeypatch.setattr(statevector_module, "_TABLES", tables)
        n = 15
        tensor = _random_state(3, 1 << n).reshape((2,) * n)
        pairs = [(q, (q + 5) % n) for q in range(8)]
        for control, target in pairs:
            circuit = QuantumCircuit(n)
            circuit.cx(control, target)
            structured = _evolve_tensor(tensor.copy(), circuit, n)
            dense = apply_matrix(tensor, StandardGate("cx").matrix(), (control, target))
            np.testing.assert_array_equal(structured, dense)  # a gather is exact
            assert tables.nbytes <= cap
            tensor = structured
        assert tables.nbytes == sum(t.nbytes for t in tables._tables.values()) == cap
        # The most recent tables survive; the oldest were evicted.
        assert list(tables._tables) == [(n, pair, "x", 1) for pair in pairs[-4:]]

    def test_a_table_larger_than_the_cap_is_used_but_not_stored(self, monkeypatch):
        tables = _IndexTables(1 << 10)  # smaller than one 8-qubit table
        monkeypatch.setattr(statevector_module, "_TABLES", tables)
        circuit = QuantumCircuit(8)
        circuit.x(3)
        circuit.swap(1, 6)
        psi = _random_state(4, 256)
        np.testing.assert_array_equal(
            Statevector(psi).evolve(circuit).data, circuit_unitary(circuit) @ psi
        )
        assert tables.nbytes == 0 and not tables._tables

    def test_shared_by_threads_under_a_tiny_switch_interval(self):
        tables = _IndexTables(5 * 8 * 64)  # five 6-qubit tables
        keys = [(6, (c, t), "x", 1) for c in range(6) for t in range(6) if c != t]
        expected = {key: statevector_module._permutation_table(*key) for key in keys}
        errors: list = []
        deadline = time.monotonic() + 1.0

        def get_until_deadline(seed: int) -> None:
            pick = np.random.default_rng(seed)
            try:
                while time.monotonic() < deadline:
                    key = keys[int(pick.integers(len(keys)))]
                    np.testing.assert_array_equal(tables.get(key), expected[key])
                    assert tables.nbytes <= tables.cap_bytes
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=get_until_deadline, args=(seed,))
            for seed in range(2 * (os.cpu_count() or 1) + 2)
        ]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        # A lost update of the byte count would break this equality.
        assert tables.nbytes == sum(t.nbytes for t in tables._tables.values())
        assert len(tables._tables) <= 5

    def test_hits_move_to_the_back(self, monkeypatch):
        tables = _IndexTables(3 * 8 * 16)  # three 4-qubit tables
        monkeypatch.setattr(statevector_module, "_TABLES", tables)
        keys = [(4, (q,), "x", 0) for q in range(4)]
        for key in keys[:3]:
            tables.get(key)
        tables.get(keys[0])  # hit: now the most recent
        tables.get(keys[3])  # evicts keys[1], the least recent
        assert list(tables._tables) == [keys[2], keys[0], keys[3]]
