"""Sparse (CSR) gate application for statevector runs past the dense limit.

The dense reference kernel of :mod:`repro.circuits.statevector`
(:func:`~repro.circuits.statevector.apply_matrix`) touches every amplitude
with a ``2^k``-wide tensordot per gate.  Most gates of the circuits this
library builds are far sparser than a generic ``2^k × 2^k`` matrix: ``cx``,
``cz``, ``cp``, ``rz`` and every multi-controlled gate have at most one
nonzero per row, so embedding them as a scipy CSR operator on the *full*
``2^n``-dimensional space costs ``O(2^n)`` memory and one ``O(nnz)`` matvec —
independent of how many qubits the gate spans.  That is what lets the
``"sparse"`` execution backend push statevector simulation past 20 qubits
where the per-gate dense embedding used for unitary extraction stops at ~14.

The embedding is built fully vectorized: for a gate ``g`` on qubits ``Q`` the
full-space operator has entries ``A[r|i, r|j] = g[i, j]`` where ``i``/``j``
run over the gate's local indices scattered into the bit positions of ``Q``
and ``r`` over all assignments of the remaining ``n-k`` bits.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import scipy.sparse as sp

from repro.circuits.circuit import QuantumCircuit
from repro.exceptions import SimulationError

#: Refuse to build full-space operators beyond this register width: the state
#: alone is 2^26 complex amplitudes = 1 GiB at complex128.
MAX_SPARSE_QUBITS = 26

#: Refuse to build a single operator with more stored entries than this
#: (2^27 entries ≈ 3 GiB of CSR data+indices).  A gate with ``g`` nonzeros on
#: an ``n``-qubit register embeds to ``g · 2^(n-k)`` entries, so wide *dense*
#: blocks — e.g. the output of aggressive gate fusion — hit this long before
#: MAX_SPARSE_QUBITS does; the cure is a smaller ``fusion_max_qubits`` or
#: ``optimize_level=0``, not a bigger machine.
MAX_SPARSE_OPERATOR_NNZ = 1 << 27


def _scatter_bits(values: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """Scatter the low ``len(positions)`` bits of each value to bit positions.

    ``positions[0]`` receives the *most significant* of the value's bits,
    matching the qubit-0-is-MSB convention used across the library.
    """
    out = np.zeros_like(values)
    width = len(positions)
    for bit, pos in enumerate(positions):
        out |= ((values >> (width - 1 - bit)) & 1) << pos
    return out


def gate_sparse_operator(
    matrix: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> sp.csr_matrix:
    """CSR operator applying ``matrix`` to ``qubits`` of an ``n``-qubit register.

    ``matrix`` is ``2^k × 2^k`` with the first qubit of ``qubits`` as its most
    significant bit, exactly as :func:`~repro.circuits.statevector.apply_matrix`
    interprets it.
    """
    if num_qubits > MAX_SPARSE_QUBITS:
        raise SimulationError(
            f"refusing to build sparse operators on {num_qubits} qubits "
            f"(limit {MAX_SPARSE_QUBITS})"
        )
    k = len(qubits)
    if np.shape(matrix) != (1 << k, 1 << k):
        raise SimulationError(
            f"matrix shape {np.shape(matrix)} does not match {k} target qubits"
        )
    gate = sp.coo_matrix(sp.csr_matrix(np.asarray(matrix, dtype=complex)))
    nnz = gate.nnz << (num_qubits - k)
    if nnz > MAX_SPARSE_OPERATOR_NNZ:
        raise SimulationError(
            f"embedding a {k}-qubit gate with {gate.nnz} nonzeros on "
            f"{num_qubits} qubits needs {nnz} stored entries "
            f"(limit {MAX_SPARSE_OPERATOR_NNZ}); reduce fusion_max_qubits or "
            "disable gate fusion (optimize_level=0) for the sparse backend"
        )
    # Bit position of qubit q in the basis-state index (qubit 0 = MSB).
    gate_positions = [num_qubits - 1 - q for q in qubits]
    rest_positions = [p for p in range(num_qubits) if p not in set(gate_positions)]
    # Any bijection onto the rest-bit patterns works; enumerate them all.
    rest = _scatter_bits(
        np.arange(1 << len(rest_positions), dtype=np.int64), rest_positions
    )
    rows = (_scatter_bits(gate.row.astype(np.int64), gate_positions)[None, :]
            | rest[:, None]).ravel()
    cols = (_scatter_bits(gate.col.astype(np.int64), gate_positions)[None, :]
            | rest[:, None]).ravel()
    data = np.broadcast_to(gate.data, (rest.size, gate.data.size)).ravel()
    dim = 1 << num_qubits
    return sp.csr_matrix((data, (rows, cols)), shape=(dim, dim))


def circuit_sparse_operators(circuit: QuantumCircuit) -> tuple[sp.csr_matrix, ...]:
    """One full-space CSR operator per instruction, in application order."""
    return tuple(
        gate_sparse_operator(instr.gate.matrix(), instr.qubits, circuit.num_qubits)
        for instr in circuit
    )


def apply_circuit_sparse(
    circuit: QuantumCircuit,
    state: np.ndarray,
    operators: Sequence[sp.spmatrix] | None = None,
) -> np.ndarray:
    """Evolve a dense state vector through ``circuit`` via sparse matvecs.

    ``operators`` lets a caller reuse the (cacheable) output of
    :func:`circuit_sparse_operators` across runs — the compile pipeline's
    ``run_many`` does exactly that.
    """
    vec = np.asarray(state, dtype=complex).reshape(-1)
    if vec.shape[0] != 1 << circuit.num_qubits:
        raise SimulationError(
            f"state of dimension {vec.shape[0]} does not fit "
            f"{circuit.num_qubits} qubits"
        )
    if operators is None:
        operators = circuit_sparse_operators(circuit)
    for op in operators:
        vec = op @ vec
    if circuit.global_phase:
        vec = vec * np.exp(1j * circuit.global_phase)
    return vec
