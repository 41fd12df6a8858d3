"""The usual strategy: Pauli-string Hamiltonian simulation (Eq. 2–3, Figs. 8–10).

For each Pauli string ``P`` with (real) coefficient ``β`` the circuit for
``exp(-i t β P)`` diagonalises every factor to ``Z``, accumulates the parity of
the support on one qubit with a CX ladder (linear or pyramidal, Fig. 25),
applies ``RZ(2 t β)`` and uncomputes.  This is the baseline the paper's direct
strategy is compared against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.skeleton import Skeleton, Slot
from repro.core.basis_change import parity_accumulation, pauli_diagonalisation
from repro.exceptions import OperatorError
from repro.operators.pauli import PauliOperator, PauliString


@dataclass
class PauliEvolutionOptions:
    """Options for the usual-strategy circuits."""

    parity_mode: str = "linear"  # "linear" or "pyramid" (Fig. 25)


def pauli_string_skeleton(
    string: PauliString,
    coefficient: float,
    *,
    num_qubits: int | None = None,
    options: PauliEvolutionOptions | None = None,
) -> Skeleton:
    """The time-free circuit of ``exp(-i t · coefficient · P)``.

    Everything but the ``RZ(2 t β)`` angle (and an identity string's global
    phase ``-t β``) is fixed; :meth:`~repro.circuits.skeleton.Skeleton.bind`
    evaluates those at a time.
    """
    if abs(np.imag(coefficient)) > 1e-12:
        raise OperatorError("Pauli-string evolution needs a real coefficient")
    options = options or PauliEvolutionOptions()
    n = num_qubits if num_qubits is not None else string.num_qubits
    string = string.expand(n)
    label = f"{coefficient:.4g}·{string})"
    beta = float(np.real(coefficient))
    support = string.support
    if not support:
        return Skeleton(n, (), label, phase=lambda time: -time * beta)

    labels = tuple(string[q] for q in support)
    diag = pauli_diagonalisation(n, support, labels)
    rot_qubit = support[-1]
    parity = parity_accumulation(n, support, rot_qubit, mode=options.parity_mode)
    rotation = Slot("rz", (rot_qubit,), lambda time: (2.0 * time * beta,))
    return Skeleton(
        n,
        (*diag, *parity, rotation, *parity.inverse(), *diag.inverse()),
        label,
    )


def pauli_string_evolution(
    string: PauliString,
    coefficient: float,
    time: float,
    *,
    num_qubits: int | None = None,
    options: PauliEvolutionOptions | None = None,
) -> QuantumCircuit:
    """Circuit for ``exp(-i t · coefficient · P)``.

    Identity strings reduce to a global phase; the generic case uses
    ``2(w-1)`` CX gates and one ``RZ`` for a string of weight ``w`` — the gate
    counts quoted in Table III and Section V-A for the usual strategy.
    """
    skeleton = pauli_string_skeleton(
        string, coefficient, num_qubits=num_qubits, options=options
    )
    return skeleton.bind(time)


def pauli_trotter_step(
    operator: PauliOperator,
    time: float,
    *,
    num_qubits: int | None = None,
    options: PauliEvolutionOptions | None = None,
) -> QuantumCircuit:
    """One first-order product-formula step over every string of the operator."""
    if not operator.is_hermitian():
        raise OperatorError("Pauli operator must have real coefficients (Hermitian)")
    n = num_qubits if num_qubits is not None else operator.num_qubits
    circuit = QuantumCircuit(n, f"pauli-trotter(t={time:.4g})")
    for string, coeff in operator.items():
        circuit.compose(
            pauli_string_evolution(string, float(np.real(coeff)), time, num_qubits=n,
                                   options=options)
        )
    return circuit


def pauli_evolution_gate_counts(string: PauliString) -> dict[str, int]:
    """Analytic gate counts of one Pauli-string evolution (usual strategy).

    ``2(w-1)`` CX, one ``RZ`` and the single-qubit basis changes, with ``w``
    the Pauli weight.
    """
    w = string.weight
    if w == 0:
        return {"cx": 0, "rz": 0, "single_qubit_clifford": 0}
    basis = sum(2 for c in string.labels if c == "X") + sum(4 for c in string.labels if c == "Y")
    return {"cx": 2 * (w - 1), "rz": 1, "single_qubit_clifford": basis}


def pauli_operator_rotation_count(operator: PauliOperator) -> int:
    """Number of arbitrary rotations per Trotter step for the usual strategy.

    One ``RZ`` per non-identity Pauli string: this is the count that grows
    exponentially with the term order once a Single Component Basis term has
    been mapped to Pauli strings.
    """
    return sum(1 for string, _ in operator.items() if string.weight > 0)
