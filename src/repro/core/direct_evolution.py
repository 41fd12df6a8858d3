"""Direct Hamiltonian simulation of Single Component Basis terms (Section III).

This is the paper's central construction.  For a gathered Hermitian fragment

    ``H = γ·(O_0 ⊗ ... ⊗ O_{N-1}) (+ h.c.)``

with factors in ``{I, X, Y, Z, n, m, σ, σ†}``, :func:`evolve_fragment` builds
an *exact* circuit for ``exp(-i t H)`` following Fig. 2:

1. the transition factors are rotated into the generalized-Bell basis so that
   the coupled pair ``|a⟩/|b⟩`` is carried by a single pivot qubit;
2. the Pauli factors are diagonalised to ``Z`` and their parity is reported
   onto one Pauli qubit, which controls the *sign* of the rotation through
   ``Z R_{X/Y}(θ) Z = R_{X/Y}(-θ)``;
3. the number factors become controls (value ``1`` for ``n``, ``0`` for ``m``)
   of the central rotation;
4. the central rotation acts on the pivot qubit (transition terms) or as a
   phase / Z-rotation (diagonal and Pauli-only terms);
5. everything is uncomputed.

Complex coefficients are handled either exactly (a single rotation about an
axis in the XY plane) or with the paper's ``RX·RY`` split, which introduces a
small Trotter error (Section III-A) — the choice is an explicit option so the
two can be compared.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gate import Instruction, StandardGate
from repro.circuits.skeleton import Skeleton, Slot
from repro.core.basis_change import (
    parity_accumulation,
    pauli_diagonalisation,
    transition_basis_change,
)
from repro.core.families import TermStructure, analyze_term
from repro.exceptions import CircuitError, OperatorError
from repro.operators.hamiltonian import Hamiltonian, HermitianFragment
from repro.operators.scb_term import SCBTerm
from repro.utils.bits import bits_to_int


@dataclass
class EvolutionOptions:
    """Options of the direct-evolution circuit builder.

    Attributes
    ----------
    basis_change:
        ``"linear"`` or ``"pyramid"`` layout for the transition basis change
        (Fig. 2 vs Fig. 3).
    parity_mode:
        ``"linear"`` or ``"pyramid"`` layout for the Pauli parity report
        (Fig. 25).
    complex_mode:
        ``"exact"`` uses a single rotation about an axis in the XY plane for a
        complex coefficient; ``"trotter_split"`` reproduces the paper's
        ``RX(-2 Re[z] θ) · RY(-2 Im[z] θ)`` product, which does not commute and
        therefore carries a (small) Trotter error.
    pivot:
        Optional explicit pivot qubit for the transition basis change.
    """

    basis_change: str = "linear"
    parity_mode: str = "linear"
    complex_mode: str = "exact"
    pivot: int | None = None


def evolve_term(
    term: SCBTerm,
    time: float,
    *,
    include_hc: bool | None = None,
    options: EvolutionOptions | None = None,
) -> QuantumCircuit:
    """Circuit for ``exp(-i t (term [+ h.c.]))``.

    ``include_hc=None`` (default) adds the Hermitian conjugate exactly when
    the term is not Hermitian on its own, mirroring Eq. 5.
    """
    if include_hc is None:
        include_hc = not term.is_hermitian
    return evolve_fragment(HermitianFragment(term, include_hc), time, options=options)


def evolve_fragment(
    fragment: HermitianFragment,
    time: float,
    *,
    options: EvolutionOptions | None = None,
) -> QuantumCircuit:
    """Circuit for ``exp(-i t H)`` with ``H`` the gathered Hermitian fragment."""
    return fragment_skeleton(fragment, options=options).bind(time)


def fragment_skeleton(
    fragment: HermitianFragment, *, options: EvolutionOptions | None = None
) -> Skeleton:
    """The time-free circuit of ``exp(-i t H)`` for a gathered Hermitian fragment.

    Only the central rotation's angles (and an identity term's global phase)
    depend on ``t``; they stay :class:`~repro.circuits.skeleton.Slot`
    expressions until :meth:`~repro.circuits.skeleton.Skeleton.bind`.
    """
    options = options or EvolutionOptions()
    structure = analyze_term(fragment.term)
    coeff = complex(fragment.term.coefficient)

    if not fragment.include_hc:
        if structure.has_transition:
            raise OperatorError(
                "a term with transition factors must include its Hermitian conjugate"
            )
        if abs(coeff.imag) > 1e-12:
            raise OperatorError("a Hermitian fragment needs a real coefficient")

    if structure.has_transition:
        return _transition_skeleton(structure, coeff, options)
    # No transition factors: the fragment is γ·Π_k ⊗ PS (γ real); the optional
    # + h.c. simply doubles the coefficient.
    gamma = coeff.real * (2.0 if fragment.include_hc else 1.0)
    if abs(coeff.imag) > 1e-12 and fragment.include_hc:
        # γ A + γ* A = 2 Re(γ) A for Hermitian A.
        gamma = 2.0 * coeff.real
    return _diagonal_or_pauli_skeleton(structure, gamma, options)


# ---------------------------------------------------------------------------
# Transition fragments (the general case of Fig. 2)
# ---------------------------------------------------------------------------


def _transition_skeleton(
    structure: TermStructure, coeff: complex, options: EvolutionOptions
) -> Skeleton:
    n = structure.num_qubits

    # 1. generalized-Bell basis change on the transition qubits.
    change = transition_basis_change(
        n,
        structure.transition_qubits,
        structure.ket_bits,
        mode=options.basis_change,
        pivot=options.pivot,
    )
    pivot = change.pivot

    # 2. Pauli diagonalisation and parity report.
    diag = pauli_diagonalisation(n, structure.pauli_qubits, structure.pauli_labels)
    parity = QuantumCircuit(n)
    sign: tuple[Instruction, ...] = ()
    if structure.has_pauli:
        parity_qubit = structure.pauli_qubits[-1]
        parity = parity_accumulation(
            n, structure.pauli_qubits, parity_qubit, mode=options.parity_mode
        )
        sign = (Instruction(StandardGate("cz"), (parity_qubit, pivot)),)

    # 3. central (possibly multi-controlled) rotation on the pivot qubit,
    #    sign-controlled by the parity qubit.
    controls, control_bits = structure.controls_for_rotation(pivot)
    ctrl_state = bits_to_int(control_bits) if controls else 0
    rotations = tuple(
        Slot(name, tuple(controls) + (pivot,), params, len(controls), ctrl_state)
        for name, params in _central_rotation_slots(coeff, change.pivot_ket_bit, options)
    )

    return Skeleton(
        n,
        (
            *change.circuit,
            *diag,
            *parity,
            *sign,
            *rotations,
            *sign,
            # 4. uncompute.
            *parity.inverse(),
            *diag.inverse(),
            *change.circuit.inverse(),
        ),
        f"H[{structure.term.label}])",
    )


def _central_rotation_slots(
    coeff: complex, pivot_ket_bit: int, options: EvolutionOptions
) -> list[tuple[str, "Callable[[float], tuple[float, ...]]"]]:
    """The rotation acting on the pivot qubit, as (gate name, angles(t)) pairs.

    With the pivot carrying ``|a⟩`` on bit value ``x`` and ``|b⟩`` on ``1-x``,
    the restricted Hamiltonian is ``Re(γ)·X ± Im(γ)·Y`` (the sign of the Y
    component flips with ``x``), so the exact evolution is a rotation about an
    axis in the XY plane by an angle ``2·t·|γ|``-ish — built here either as a
    single ``rxy`` gate (exact) or as the paper's RX·RY split.
    """
    # Sign of the Y component: with pivot ket bit x = 1 the restriction is
    # Re(γ)X + Im(γ)Y; with x = 0 it is Re(γ)X - Im(γ)Y.
    y_sign = 1.0 if pivot_ket_bit == 1 else -1.0
    re, im = coeff.real, coeff.imag

    if abs(im) < 1e-14:
        return [("rx", lambda time: (2.0 * time * re,))]
    if options.complex_mode == "exact":
        return [("rxy", lambda time: (2.0 * time * re, 2.0 * time * im * y_sign))]
    if options.complex_mode == "trotter_split":
        # The paper's Section III-A replacement RX(-2Re[z]θ)·RY(-2Im[z]θ).
        return [
            ("rx", lambda time: (2.0 * time * re,)),
            ("ry", lambda time: (2.0 * time * im * y_sign,)),
        ]
    raise CircuitError(f"unknown complex_mode {options.complex_mode!r}")


# ---------------------------------------------------------------------------
# Fragments without transition factors (diagonal keys and/or Pauli strings)
# ---------------------------------------------------------------------------


def _diagonal_or_pauli_skeleton(
    structure: TermStructure, gamma: float, options: EvolutionOptions
) -> Skeleton:
    n = structure.num_qubits
    label = f"H[{structure.term.label}])"

    if structure.has_pauli:
        # γ · Π_k ⊗ PS: diagonalise the Paulis, report their parity on one of
        # them, apply an RZ controlled by the number key, uncompute.
        diag = pauli_diagonalisation(n, structure.pauli_qubits, structure.pauli_labels)
        rot_qubit = structure.pauli_qubits[-1]
        parity = parity_accumulation(
            n, structure.pauli_qubits, rot_qubit, mode=options.parity_mode
        )
        rotation = Slot(
            "rz",
            tuple(structure.number_qubits) + (rot_qubit,),
            lambda time: (2.0 * time * gamma,),
            len(structure.number_qubits),
            structure.number_key if structure.has_number else 0,
        )
        return Skeleton(
            n,
            (*diag, *parity, rotation, *parity.inverse(), *diag.inverse()),
            label,
        )

    if structure.has_number:
        # Pure projector term γ·|k⟩⟨k|: a (multi-controlled) phase of -t·γ on
        # the key state — exp(-i t γ n̂) = P(-t·γ) generalised (appendix VIII-A).
        qubits = structure.number_qubits
        bits = structure.number_bits
        target = qubits[-1]
        flip = (Instruction(StandardGate("x"), (target,)),) if bits[-1] == 0 else ()
        phase = Slot(
            "p",
            tuple(qubits),
            lambda time: (-time * gamma,),
            len(qubits) - 1,
            bits_to_int(bits[:-1]) if len(qubits) > 1 else 0,
        )
        return Skeleton(n, (*flip, phase, *flip), label)

    # Identity term: a global phase.
    return Skeleton(n, (), label, phase=lambda time: -time * gamma)


# ---------------------------------------------------------------------------
# Whole-Hamiltonian single Trotter step (order 1); higher orders in trotter.py
# ---------------------------------------------------------------------------


def direct_trotter_step(
    hamiltonian: Hamiltonian,
    time: float,
    *,
    options: EvolutionOptions | None = None,
) -> QuantumCircuit:
    """One first-order product-formula step ``Π_j exp(-i t H_j)``.

    Each gathered Hermitian fragment is exponentiated exactly; the only error
    of the full step is the usual Trotter error between non-commuting
    fragments.
    """
    circuit = QuantumCircuit(hamiltonian.num_qubits, f"direct-trotter(t={time:.4g})")
    for fragment in hamiltonian.hermitian_fragments():
        circuit.compose(evolve_fragment(fragment, time, options=options))
    return circuit


def exact_fragment_matrix(fragment: HermitianFragment, time: float) -> np.ndarray:
    """Dense reference ``exp(-i t H)`` of a fragment (for verification)."""
    from scipy.linalg import expm

    return expm(-1j * time * fragment.matrix())


def fragment_evolution_error(
    fragment: HermitianFragment, time: float, options: EvolutionOptions | None = None
) -> float:
    """Spectral-norm error of the circuit against the exact fragment evolution.

    Zero (up to numerical precision) for real coefficients and for
    ``complex_mode="exact"`` — the paper's exactness claim for individual
    terms.
    """
    from repro.circuits.unitary import circuit_unitary
    from repro.utils.linalg import spectral_norm_diff

    circuit = evolve_fragment(fragment, time, options=options)
    return spectral_norm_diff(circuit_unitary(circuit), exact_fragment_matrix(fragment, time))


def trotter_step_matrix_error(
    hamiltonian: Hamiltonian, time: float, options: EvolutionOptions | None = None
) -> float:
    """Spectral-norm error of one direct Trotter step against ``exp(-i t H)``."""
    from scipy.linalg import expm

    from repro.circuits.unitary import circuit_unitary
    from repro.utils.linalg import spectral_norm_diff

    circuit = direct_trotter_step(hamiltonian, time, options=options)
    exact = expm(-1j * time * hamiltonian.matrix())
    return spectral_norm_diff(circuit_unitary(circuit), exact)
