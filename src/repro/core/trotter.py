"""Product formulas: Lie–Trotter, Suzuki and qDRIFT.

The formulas are expressed over an abstract list of *exponentiable fragments*
(anything with a ``build(time) -> QuantumCircuit`` callable), so the same code
drives both strategies of the paper:

* the **direct** strategy — one fragment per gathered SCB term, each
  exponentiated exactly by :mod:`repro.core.direct_evolution`;
* the **usual** strategy — one fragment per Pauli string, exponentiated by
  :mod:`repro.core.pauli_evolution`.

Both fragment lists are *skeleton, then bind*: each fragment's time-free
circuit (:class:`~repro.circuits.skeleton.Skeleton`) is built once, and
``build(time)`` only evaluates its angle expressions.  :func:`_formula_step`
is the one place a fragment's time is computed (``dt / 2.0``, ``u_k * dt``,
...); it composes into any container with :meth:`QuantumCircuit.compose`
semantics, so :class:`FragmentVisits` records the very times and nested
global-phase sums a circuit would get.  That is how
:mod:`repro.compile.steps` binds a pre-lowered step without building its
circuit.

Section VI-B of the paper notes that most product-formula variants apply to
either strategy; the qDRIFT random compiler is included as an example.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.skeleton import Skeleton
from repro.core.direct_evolution import EvolutionOptions, fragment_skeleton
from repro.core.pauli_evolution import PauliEvolutionOptions, pauli_string_skeleton
from repro.exceptions import TrotterError
from repro.operators.hamiltonian import Hamiltonian
from repro.operators.pauli import PauliOperator


@dataclass(frozen=True)
class ExponentiableFragment:
    """A Hamiltonian fragment with a circuit builder for its exact exponential."""

    label: str
    weight: float
    build: Callable[[float], QuantumCircuit]
    #: The time-free circuit ``build`` binds, for fragments that have one.
    skeleton: "Skeleton | None" = None


# ---------------------------------------------------------------------------
# Fragment lists for the two strategies
# ---------------------------------------------------------------------------


def direct_fragments(
    hamiltonian: Hamiltonian, options: EvolutionOptions | None = None
) -> list[ExponentiableFragment]:
    """One exponentiable fragment per gathered SCB term (direct strategy)."""
    fragments = []
    for fragment in hamiltonian.hermitian_fragments():
        weight = abs(fragment.term.coefficient) * (2.0 if fragment.include_hc else 1.0)
        skeleton = fragment_skeleton(fragment, options=options)
        fragments.append(
            ExponentiableFragment(
                label=fragment.term.label,
                weight=weight,
                build=skeleton.bind,
                skeleton=skeleton,
            )
        )
    return fragments


def pauli_fragments(
    operator: PauliOperator,
    num_qubits: int | None = None,
    options: PauliEvolutionOptions | None = None,
) -> list[ExponentiableFragment]:
    """One exponentiable fragment per Pauli string (usual strategy)."""
    n = num_qubits if num_qubits is not None else operator.num_qubits
    fragments = []
    for string, coeff in operator.items():
        coeff_r = float(np.real(coeff))
        skeleton = pauli_string_skeleton(string, coeff_r, num_qubits=n, options=options)
        fragments.append(
            ExponentiableFragment(
                label=str(string),
                weight=abs(coeff_r),
                build=skeleton.bind,
                skeleton=skeleton,
            )
        )
    return fragments


# ---------------------------------------------------------------------------
# Product formulas
# ---------------------------------------------------------------------------


def trotter_circuit(
    fragments: Sequence[ExponentiableFragment],
    num_qubits: int,
    time: float,
    *,
    steps: int = 1,
    order: int = 1,
) -> QuantumCircuit:
    """Suzuki–Trotter product formula of the given order.

    ``order`` must be 1, 2 or an even integer ``2k`` (higher orders use the
    standard Suzuki recursion).  ``steps`` repetitions of the formula are
    applied with time slice ``time / steps``.
    """
    return product_formula(
        fragments, num_qubits, time, steps=steps, order=order, new=QuantumCircuit
    )[1]


def product_formula(
    fragments: Sequence, num_qubits: int, time: float, *, steps: int, order: int, new: Callable
) -> tuple:
    """``(one step, the whole formula)`` as ``new`` containers.

    ``new(num_qubits, name)`` makes an empty container with
    :meth:`QuantumCircuit.compose` semantics and each ``fragment.build(t)``
    returns one; the whole formula is the step composed ``steps`` times, so
    its global phase is the same running sum a circuit accumulates.
    """
    if steps < 1:
        raise TrotterError("steps must be >= 1")
    if order < 1:
        raise TrotterError("order must be >= 1")
    if order != 1 and order % 2 != 0:
        raise TrotterError("only order 1 and even orders are defined")

    whole = new(num_qubits, f"trotter(order={order}, steps={steps})")
    dt = time / steps
    step = _formula_step(fragments, num_qubits, dt, order, new)
    for _ in range(steps):
        whole.compose(step)
    return step, whole


def _formula_step(fragments: Sequence, num_qubits: int, dt: float, order: int, new: Callable):
    if order == 1:
        circuit = new(num_qubits)
        for frag in fragments:
            circuit.compose(frag.build(dt))
        return circuit
    if order == 2:
        circuit = new(num_qubits)
        for frag in fragments:
            circuit.compose(frag.build(dt / 2.0))
        for frag in reversed(fragments):
            circuit.compose(frag.build(dt / 2.0))
        return circuit
    # Suzuki recursion for order 2k.
    k = order // 2
    u_k = 1.0 / (4.0 - 4.0 ** (1.0 / (2 * k - 1)))
    inner = _formula_step(fragments, num_qubits, u_k * dt, order - 2, new)
    middle = _formula_step(fragments, num_qubits, (1.0 - 4.0 * u_k) * dt, order - 2, new)
    circuit = new(num_qubits)
    circuit.compose(inner)
    circuit.compose(inner)
    circuit.compose(middle)
    circuit.compose(inner)
    circuit.compose(inner)
    return circuit


class FragmentVisits:
    """A product formula as its fragment visits, with a circuit's compose semantics.

    ``visits`` lists ``(fragment index, time)`` in application order and
    ``global_phase`` is summed exactly as :meth:`QuantumCircuit.compose`
    sums it.  :meth:`visitors` turns skeletons into the fragments
    :func:`product_formula` expects.
    """

    __slots__ = ("visits", "global_phase")

    def __init__(self, num_qubits: int = 0, name: str = ""):
        self.visits: list[tuple[int, float]] = []
        self.global_phase = 0.0

    def compose(self, other: "FragmentVisits") -> "FragmentVisits":
        self.visits.extend(other.visits)
        self.global_phase += other.global_phase
        return self

    @staticmethod
    def visitors(skeletons: Sequence[Skeleton]) -> list:
        return [_Visitor(index, skeleton.phase) for index, skeleton in enumerate(skeletons)]


class _Visitor(NamedTuple):
    index: int
    phase: "Callable[[float], float] | None"

    def build(self, time: float) -> FragmentVisits:
        visit = FragmentVisits()
        visit.visits.append((self.index, time))
        if self.phase is not None:
            visit.global_phase = self.phase(time)
        return visit


def qdrift_circuit(
    fragments: Sequence[ExponentiableFragment],
    num_qubits: int,
    time: float,
    *,
    num_samples: int,
    rng: np.random.Generator | int | None = None,
) -> QuantumCircuit:
    """qDRIFT random compiler (Campbell 2019) over the same fragment list.

    Each of the ``num_samples`` slots applies one randomly chosen fragment
    (probability proportional to its weight) for the rescaled time
    ``λ·time / (weight · num_samples)`` with ``λ = Σ weights``, so that the
    channel average matches the target evolution to first order.
    """
    if num_samples < 1:
        raise TrotterError("num_samples must be >= 1")
    if isinstance(rng, (int, np.integer)) or rng is None:
        rng = np.random.default_rng(rng)
    weights = np.array([f.weight for f in fragments], dtype=float)
    lam = float(weights.sum())
    if lam <= 0:
        raise TrotterError("qDRIFT needs at least one fragment with non-zero weight")
    probs = weights / lam
    circuit = QuantumCircuit(num_qubits, f"qdrift({num_samples})")
    choices = rng.choice(len(fragments), size=num_samples, p=probs)
    for idx in choices:
        frag = fragments[int(idx)]
        tau = lam * time / (frag.weight * num_samples)
        circuit.compose(frag.build(tau))
    return circuit


# ---------------------------------------------------------------------------
# Convenience wrappers for the two strategies
# ---------------------------------------------------------------------------


def direct_hamiltonian_simulation(
    hamiltonian: Hamiltonian,
    time: float,
    *,
    steps: int = 1,
    order: int = 1,
    options: EvolutionOptions | None = None,
) -> QuantumCircuit:
    """Direct-strategy Hamiltonian simulation of a Hamiltonian of SCB terms."""
    fragments = direct_fragments(hamiltonian, options)
    return trotter_circuit(fragments, hamiltonian.num_qubits, time, steps=steps, order=order)


def pauli_hamiltonian_simulation(
    operator: PauliOperator,
    time: float,
    *,
    num_qubits: int | None = None,
    steps: int = 1,
    order: int = 1,
    options: PauliEvolutionOptions | None = None,
) -> QuantumCircuit:
    """Usual-strategy Hamiltonian simulation of a Pauli operator."""
    n = num_qubits if num_qubits is not None else operator.num_qubits
    fragments = pauli_fragments(operator, n, options)
    return trotter_circuit(fragments, n, time, steps=steps, order=order)
