"""Compilation strategies: problem → circuit, behind a string-keyed registry.

A :class:`Strategy` turns a :class:`~repro.compile.problem.SimulationProblem`
into a circuit and knows how to *predict* its gate counts analytically (the
models of :mod:`repro.core.resource`) without building anything.  The four
built-in strategies wrap the seed's loose builders:

========================  ====================================================
``"direct"``              one exact exponential per gathered SCB term (Fig. 2)
``"pauli"``               one parity ladder + RZ per Pauli string (the usual
                          strategy the paper compares against)
``"block_encoding"``      PREPARE–SELECT–PREPARE† encoding of ``H`` itself
                          (≤ 6 unitaries per term, Section IV)
``"mpf"``                 multi-product formula over direct Trotter circuits
                          (Section VI-B), materialised as a block encoding
========================  ====================================================

Register your own with ``@STRATEGIES.register("name")``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.circuits.circuit import QuantumCircuit
from repro.compile.registry import Registry
from repro.compile.steps import step_fragments
from repro.core.block_encoding import hamiltonian_block_encoding
from repro.core.families import analyze_term
from repro.core.mpf import multi_product_formula
from repro.core.resource import (
    TermResourceEstimate,
    direct_term_resources,
    rzn_two_qubit_count,
)
from repro.core.trotter import direct_fragments, trotter_circuit

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from repro.compile.problem import SimulationProblem

#: The global strategy registry.
STRATEGIES = Registry("strategy")


@dataclass(frozen=True)
class ResourceEstimate:
    """Analytic (circuit-free) resource prediction of one compiled program."""

    strategy: str
    fragments: int
    rotations: int
    two_qubit_gates: int
    formula_passes: int
    per_term: tuple[dict, ...] = ()

    def as_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "fragments": self.fragments,
            "rotations": self.rotations,
            "two_qubit_gates": self.two_qubit_gates,
            "formula_passes": self.formula_passes,
        }


def formula_passes(order: int, steps: int) -> int:
    """How many times the fragment list is traversed by the product formula.

    One pass for order 1, two for order 2 and ``2·5^{k-1}`` for the Suzuki
    recursion of order ``2k`` — times the step count.
    """
    if order == 1:
        per_step = 1
    else:
        per_step = 2 * 5 ** (order // 2 - 1)
    return per_step * steps


@runtime_checkable
class Strategy(Protocol):
    """What the pipeline requires of a compilation strategy."""

    name: str
    #: ``"evolution"`` when the circuit approximates ``exp(-i t H)`` on the
    #: system register alone; ``"block_encoding"`` when ancillas are involved.
    kind: str

    def build(self, problem: "SimulationProblem") -> QuantumCircuit:
        """Construct the circuit for the problem."""
        ...

    def estimate_resources(self, problem: "SimulationProblem") -> ResourceEstimate:
        """Predict gate counts analytically, without building circuits."""
        ...


@STRATEGIES.register("direct")
class DirectStrategy:
    """The paper's direct strategy: exact exponential per gathered term."""

    name = "direct"
    kind = "evolution"

    def build(self, problem: "SimulationProblem") -> QuantumCircuit:
        return trotter_circuit(
            step_fragments(problem, DirectStrategy.name),
            problem.num_qubits,
            problem.time,
            steps=problem.steps,
            order=problem.order,
        )

    def estimate_resources(self, problem: "SimulationProblem") -> ResourceEstimate:
        passes = formula_passes(problem.order, problem.steps)
        per_term: list[dict] = []
        rotations = two_qubit = 0
        for fragment in problem.hamiltonian.hermitian_fragments():
            estimate = term_resource_estimate(fragment.term)
            per_term.append({"label": fragment.term.label, **estimate.as_dict()})
            rotations += estimate.rotations
            two_qubit += estimate.two_qubit_total
        return ResourceEstimate(
            strategy=self.name,
            fragments=len(per_term),
            rotations=rotations * passes,
            two_qubit_gates=two_qubit * passes,
            formula_passes=passes,
            per_term=tuple(per_term),
        )


def term_resource_estimate(term) -> TermResourceEstimate:
    """Fig.-2 analytic gate counts of one SCB term (family counts → costs)."""
    structure = analyze_term(term)
    return direct_term_resources(
        len(structure.transition_qubits),
        len(structure.number_qubits),
        len(structure.pauli_qubits),
    )


@STRATEGIES.register("pauli")
class PauliStrategy:
    """The usual strategy: one Pauli-string rotation per string."""

    name = "pauli"
    kind = "evolution"

    def build(self, problem: "SimulationProblem") -> QuantumCircuit:
        return trotter_circuit(
            step_fragments(problem, PauliStrategy.name),
            problem.num_qubits,
            problem.time,
            steps=problem.steps,
            order=problem.order,
        )

    def estimate_resources(self, problem: "SimulationProblem") -> ResourceEstimate:
        passes = formula_passes(problem.order, problem.steps)
        per_term: list[dict] = []
        rotations = two_qubit = 0
        for string, _ in problem.pauli_operator().items():
            weight = string.weight
            cx = rzn_two_qubit_count(weight) if weight >= 1 else 0
            rz = 1 if weight >= 1 else 0
            per_term.append({"label": str(string), "rotations": rz, "two_qubit_total": cx})
            rotations += rz
            two_qubit += cx
        return ResourceEstimate(
            strategy=self.name,
            fragments=len(per_term),
            rotations=rotations * passes,
            two_qubit_gates=two_qubit * passes,
            formula_passes=passes,
            per_term=tuple(per_term),
        )


@STRATEGIES.register("block_encoding")
class BlockEncodingStrategy:
    """Block-encode ``H`` itself (≤ 6 unitaries per gathered term, Eq. 12).

    The compiled circuit acts on ancillas + system; the program records the
    sub-normalisation λ and the ancilla count in its metadata.  Time, steps
    and order of the problem are ignored — the artifact encodes ``H/λ``, the
    object a QSP/QSVT-style simulation would query.
    """

    name = "block_encoding"
    kind = "block_encoding"

    def build(self, problem: "SimulationProblem") -> QuantumCircuit:
        return self.encode(problem).circuit

    def encode(self, problem: "SimulationProblem"):
        return hamiltonian_block_encoding(
            problem.hamiltonian, basis_change_mode=problem.options.basis_change
        )

    def estimate_resources(self, problem: "SimulationProblem") -> ResourceEstimate:
        from repro.core.block_encoding import term_unitary_count

        per_term: list[dict] = []
        unitaries = 0
        for term in problem.hamiltonian.terms:
            count = term_unitary_count(term)
            per_term.append({"label": term.label, "unitaries": count})
            unitaries += count
        # The SELECT walks every unitary once; PREPARE contributes no
        # rotations in this analytic model (dense prepare on ⌈log₂ L⌉ qubits).
        return ResourceEstimate(
            strategy=self.name,
            fragments=unitaries,
            rotations=0,
            two_qubit_gates=0,
            formula_passes=1,
            per_term=tuple(per_term),
        )


@STRATEGIES.register("mpf")
class MPFStrategy:
    """Multi-product formula over direct order-2 Trotter circuits.

    The combination ``Σ_j c_j [S_2(t/k_j)]^{k_j}`` is an LCU, so the compiled
    circuit is its PREPARE–SELECT–PREPARE† block encoding; the program's
    ``unitary()`` is overridden with the classical weighted sum, which is the
    quantity the error analyses consume.
    """

    name = "mpf"
    kind = "combination"

    def decomposition(self, problem: "SimulationProblem"):
        fragments = direct_fragments(
            problem.hamiltonian, problem.options.evolution_options()
        )
        return multi_product_formula(
            fragments, problem.num_qubits, problem.time, problem.options.mpf_steps
        )

    def build(self, problem: "SimulationProblem") -> QuantumCircuit:
        from repro.core.lcu import block_encoding

        return block_encoding(self.decomposition(problem)).circuit

    def estimate_resources(self, problem: "SimulationProblem") -> ResourceEstimate:
        from dataclasses import replace

        direct = STRATEGIES.create("direct")
        rotations = two_qubit = 0
        per_term: list[dict] = []
        for k in problem.options.mpf_steps:
            sub = replace(problem, steps=int(k), order=2)
            estimate = direct.estimate_resources(sub)
            per_term.append({"label": f"S2^{k}", **estimate.as_dict()})
            rotations += estimate.rotations
            two_qubit += estimate.two_qubit_gates
        return ResourceEstimate(
            strategy=self.name,
            fragments=len(problem.options.mpf_steps),
            rotations=rotations,
            two_qubit_gates=two_qubit,
            formula_passes=sum(
                formula_passes(2, int(k)) for k in problem.options.mpf_steps
            ),
            per_term=tuple(per_term),
        )


def get_strategy(strategy: "str | Strategy") -> Strategy:
    """Resolve a strategy name (or pass an instance through)."""
    if isinstance(strategy, str):
        return STRATEGIES.create(strategy)
    if isinstance(strategy, Strategy):
        return strategy
    from repro.exceptions import CompileError

    raise CompileError(f"not a strategy: {strategy!r}")


def available_strategies() -> tuple[str, ...]:
    return STRATEGIES.names()
