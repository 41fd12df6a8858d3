"""Time-free fragment circuits: the instructions of ``exp(-i·t·H_j)`` with ``t`` open.

A fragment builder (:func:`~repro.core.pauli_evolution.pauli_string_skeleton`,
:func:`~repro.core.direct_evolution.fragment_skeleton`) returns a
:class:`Skeleton`: every instruction that does not depend on the evolution
time, in circuit order, with a :class:`Slot` wherever a gate's parameters
do.  A slot keeps the builder's own expression for them (``2.0 * t * coeff``
for an ``rz``, ``-t * gamma`` for a ``p``), and the skeleton keeps the
expression of its global phase, so :meth:`Skeleton.bind` returns exactly the
circuit the builder returned for that time before skeletons existed.

The statevector engine lowers a skeleton's instructions once
(:func:`repro.circuits.statevector.lower_items`) and, per time, only binds
its slots; see :mod:`repro.compile.steps`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple, Union

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gate import ControlledGate, Gate, Instruction, StandardGate
from repro.utils.validation import check_qubit_indices


class Slot(NamedTuple):
    """A standard gate whose parameters are a function of the evolution time.

    ``qubits`` lists the ``num_ctrl`` control qubits first (matched against
    ``ctrl_state``, most significant bit first), then the gate's targets, as
    a :class:`~repro.circuits.gate.ControlledGate` instruction would.
    """

    name: str
    qubits: tuple[int, ...]
    params: Callable[[float], tuple[float, ...]]
    num_ctrl: int = 0
    ctrl_state: int = 0

    def gate(self, time: float) -> Gate:
        gate: Gate = StandardGate(self.name, self.params(time))
        if self.num_ctrl:
            gate = ControlledGate(gate, self.num_ctrl, self.ctrl_state)
        return gate


Item = Union[Instruction, Slot]


@dataclass(frozen=True)
class Skeleton:
    """A fragment circuit with its evolution time left open.

    ``label`` completes the bound circuit's name ``exp(-i·{time:.4g}·{label}``;
    ``phase`` is the global phase as a function of time (``None``: zero).
    """

    num_qubits: int
    items: tuple[Item, ...]
    label: str
    phase: "Callable[[float], float] | None" = None

    def __post_init__(self) -> None:
        # Fixed instructions were validated by the circuits they came from;
        # a slot's qubits are checked once here instead of at every bind.
        for item in self.items:
            if isinstance(item, Slot):
                check_qubit_indices(item.qubits, self.num_qubits)

    @property
    def slots(self) -> tuple[Slot, ...]:
        return tuple(item for item in self.items if isinstance(item, Slot))

    def bind(self, time: float) -> QuantumCircuit:
        """The fragment's circuit at ``time``: fixed instructions are shared,
        each slot becomes a new instruction with its parameters evaluated."""
        circuit = QuantumCircuit(self.num_qubits, f"exp(-i·{time:.4g}·{self.label}")
        circuit._instructions = [
            Instruction(item.gate(time), item.qubits) if isinstance(item, Slot) else item
            for item in self.items
        ]
        if self.phase is not None:
            circuit.global_phase = self.phase(time)
        return circuit
