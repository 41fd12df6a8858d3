"""The :class:`QuantumCircuit` container.

The circuit is an ordered list of :class:`~repro.circuits.gate.Instruction`
objects on a fixed number of qubits.  It provides the convenience methods the
rest of the library relies on (gate appenders, composition, inversion,
controlled versions, depth and gate-count reports).  Simulation lives in
:mod:`repro.circuits.statevector` and :mod:`repro.circuits.unitary`;
decomposition of composite (multi-controlled) gates lives in
:mod:`repro.circuits.decompositions` and :mod:`repro.circuits.transpile`.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.circuits.gate import ControlledGate, Gate, Instruction, StandardGate, UnitaryGate
from repro.exceptions import CircuitError
from repro.utils.validation import check_qubit_indices


class QuantumCircuit:
    """A fixed-width quantum circuit.

    Parameters
    ----------
    num_qubits:
        Number of qubits in the register.
    name:
        Optional human-readable name (used in reports).
    """

    def __init__(self, num_qubits: int, name: str = "circuit"):
        if num_qubits < 0:
            raise CircuitError(f"num_qubits must be non-negative, got {num_qubits}")
        self.num_qubits = int(num_qubits)
        self.name = name
        self._instructions: list[Instruction] = []
        #: Global phase e^{i phase} applied on top of the instruction list.
        self.global_phase: float = 0.0

    # ------------------------------------------------------------------ basics

    @property
    def instructions(self) -> tuple[Instruction, ...]:
        return tuple(self._instructions)

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def copy(self) -> "QuantumCircuit":
        out = QuantumCircuit(self.num_qubits, self.name)
        out._instructions = list(self._instructions)
        out.global_phase = self.global_phase
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"QuantumCircuit(name={self.name!r}, num_qubits={self.num_qubits}, "
            f"size={len(self)}, depth={self.depth()})"
        )

    # ------------------------------------------------------------------ append

    def append(self, gate: Gate, qubits: Sequence[int]) -> "QuantumCircuit":
        """Append ``gate`` acting on ``qubits`` (in gate order) and return self."""
        qubits = check_qubit_indices(qubits, self.num_qubits)
        self._instructions.append(Instruction(gate, tuple(qubits)))
        return self

    def extend(self, instructions: Iterable[Instruction]) -> "QuantumCircuit":
        # A snapshot first: ``qc.extend(qc)`` must not chase its own appends.
        for instr in list(instructions):
            self.append(instr.gate, instr.qubits)
        return self

    def compose(
        self, other: "QuantumCircuit", qubits: Sequence[int] | None = None
    ) -> "QuantumCircuit":
        """Append all instructions of ``other`` onto this circuit (in place).

        ``qubits`` maps the qubits of ``other`` onto qubits of this circuit;
        by default ``other`` must be no wider and is applied one-to-one, by
        extending this circuit's list with ``other``'s already validated (and
        immutable) instructions.  Composing a circuit into itself appends
        one copy of its instructions as they were before the call.
        """
        if qubits is None:
            if other.num_qubits > self.num_qubits:
                raise CircuitError(
                    f"cannot compose a {other.num_qubits}-qubit circuit onto "
                    f"{self.num_qubits} qubits without a qubit map"
                )
            self._instructions.extend(other._instructions)
        else:
            mapping = check_qubit_indices(qubits, self.num_qubits)
            if len(mapping) != other.num_qubits:
                raise CircuitError(
                    f"qubit map has {len(mapping)} entries for a "
                    f"{other.num_qubits}-qubit circuit"
                )
            for instr in tuple(other._instructions):
                self._instructions.append(
                    Instruction(instr.gate, tuple(mapping[q] for q in instr.qubits))
                )
        self.global_phase += other.global_phase
        return self

    def inverse(self) -> "QuantumCircuit":
        """Return a new circuit implementing the inverse unitary.

        The qubits were validated when each instruction was appended, so the
        inverted instructions are built from them directly; a self-inverse
        gate's (immutable) instruction is reused as it is.
        """
        out = QuantumCircuit(self.num_qubits, f"{self.name}_dg")
        out.global_phase = -self.global_phase
        for instr in reversed(self._instructions):
            inverse = instr.gate.inverse()
            if inverse is not instr.gate:
                instr = Instruction(inverse, instr.qubits)
            out._instructions.append(instr)
        return out

    def power(self, repetitions: int) -> "QuantumCircuit":
        """Return the circuit repeated ``repetitions`` times."""
        if repetitions < 0:
            return self.inverse().power(-repetitions)
        out = QuantumCircuit(self.num_qubits, f"{self.name}^{repetitions}")
        for _ in range(repetitions):
            out.compose(self)
        return out

    def controlled(
        self, num_ctrl: int = 1, ctrl_state: int | str | None = None
    ) -> "QuantumCircuit":
        """Return a circuit where every instruction is controlled by new qubits.

        The control qubits are prepended as qubits ``0 .. num_ctrl-1`` and the
        original circuit is shifted up.  A non-zero global phase becomes a
        controlled phase gate so the construction stays exact.
        """
        out = QuantumCircuit(self.num_qubits + num_ctrl, f"c{num_ctrl}-{self.name}")
        controls = tuple(range(num_ctrl))
        for instr in self._instructions:
            gate = ControlledGate(instr.gate, num_ctrl, ctrl_state)
            out.append(gate, controls + tuple(q + num_ctrl for q in instr.qubits))
        if abs(self.global_phase) > 1e-15:
            phase_gate = ControlledGate(
                StandardGate("gphase", (self.global_phase,)), num_ctrl, ctrl_state
            )
            out.append(phase_gate, controls + (num_ctrl,))
        return out

    # ------------------------------------------------------------- convenience

    # single-qubit gates ---------------------------------------------------

    def id(self, qubit: int) -> "QuantumCircuit":
        return self.append(StandardGate("id"), (qubit,))

    def x(self, qubit: int) -> "QuantumCircuit":
        return self.append(StandardGate("x"), (qubit,))

    def y(self, qubit: int) -> "QuantumCircuit":
        return self.append(StandardGate("y"), (qubit,))

    def z(self, qubit: int) -> "QuantumCircuit":
        return self.append(StandardGate("z"), (qubit,))

    def h(self, qubit: int) -> "QuantumCircuit":
        return self.append(StandardGate("h"), (qubit,))

    def s(self, qubit: int) -> "QuantumCircuit":
        return self.append(StandardGate("s"), (qubit,))

    def sdg(self, qubit: int) -> "QuantumCircuit":
        return self.append(StandardGate("sdg"), (qubit,))

    def t(self, qubit: int) -> "QuantumCircuit":
        return self.append(StandardGate("t"), (qubit,))

    def tdg(self, qubit: int) -> "QuantumCircuit":
        return self.append(StandardGate("tdg"), (qubit,))

    def sx(self, qubit: int) -> "QuantumCircuit":
        return self.append(StandardGate("sx"), (qubit,))

    def rx(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.append(StandardGate("rx", (theta,)), (qubit,))

    def ry(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.append(StandardGate("ry", (theta,)), (qubit,))

    def rz(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.append(StandardGate("rz", (theta,)), (qubit,))

    def p(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.append(StandardGate("p", (theta,)), (qubit,))

    def u(self, theta: float, phi: float, lam: float, qubit: int) -> "QuantumCircuit":
        return self.append(StandardGate("u", (theta, phi, lam)), (qubit,))

    def rxy(self, theta_x: float, theta_y: float, qubit: int) -> "QuantumCircuit":
        return self.append(StandardGate("rxy", (theta_x, theta_y)), (qubit,))

    # two-qubit gates -------------------------------------------------------

    def cx(self, control: int, target: int) -> "QuantumCircuit":
        return self.append(StandardGate("cx"), (control, target))

    def cy(self, control: int, target: int) -> "QuantumCircuit":
        return self.append(StandardGate("cy"), (control, target))

    def cz(self, control: int, target: int) -> "QuantumCircuit":
        return self.append(StandardGate("cz"), (control, target))

    def ch(self, control: int, target: int) -> "QuantumCircuit":
        return self.append(StandardGate("ch"), (control, target))

    def swap(self, a: int, b: int) -> "QuantumCircuit":
        return self.append(StandardGate("swap"), (a, b))

    def fswap(self, a: int, b: int) -> "QuantumCircuit":
        return self.append(StandardGate("fswap"), (a, b))

    def cp(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        return self.append(StandardGate("cp", (theta,)), (control, target))

    def crx(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        return self.append(StandardGate("crx", (theta,)), (control, target))

    def cry(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        return self.append(StandardGate("cry", (theta,)), (control, target))

    def crz(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        return self.append(StandardGate("crz", (theta,)), (control, target))

    def rxx(self, theta: float, a: int, b: int) -> "QuantumCircuit":
        return self.append(StandardGate("rxx", (theta,)), (a, b))

    def ryy(self, theta: float, a: int, b: int) -> "QuantumCircuit":
        return self.append(StandardGate("ryy", (theta,)), (a, b))

    def rzz(self, theta: float, a: int, b: int) -> "QuantumCircuit":
        return self.append(StandardGate("rzz", (theta,)), (a, b))

    # three-qubit gates -----------------------------------------------------

    def ccx(self, c1: int, c2: int, target: int) -> "QuantumCircuit":
        return self.append(StandardGate("ccx"), (c1, c2, target))

    def ccz(self, c1: int, c2: int, target: int) -> "QuantumCircuit":
        return self.append(StandardGate("ccz"), (c1, c2, target))

    def cswap(self, control: int, a: int, b: int) -> "QuantumCircuit":
        return self.append(StandardGate("cswap"), (control, a, b))

    def ccp(self, theta: float, c1: int, c2: int, target: int) -> "QuantumCircuit":
        return self.append(StandardGate("ccp", (theta,)), (c1, c2, target))

    # multi-controlled composite gates ---------------------------------------

    def mcx(
        self,
        controls: Sequence[int],
        target: int,
        ctrl_state: int | str | None = None,
    ) -> "QuantumCircuit":
        """Multi-controlled X on ``ctrl_state`` (all-ones by default)."""
        gate = ControlledGate(StandardGate("x"), len(controls), ctrl_state, label="mcx")
        return self.append(gate, tuple(controls) + (target,))

    def mcz(
        self,
        controls: Sequence[int],
        target: int,
        ctrl_state: int | str | None = None,
    ) -> "QuantumCircuit":
        gate = ControlledGate(StandardGate("z"), len(controls), ctrl_state, label="mcz")
        return self.append(gate, tuple(controls) + (target,))

    def mcp(
        self,
        theta: float,
        controls: Sequence[int],
        target: int,
        ctrl_state: int | str | None = None,
    ) -> "QuantumCircuit":
        gate = ControlledGate(StandardGate("p", (theta,)), len(controls), ctrl_state, label="mcp")
        return self.append(gate, tuple(controls) + (target,))

    def mcrx(
        self,
        theta: float,
        controls: Sequence[int],
        target: int,
        ctrl_state: int | str | None = None,
    ) -> "QuantumCircuit":
        gate = ControlledGate(StandardGate("rx", (theta,)), len(controls), ctrl_state, label="mcrx")
        return self.append(gate, tuple(controls) + (target,))

    def mcry(
        self,
        theta: float,
        controls: Sequence[int],
        target: int,
        ctrl_state: int | str | None = None,
    ) -> "QuantumCircuit":
        gate = ControlledGate(StandardGate("ry", (theta,)), len(controls), ctrl_state, label="mcry")
        return self.append(gate, tuple(controls) + (target,))

    def mcrz(
        self,
        theta: float,
        controls: Sequence[int],
        target: int,
        ctrl_state: int | str | None = None,
    ) -> "QuantumCircuit":
        gate = ControlledGate(StandardGate("rz", (theta,)), len(controls), ctrl_state, label="mcrz")
        return self.append(gate, tuple(controls) + (target,))

    def mc_unitary(
        self,
        matrix: np.ndarray,
        controls: Sequence[int],
        targets: Sequence[int],
        ctrl_state: int | str | None = None,
        label: str = "mcu",
    ) -> "QuantumCircuit":
        gate = ControlledGate(UnitaryGate(matrix, label=label), len(controls), ctrl_state)
        return self.append(gate, tuple(controls) + tuple(targets))

    def unitary(
        self, matrix: np.ndarray, qubits: Sequence[int], label: str = "unitary"
    ) -> "QuantumCircuit":
        return self.append(UnitaryGate(matrix, label=label), tuple(qubits))

    # ------------------------------------------------------------------ queries

    def depth(self, *, min_qubits: int = 1) -> int:
        """Circuit depth counting gates acting on at least ``min_qubits`` qubits."""
        levels = [0] * max(self.num_qubits, 1)
        depth = 0
        for instr in self._instructions:
            if len(instr.qubits) < min_qubits:
                continue
            level = 1 + max((levels[q] for q in instr.qubits), default=0)
            for q in instr.qubits:
                levels[q] = level
            depth = max(depth, level)
        return depth

    def two_qubit_depth(self) -> int:
        """Depth counting only gates acting on two or more qubits."""
        return self.depth(min_qubits=2)

    def size(self) -> int:
        """Total number of instructions."""
        return len(self._instructions)

    def count_ops(self) -> dict[str, int]:
        """Histogram of gate names."""
        return dict(Counter(instr.name for instr in self._instructions))

    def num_two_qubit_gates(self) -> int:
        """Number of gates acting on exactly two qubits."""
        return sum(1 for instr in self._instructions if len(instr.qubits) == 2)

    def num_multi_qubit_gates(self) -> int:
        """Number of gates acting on three or more qubits."""
        return sum(1 for instr in self._instructions if len(instr.qubits) >= 3)

    def num_rotation_gates(self) -> int:
        """Number of gates carrying a continuous parameter (arbitrary rotations)."""
        return sum(1 for instr in self._instructions if instr.gate.is_rotation())

    def qubits_used(self) -> tuple[int, ...]:
        used: set[int] = set()
        for instr in self._instructions:
            used.update(instr.qubits)
        return tuple(sorted(used))

    # ------------------------------------------------------------------ output

    def draw(self, max_instructions: int = 80) -> str:
        """Crude text rendering: one line per instruction."""
        lines = [f"{self.name} ({self.num_qubits} qubits, depth {self.depth()})"]
        for i, instr in enumerate(self._instructions[:max_instructions]):
            params = getattr(instr.gate, "params", ())
            param_str = f"({', '.join(f'{p:.4g}' for p in params)})" if params else ""
            lines.append(f"  {i:3d}: {instr.name}{param_str} {list(instr.qubits)}")
        if len(self._instructions) > max_instructions:
            lines.append(f"  ... {len(self._instructions) - max_instructions} more")
        return "\n".join(lines)
