"""Gate objects and circuit instructions.

Three concrete gate types cover everything the library needs:

* :class:`StandardGate` — named gates from the registry in
  :mod:`repro.circuits.standard_gates` (``x``, ``h``, ``rx``, ``cx``, ...).
* :class:`UnitaryGate` — an explicit unitary matrix on ``k`` qubits.
* :class:`ControlledGate` — an arbitrary base gate controlled by ``n`` extra
  qubits on a chosen control bit pattern (``ctrl_state``).  This is the
  natural representation of the paper's ``C^nX{|a⟩;|b⟩}``, ``C^nZ{|a⟩}`` and
  multi-controlled rotation gates before they are decomposed into one- and
  two-qubit gates.

An :class:`Instruction` binds a gate to the circuit qubits it acts on.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.circuits.standard_gates import (
    ROTATION_GATES,
    STANDARD_GATES,
    standard_gate_matrix,
)
from repro.exceptions import GateError
from repro.utils.bits import int_to_bits
from repro.utils.linalg import dagger, is_unitary


class Gate:
    """Abstract base class of every gate."""

    #: Short name used in gate counts and drawings.
    name: str = "gate"

    @property
    def num_qubits(self) -> int:
        raise NotImplementedError

    def matrix(self) -> np.ndarray:
        """Dense ``2^k × 2^k`` unitary of the gate (first qubit = MSB)."""
        raise NotImplementedError

    def inverse(self) -> "Gate":
        """Gate implementing the inverse unitary."""
        raise NotImplementedError

    # -- classification helpers -------------------------------------------------

    def is_rotation(self) -> bool:
        """Whether the gate carries a continuous (rotation/phase) parameter."""
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({self.name}, qubits={self.num_qubits})"


#: Parameterless gates whose inverse is another named gate.
_INVERSE_PAIRS = {"s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t"}

#: Parameterless gates that are their own inverse.
_SELF_INVERSE = frozenset(
    {"id", "x", "y", "z", "h", "cx", "cy", "cz", "ch", "swap", "ccx", "ccz",
     "cswap", "fswap"}
)


class StandardGate(Gate):
    """A named gate from the standard registry."""

    def __init__(self, name: str, params: Sequence[float] = ()):
        self.name = name
        self.params = tuple(float(p) for p in params)
        # Fail fast on an unknown name or a wrong number of parameters, from
        # the registry alone: building the matrix here would cost every gate
        # (and every inverse) a matrix it may never need.
        if name not in STANDARD_GATES:
            raise GateError(f"unknown standard gate {name!r}")
        self._num_qubits, num_params, _ = STANDARD_GATES[name]
        if len(self.params) != num_params:
            raise GateError(
                f"gate {name!r} expects {num_params} parameter(s), got {len(self.params)}"
            )

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    def matrix(self) -> np.ndarray:
        return standard_gate_matrix(self.name, self.params)

    def inverse(self) -> "Gate":
        if self.name in _INVERSE_PAIRS:
            return StandardGate(_INVERSE_PAIRS[self.name], ())
        if self.name in _SELF_INVERSE:
            return self  # parameterless and never mutated, so safe to share
        if self.name == "u":
            theta, phi, lam = self.params
            return StandardGate("u", (-theta, -lam, -phi))
        if self.name == "rxy":
            tx, ty = self.params
            return StandardGate("rxy", (-tx, -ty))
        if self.params:
            return StandardGate(self.name, tuple(-p for p in self.params))
        # Fallback for gates without a symbolic inverse (iswap, sx).
        return UnitaryGate(dagger(self.matrix()), label=f"{self.name}_dg")

    def is_rotation(self) -> bool:
        return self.name in ROTATION_GATES

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, StandardGate)
            and other.name == self.name
            and np.allclose(other.params, self.params)
        )

    def __hash__(self) -> int:
        # Equality compares parameters with a tolerance, so the hash may only
        # read what equal gates share exactly: the name and parameter count.
        return hash((self.name, len(self.params)))


class UnitaryGate(Gate):
    """A gate defined by an explicit unitary matrix."""

    def __init__(self, matrix: np.ndarray, label: str = "unitary", *, check: bool = True):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise GateError(f"unitary gate matrix must be square, got {matrix.shape}")
        dim = matrix.shape[0]
        if dim & (dim - 1) or dim == 0:
            raise GateError(f"unitary gate dimension must be a power of two, got {dim}")
        if check and not is_unitary(matrix, atol=1e-8):
            raise GateError("matrix is not unitary")
        self._matrix = matrix
        self.name = label
        self._num_qubits = dim.bit_length() - 1

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    def matrix(self) -> np.ndarray:
        return self._matrix.copy()

    def inverse(self) -> "Gate":
        return UnitaryGate(dagger(self._matrix), label=f"{self.name}_dg", check=False)


#: The name the fusion pass (and third-party passes) use for an explicit-matrix
#: gate.  ``MatrixGate`` and ``UnitaryGate`` are the same class; the alias
#: exists so call sites can say what they mean ("a computed matrix") rather
#: than how it is stored.
MatrixGate = UnitaryGate


class ControlledGate(Gate):
    """``base`` gate applied when the control qubits are in ``ctrl_state``.

    The control qubits come *first* in the instruction qubit list, in the same
    order as the bits of ``ctrl_state`` (most significant bit first), followed
    by the target qubits of the base gate.
    """

    def __init__(self, base: Gate, num_ctrl: int, ctrl_state: int | str | None = None,
                 label: str | None = None):
        if num_ctrl < 1:
            raise GateError("a controlled gate needs at least one control qubit")
        if ctrl_state is None:
            ctrl_state = (1 << num_ctrl) - 1
        if isinstance(ctrl_state, str):
            if len(ctrl_state) != num_ctrl or any(c not in "01" for c in ctrl_state):
                raise GateError(f"invalid ctrl_state string {ctrl_state!r}")
            ctrl_state = int(ctrl_state, 2)
        if not 0 <= ctrl_state < (1 << num_ctrl):
            raise GateError(
                f"ctrl_state {ctrl_state} out of range for {num_ctrl} control qubits"
            )
        self.base = base
        self.num_ctrl = num_ctrl
        self.ctrl_state = int(ctrl_state)
        self.name = label if label is not None else f"c{num_ctrl}-{base.name}"

    @property
    def num_qubits(self) -> int:
        return self.num_ctrl + self.base.num_qubits

    @property
    def ctrl_bits(self) -> tuple[int, ...]:
        """Control bit pattern, one bit per control qubit (first control first)."""
        return int_to_bits(self.ctrl_state, self.num_ctrl)

    def matrix(self) -> np.ndarray:
        base_dim = 1 << self.base.num_qubits
        dim = 1 << self.num_qubits
        out = np.eye(dim, dtype=complex)
        start = self.ctrl_state * base_dim
        out[start:start + base_dim, start:start + base_dim] = self.base.matrix()
        return out

    def inverse(self) -> "Gate":
        return ControlledGate(self.base.inverse(), self.num_ctrl, self.ctrl_state)

    def is_rotation(self) -> bool:
        return self.base.is_rotation()


@dataclass(frozen=True)
class Instruction:
    """A gate bound to specific circuit qubits."""

    gate: Gate
    qubits: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if len(self.qubits) != self.gate.num_qubits:
            raise GateError(
                f"gate {self.gate.name!r} acts on {self.gate.num_qubits} qubits, "
                f"got {len(self.qubits)} qubit indices"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise GateError(f"duplicate qubits in instruction: {self.qubits}")

    @property
    def name(self) -> str:
        return self.gate.name

    def inverse(self) -> "Instruction":
        return Instruction(self.gate.inverse(), self.qubits)
