"""The Single Component Basis (SCB) of the paper (Table I).

The basis consists of the eight single-qubit operators

====== ======================= ==========================
label  matrix                  family
====== ======================= ==========================
``I``  identity                identity
``X``  Pauli X                 Pauli
``Y``  Pauli Y                 Pauli
``Z``  Pauli Z                 Pauli
``n``  ``|1⟩⟨1|``              number (excitation count)
``m``  ``|0⟩⟨0|``              number (hole count)
``s``  ``σ  = |1⟩⟨0|``          transition (excitation)
``d``  ``σ† = |0⟩⟨1|``          transition (de-excitation)
====== ======================= ==========================

following the matrix definitions of Table I of the paper
(``σ = [[0,0],[1,0]]``, ``σ† = [[0,1],[0,0]]``, ``n = diag(0,1)``,
``m = diag(1,0)``).  Each operator knows its Pauli expansion, its Hermitian
conjugate and its *family*, which is what the direct-evolution circuit
construction of Section III dispatches on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.exceptions import OperatorError


class Family(enum.Enum):
    """The four operator families of Section III."""

    IDENTITY = "identity"
    PAULI = "pauli"
    NUMBER = "number"
    TRANSITION = "transition"


_SIGMA = np.array([[0, 0], [1, 0]], dtype=complex)
_SIGMA_DAG = np.array([[0, 1], [0, 0]], dtype=complex)
_NUM = np.array([[0, 0], [0, 1]], dtype=complex)
_HOLE = np.array([[1, 0], [0, 0]], dtype=complex)
_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class _OpData:
    label: str
    matrix_: tuple  # stored as nested tuple for hashability
    family: Family
    dagger_label: str
    # Pauli expansion: mapping pauli_char -> complex coefficient
    pauli_expansion: tuple[tuple[str, complex], ...]


class SCBOperator(enum.Enum):
    """Single-qubit operator of the Single Component Basis."""

    I = _OpData("I", tuple(map(tuple, _I)), Family.IDENTITY, "I", (("I", 1.0),))
    X = _OpData("X", tuple(map(tuple, _X)), Family.PAULI, "X", (("X", 1.0),))
    Y = _OpData("Y", tuple(map(tuple, _Y)), Family.PAULI, "Y", (("Y", 1.0),))
    Z = _OpData("Z", tuple(map(tuple, _Z)), Family.PAULI, "Z", (("Z", 1.0),))
    N = _OpData("n", tuple(map(tuple, _NUM)), Family.NUMBER, "n",
                (("I", 0.5), ("Z", -0.5)))
    M = _OpData("m", tuple(map(tuple, _HOLE)), Family.NUMBER, "m",
                (("I", 0.5), ("Z", 0.5)))
    # σ = |1⟩⟨0| raises the computational-basis value 0 -> 1; its Pauli
    # expansion is (X - iY)/2 for the matrix convention of Table I.
    SIGMA = _OpData("s", tuple(map(tuple, _SIGMA)), Family.TRANSITION, "d",
                    (("X", 0.5), ("Y", -0.5j)))
    SIGMA_DAG = _OpData("d", tuple(map(tuple, _SIGMA_DAG)), Family.TRANSITION, "s",
                        (("X", 0.5), ("Y", 0.5j)))

    # ------------------------------------------------------------------ access

    @property
    def label(self) -> str:
        return self.value.label

    @property
    def matrix(self) -> np.ndarray:
        return np.array(self.value.matrix_, dtype=complex)

    @property
    def family(self) -> Family:
        return self.value.family

    @property
    def is_hermitian(self) -> bool:
        return self.family is not Family.TRANSITION

    def dagger(self) -> "SCBOperator":
        return SCBOperator.from_label(self.value.dagger_label)

    @property
    def pauli_expansion(self) -> dict[str, complex]:
        """Expansion onto ``{I, X, Y, Z}`` (Table I of the paper)."""
        return {p: complex(c) for p, c in self.value.pauli_expansion}

    # ------------------------------------------------------------ constructors

    @classmethod
    def from_label(cls, label: str) -> "SCBOperator":
        """Parse a one-character label.

        Accepted spellings: ``I X Y Z n m s d`` plus the aliases ``N``→``n``,
        ``M``→``m``, ``+``→``σ`` (= ``s``), ``-``→``σ†`` (= ``d``), ``S``→``s``,
        ``D``→``d``.
        """
        op = _BY_LABEL.get(label)
        if op is None:
            raise OperatorError(f"unknown Single Component Basis label {label!r}")
        return op

    # --------------------------------------------------------------- transition

    @property
    def ket_bit(self) -> int | None:
        """For transition operators, the bit value of the ket side (``|ket⟩⟨bra|``)."""
        if self is SCBOperator.SIGMA:
            return 1
        if self is SCBOperator.SIGMA_DAG:
            return 0
        return None

    @property
    def bra_bit(self) -> int | None:
        """For transition operators, the bit value of the bra side."""
        if self is SCBOperator.SIGMA:
            return 0
        if self is SCBOperator.SIGMA_DAG:
            return 1
        return None

    @property
    def number_bit(self) -> int | None:
        """For number operators, the basis value they project onto."""
        if self is SCBOperator.N:
            return 1
        if self is SCBOperator.M:
            return 0
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"SCBOperator({self.label})"


#: Every accepted one-character spelling → its operator (see
#: :meth:`SCBOperator.from_label`); term labels parse through it one lookup
#: per character.
_BY_LABEL: dict[str, SCBOperator] = {
    "I": SCBOperator.I, "X": SCBOperator.X, "Y": SCBOperator.Y, "Z": SCBOperator.Z,
    "n": SCBOperator.N, "N": SCBOperator.N, "m": SCBOperator.M, "M": SCBOperator.M,
    "s": SCBOperator.SIGMA, "S": SCBOperator.SIGMA, "+": SCBOperator.SIGMA,
    "d": SCBOperator.SIGMA_DAG, "D": SCBOperator.SIGMA_DAG, "-": SCBOperator.SIGMA_DAG,
}

#: The eight operators in a canonical order (matches Table IV of the paper).
ALL_SCB_OPERATORS: tuple[SCBOperator, ...] = (
    SCBOperator.M,
    SCBOperator.N,
    SCBOperator.SIGMA,
    SCBOperator.SIGMA_DAG,
    SCBOperator.Z,
    SCBOperator.X,
    SCBOperator.Y,
    SCBOperator.I,
)

PAULI_LABELS = ("I", "X", "Y", "Z")


def pauli_matrix(label: str) -> np.ndarray:
    """Matrix of a single Pauli label."""
    table = {"I": _I, "X": _X, "Y": _Y, "Z": _Z}
    if label not in table:
        raise OperatorError(f"unknown Pauli label {label!r}")
    return table[label].copy()
