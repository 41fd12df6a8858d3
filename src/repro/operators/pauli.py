"""Pauli strings and sums of Pauli strings.

These classes implement the "usual strategy" side of the paper's comparison:
the problem Hamiltonian expressed as a Linear Combination of Unitaries over
Pauli strings (Eq. 2).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.exceptions import OperatorError
from repro.operators.single_component import PAULI_LABELS, pauli_matrix

# Single-qubit Pauli multiplication table: (a, b) -> (phase, result).  Derived
# from the matrices on first use (not at import time) so that `import repro`
# never pays for the 16 products — see also the lazy Cayley table of
# :mod:`repro.operators.algebra`.
_PAULI_PRODUCT: dict[tuple[str, str], tuple[complex, str]] | None = None


def _pauli_product_table() -> dict[tuple[str, str], tuple[complex, str]]:
    global _PAULI_PRODUCT
    if _PAULI_PRODUCT is None:
        table: dict[tuple[str, str], tuple[complex, str]] = {}
        for a in PAULI_LABELS:
            for b in PAULI_LABELS:
                prod = pauli_matrix(a) @ pauli_matrix(b)
                for c in PAULI_LABELS:
                    overlap = np.trace(pauli_matrix(c).conj().T @ prod) / 2.0
                    if abs(overlap) > 1e-12:
                        table[(a, b)] = (complex(overlap), c)
                        break
        _PAULI_PRODUCT = table
    return _PAULI_PRODUCT


@dataclass(frozen=True)
class PauliString:
    """A tensor product of single-qubit Pauli operators (no coefficient).

    ``labels`` is a string over ``IXYZ``; index 0 is qubit 0 (most significant
    bit in the matrix representation).
    """

    labels: str

    def __post_init__(self) -> None:
        if not self.labels or any(c not in "IXYZ" for c in self.labels):
            raise OperatorError(f"invalid Pauli string {self.labels!r}")

    # ------------------------------------------------------------------ basics

    @property
    def num_qubits(self) -> int:
        return len(self.labels)

    @property
    def weight(self) -> int:
        """Number of non-identity factors."""
        return sum(1 for c in self.labels if c != "I")

    @property
    def support(self) -> tuple[int, ...]:
        """Qubits on which the string acts non-trivially."""
        return tuple(i for i, c in enumerate(self.labels) if c != "I")

    def __getitem__(self, qubit: int) -> str:
        return self.labels[qubit]

    def __str__(self) -> str:
        return self.labels

    # --------------------------------------------------------------- matrices

    def matrix(self, sparse: bool = False) -> np.ndarray | sp.spmatrix:
        """Dense or sparse matrix of the string."""
        result: sp.spmatrix = sp.identity(1, dtype=complex, format="csr")
        for label in self.labels:
            result = sp.kron(result, sp.csr_matrix(pauli_matrix(label)), format="csr")
        return result if sparse else np.asarray(result.todense())

    # ---------------------------------------------------------------- algebra

    def compose(self, other: "PauliString") -> tuple[complex, "PauliString"]:
        """Product ``self · other`` as ``(phase, PauliString)``."""
        if other.num_qubits != self.num_qubits:
            raise OperatorError("Pauli strings act on different numbers of qubits")
        phase: complex = 1.0
        labels = []
        table = _pauli_product_table()
        for a, b in zip(self.labels, other.labels):
            p, c = table[(a, b)]
            phase *= p
            labels.append(c)
        return phase, PauliString("".join(labels))

    def commutes_with(self, other: "PauliString") -> bool:
        """Whether the two strings commute (they either commute or anticommute)."""
        anti = sum(
            1
            for a, b in zip(self.labels, other.labels)
            if a != "I" and b != "I" and a != b
        )
        return anti % 2 == 0

    def expand(self, num_qubits: int, qubits: Sequence[int] | None = None) -> "PauliString":
        """Embed the string into a larger register."""
        if qubits is None:
            qubits = range(self.num_qubits)
        labels = ["I"] * num_qubits
        for label, q in zip(self.labels, qubits):
            labels[q] = label
        return PauliString("".join(labels))


class PauliOperator:
    """A complex linear combination of Pauli strings (an LCU, Eq. 2)."""

    def __init__(self, terms: Mapping[PauliString | str, complex] | None = None):
        self._terms: dict[PauliString, complex] = {}
        if terms:
            for key, coeff in terms.items():
                string = key if isinstance(key, PauliString) else PauliString(key)
                self._add(string, complex(coeff))

    # ------------------------------------------------------------------ basics

    def _add(self, string: PauliString, coeff: complex) -> None:
        if self._terms and string.num_qubits != self.num_qubits:
            raise OperatorError("mixing Pauli strings of different widths")
        new = self._terms.get(string, 0.0) + coeff
        if abs(new) < 1e-14:
            self._terms.pop(string, None)
        else:
            self._terms[string] = new

    @property
    def num_qubits(self) -> int:
        if not self._terms:
            return 0
        return next(iter(self._terms)).num_qubits

    @property
    def num_terms(self) -> int:
        return len(self._terms)

    def items(self) -> Iterable[tuple[PauliString, complex]]:
        return self._terms.items()

    def coefficients(self) -> dict[str, complex]:
        return {str(k): v for k, v in self._terms.items()}

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self):
        return iter(self._terms.items())

    def __getitem__(self, key: PauliString | str) -> complex:
        string = key if isinstance(key, PauliString) else PauliString(key)
        return self._terms.get(string, 0.0)

    def copy(self) -> "PauliOperator":
        # The terms are validated and merged already: copy the dict as is.
        out = PauliOperator()
        out._terms = dict(self._terms)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        parts = [f"{coeff:+.4g}·{string}" for string, coeff in list(self._terms.items())[:6]]
        suffix = " + ..." if len(self._terms) > 6 else ""
        return f"PauliOperator({' '.join(parts)}{suffix})"

    # ---------------------------------------------------------------- algebra

    def __add__(self, other: "PauliOperator") -> "PauliOperator":
        out = self.copy()
        for string, coeff in other.items():
            out._add(string, coeff)
        return out

    def __sub__(self, other: "PauliOperator") -> "PauliOperator":
        return self + (other * -1.0)

    def __mul__(self, scalar: complex) -> "PauliOperator":
        return PauliOperator({k: v * scalar for k, v in self._terms.items()})

    __rmul__ = __mul__

    def compose(self, other: "PauliOperator") -> "PauliOperator":
        """Operator product ``self · other``."""
        out = PauliOperator()
        for sa, ca in self.items():
            for sb, cb in other.items():
                phase, string = sa.compose(sb)
                out._add(string, ca * cb * phase)
        return out

    def dagger(self) -> "PauliOperator":
        """Hermitian conjugate (Pauli strings are Hermitian, coefficients conjugate)."""
        return PauliOperator({k: np.conj(v) for k, v in self._terms.items()})

    def is_hermitian(self, atol: float = 1e-10) -> bool:
        return all(abs(v.imag) < atol for v in self._terms.values())

    def simplify(self, atol: float = 1e-12) -> "PauliOperator":
        return PauliOperator({k: v for k, v in self._terms.items() if abs(v) > atol})

    # --------------------------------------------------------------- matrices

    def matrix(self, sparse: bool = False, num_qubits: int | None = None):
        """Dense or sparse matrix of the operator."""
        n = num_qubits if num_qubits is not None else self.num_qubits
        dim = 1 << n
        result = sp.csr_matrix((dim, dim), dtype=complex)
        for string, coeff in self._terms.items():
            result = result + coeff * string.expand(n).matrix(sparse=True)
        return result if sparse else np.asarray(result.todense())

    # ------------------------------------------------------------------ norms

    def one_norm(self) -> float:
        """Sum of absolute coefficients (the LCU normalisation λ)."""
        return float(sum(abs(v) for v in self._terms.values()))

    def weight_histogram(self) -> dict[int, int]:
        """Number of strings per Pauli weight (the 'order' of each fragment)."""
        hist: dict[int, int] = {}
        for string in self._terms:
            hist[string.weight] = hist.get(string.weight, 0) + 1
        return hist
