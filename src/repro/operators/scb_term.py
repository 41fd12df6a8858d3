"""Tensor-product terms over the Single Component Basis (Eq. 4 of the paper).

An :class:`SCBTerm` is ``coefficient · O_0 ⊗ O_1 ⊗ ... ⊗ O_{N-1}`` with each
factor drawn from ``{I, X, Y, Z, n, m, σ, σ†}``.  It is the native object of
the paper's *direct* strategy: problems are expressed as sums of such terms
(a :class:`~repro.operators.hamiltonian.Hamiltonian`), each term is gathered
with its Hermitian conjugate, and each gathered pair is exponentiated exactly
by :mod:`repro.core.direct_evolution`.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from repro.exceptions import OperatorError
from repro.operators.single_component import Family, SCBOperator
from repro.utils.bits import bits_to_int


@dataclass(frozen=True)
class SCBTerm:
    """A weighted tensor product of Single Component Basis operators."""

    coefficient: complex
    factors: tuple[SCBOperator, ...] = field(default_factory=tuple)

    # ------------------------------------------------------------ constructors

    @classmethod
    def from_label(cls, label: str, coefficient: complex = 1.0) -> "SCBTerm":
        """Build a term from a character string, e.g. ``"nmmXYdnssssdYZds"``.

        One character per qubit using the labels of
        :meth:`SCBOperator.from_label` (``I X Y Z n m s d`` with aliases).
        """
        return cls(complex(coefficient), tuple(map(SCBOperator.from_label, label)))

    @classmethod
    def from_sparse_label(
        cls, ops: Mapping[int, str | SCBOperator], num_qubits: int, coefficient: complex = 1.0
    ) -> "SCBTerm":
        """Build a term from a ``{qubit: operator}`` mapping, identity elsewhere."""
        factors = [SCBOperator.I] * num_qubits
        for qubit, op in ops.items():
            if not 0 <= qubit < num_qubits:
                raise OperatorError(f"qubit {qubit} out of range for {num_qubits} qubits")
            factors[qubit] = op if isinstance(op, SCBOperator) else SCBOperator.from_label(op)
        return cls(complex(coefficient), tuple(factors))

    @classmethod
    def identity(cls, num_qubits: int, coefficient: complex = 1.0) -> "SCBTerm":
        return cls(complex(coefficient), tuple([SCBOperator.I] * num_qubits))

    # ------------------------------------------------------------------ basics

    @property
    def num_qubits(self) -> int:
        return len(self.factors)

    @cached_property
    def label(self) -> str:
        """One character per factor; built once (the term is frozen)."""
        return "".join(op.label for op in self.factors)

    def __str__(self) -> str:
        return f"{self.coefficient:+.4g}·{self.label}"

    def __repr__(self) -> str:
        coeff = complex(self.coefficient)
        shown = coeff.real if coeff.imag == 0 else coeff
        return f"SCBTerm.from_label({self.label!r}, {shown!r})"

    def with_coefficient(self, coefficient: complex) -> "SCBTerm":
        return SCBTerm(complex(coefficient), self.factors)

    def __mul__(self, scalar: complex) -> "SCBTerm":
        return SCBTerm(self.coefficient * scalar, self.factors)

    __rmul__ = __mul__

    # ------------------------------------------------------------ family views

    def qubits_in_family(self, family: Family) -> tuple[int, ...]:
        return tuple(i for i, op in enumerate(self.factors) if op.family is family)

    @property
    def identity_qubits(self) -> tuple[int, ...]:
        return self.qubits_in_family(Family.IDENTITY)

    @property
    def pauli_qubits(self) -> tuple[int, ...]:
        return self.qubits_in_family(Family.PAULI)

    @property
    def number_qubits(self) -> tuple[int, ...]:
        return self.qubits_in_family(Family.NUMBER)

    @property
    def transition_qubits(self) -> tuple[int, ...]:
        return self.qubits_in_family(Family.TRANSITION)

    @property
    def support(self) -> tuple[int, ...]:
        """Qubits on which the term acts non-trivially."""
        return tuple(i for i, op in enumerate(self.factors) if op is not SCBOperator.I)

    @property
    def order(self) -> int:
        """Number of non-identity factors (the 'order' of the term)."""
        return len(self.support)

    # ------------------------------------------------------ structural queries

    @property
    def is_hermitian(self) -> bool:
        """A term is Hermitian iff it has no transition factor and a real coefficient."""
        return not self.transition_qubits and abs(np.imag(self.coefficient)) < 1e-14

    @property
    def is_diagonal(self) -> bool:
        """Whether the term is diagonal in the computational basis."""
        return all(
            op in (SCBOperator.I, SCBOperator.Z, SCBOperator.N, SCBOperator.M)
            for op in self.factors
        )

    def dagger(self) -> "SCBTerm":
        return SCBTerm(
            np.conj(self.coefficient), tuple(op.dagger() for op in self.factors)
        )

    # ----------------------------------------------------- transition structure

    def transition_kets(self) -> tuple[int, int]:
        """The pair of local states ``(a, b)`` coupled by the transition factors.

        Restricted to the transition qubits (in increasing qubit order), the
        term acts as ``|a⟩⟨b|``; the two bit patterns are each other's one's
        complement (Eq. 6 of the paper).  Raises if the term has no
        transition factor.
        """
        qubits = self.transition_qubits
        if not qubits:
            raise OperatorError("term has no transition factors")
        ket_bits = [self.factors[q].ket_bit for q in qubits]
        bra_bits = [self.factors[q].bra_bit for q in qubits]
        return bits_to_int(ket_bits), bits_to_int(bra_bits)

    def number_key(self) -> int:
        """The control key of the number factors (bit per number qubit, n→1, m→0)."""
        qubits = self.number_qubits
        return bits_to_int([self.factors[q].number_bit for q in qubits]) if qubits else 0

    def pauli_substring(self) -> str:
        """The Pauli labels on the Pauli-family qubits (in increasing qubit order)."""
        return "".join(self.factors[q].label for q in self.pauli_qubits)

    # --------------------------------------------------------------- matrices

    def matrix(self, sparse: bool = False) -> np.ndarray | sp.spmatrix:
        """Matrix of the term (including its coefficient)."""
        if self.num_qubits == 0:
            mat = sp.csr_matrix(np.array([[self.coefficient]], dtype=complex))
            return mat if sparse else np.asarray(mat.todense())
        result: sp.spmatrix = sp.identity(1, dtype=complex, format="csr")
        for op in self.factors:
            result = sp.kron(result, sp.csr_matrix(op.matrix), format="csr")
        result = result * self.coefficient
        return result if sparse else np.asarray(result.todense())

    def hermitian_matrix(self, sparse: bool = False) -> np.ndarray | sp.spmatrix:
        """Matrix of ``term + h.c.`` (the gathered Hermitian fragment, Eq. 5)."""
        mat = self.matrix(sparse=True)
        herm = mat + mat.conj().T.tocsr()
        return herm if sparse else np.asarray(herm.todense())

    # ----------------------------------------------------------------- algebra

    def compose(self, other: "SCBTerm") -> "SCBTerm | None":
        """Operator product ``self · other`` (``None`` when the product vanishes).

        Uses the closure of the SCB ⊗ Pauli algebra (Cayley Table IV of the
        paper): the product of any two basis operators is a complex multiple
        of a basis operator or zero.
        """
        from repro.operators.algebra import single_qubit_product

        if other.num_qubits != self.num_qubits:
            raise OperatorError("terms act on different numbers of qubits")
        coeff = self.coefficient * other.coefficient
        factors = []
        for a, b in zip(self.factors, other.factors):
            scale, op = single_qubit_product(a, b)
            if op is None:
                return None
            coeff *= scale
            factors.append(op)
        if abs(coeff) < 1e-15:
            return None
        return SCBTerm(coeff, tuple(factors))

    # ----------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        """Canonical JSON-able form: character label plus ``[re, im]`` coefficient."""
        from repro.utils.serialization import complex_to_json

        return {"label": self.label, "coefficient": complex_to_json(self.coefficient)}

    @classmethod
    def from_dict(cls, payload: dict) -> "SCBTerm":
        """Inverse of :meth:`to_dict`."""
        from repro.utils.serialization import complex_from_json

        return cls.from_label(payload["label"], complex_from_json(payload["coefficient"]))

    def sort_key(self) -> tuple:
        """Deterministic ordering key used by canonical Hamiltonian serialization."""
        coeff = complex(self.coefficient)
        return (self.label, coeff.real, coeff.imag)

    # ------------------------------------------------------------- conversions

    def embed(self, num_qubits: int, qubits: Sequence[int] | None = None) -> "SCBTerm":
        """Embed the term into a larger register (identity on the new qubits)."""
        if qubits is None:
            qubits = range(self.num_qubits)
        qubits = tuple(qubits)
        if len(qubits) != self.num_qubits:
            raise OperatorError("qubit map length does not match the term width")
        factors = [SCBOperator.I] * num_qubits
        for op, q in zip(self.factors, qubits):
            if not 0 <= q < num_qubits:
                raise OperatorError(f"qubit {q} out of range for {num_qubits} qubits")
            factors[q] = op
        return SCBTerm(self.coefficient, tuple(factors))
