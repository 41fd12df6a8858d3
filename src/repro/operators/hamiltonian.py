"""Hamiltonians as sums of Single Component Basis terms (Eq. 4 / Eq. 5).

A :class:`Hamiltonian` stores a list of :class:`~repro.operators.scb_term.SCBTerm`
objects.  :meth:`Hamiltonian.hermitian_fragments` gathers each non-Hermitian
term with its Hermitian conjugate (Eq. 5) — the fragments are exactly the
operators the direct strategy exponentiates one by one, and the unit the
block-encoding of Section IV works with.
"""

from __future__ import annotations

import marshal
import threading
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.exceptions import OperatorError
from repro.operators.conversion import scb_term_to_pauli
from repro.operators.pauli import PauliOperator
from repro.operators.scb_term import SCBTerm


@dataclass(frozen=True)
class HermitianFragment:
    """A gathered Hermitian fragment ``γ·A + h.c.`` (or a Hermitian term itself).

    Attributes
    ----------
    term:
        The representative SCB term ``γ·A``.
    include_hc:
        Whether the Hermitian conjugate must be added to form the fragment.
        ``False`` for terms that are already Hermitian (no transition factor
        and a real coefficient), in which case the fragment is the term alone.
    """

    term: SCBTerm
    include_hc: bool

    @property
    def num_qubits(self) -> int:
        return self.term.num_qubits

    def matrix(self, sparse: bool = False):
        """Matrix of the fragment."""
        if self.include_hc:
            return self.term.hermitian_matrix(sparse=sparse)
        return self.term.matrix(sparse=sparse)

    def to_pauli(self) -> PauliOperator:
        """Pauli expansion of the fragment (for the usual-strategy baseline)."""
        pauli = scb_term_to_pauli(self.term)
        if self.include_hc:
            pauli = pauli + scb_term_to_pauli(self.term.dagger())
        return pauli.simplify()


class _CanonicalForm(NamedTuple):
    """One Hamiltonian version in canonical form, computed once per version."""

    version: int
    terms: tuple[SCBTerm, ...]  # sorted by SCBTerm.sort_key (stable)
    #: ``order[j]`` is the as-written index of ``terms[j]``: with ``digest`` an
    #: exact, order-sensitive identity of the as-written term list.
    order: tuple[int, ...]
    payload: tuple[tuple[str, float, float], ...]  # (label, re, im) per term
    digest: str


def _canonical_dict(num_qubits: int, payload: Sequence[tuple]) -> dict:
    """The canonical JSON-able form, built fresh from a cached payload."""
    return {
        "num_qubits": num_qubits,
        "terms": [
            {"label": label, "coefficient": [re, im]} for label, re, im in payload
        ],
    }


#: Parsed term payloads, so each distinct one is parsed (and sorted and
#: hashed) once per process.  Keyed on the payload's ``marshal`` bytes in
#: format 2 (no back-references, so equal payloads give equal bytes): they
#: record exact types, float bits and container order, so two payloads that
#: could parse differently (``-0.0`` and ``0.0``, ``1`` and ``1.0``) never
#: share a key.  Each entry is ``(num_qubits, as-written terms, canonical
#: form)``, all immutable.  A bounded LRU (hits move to the back, eviction
#: pops the front) shared by every thread under one lock.
_PARSED: "dict[bytes, tuple[int, tuple[SCBTerm, ...], _CanonicalForm]]" = {}
_PARSED_CAP = 64
_PARSED_LOCK = threading.Lock()

#: Pauli expansions, keyed on ``(sequence_key(), include_hc)``: order-
#: sensitive, because string order is the ``pauli`` Trotter product's order,
#: and invalidated by ``add_term`` through the sequence key.  A bounded LRU
#: like :data:`_PARSED`, shared by every thread under one lock; callers only
#: ever get copies, so mutating a result cannot reach the stored operator.
_PAULI: "dict[tuple, PauliOperator]" = {}
_PAULI_CAP = 64
_PAULI_LOCK = threading.Lock()


class Hamiltonian:
    """A sum of SCB terms, the native problem description of the direct strategy."""

    def __init__(self, num_qubits: int, terms: Iterable[SCBTerm] = ()):
        if num_qubits < 0:
            raise OperatorError("num_qubits must be non-negative")
        self.num_qubits = int(num_qubits)
        self._terms: list[SCBTerm] = []
        self._evolve_matrix: sp.spmatrix | None = None
        # Mutation counter: bumped by every add_term so derived caches — the
        # CSC evolution matrix above and the canonical form below — can never
        # go stale on an in-place edit.
        self._version = 0
        self._form: _CanonicalForm | None = None
        for term in terms:
            self.add_term(term)

    @classmethod
    def _from_form(
        cls, num_qubits: int, terms: Sequence[SCBTerm], form: _CanonicalForm
    ) -> "Hamiltonian":
        """A new Hamiltonian over already-validated terms, sharing ``form``."""
        ham = cls(num_qubits)
        ham._terms = list(terms)
        ham._version = form.version
        ham._form = form
        return ham

    # ------------------------------------------------------------ constructors

    @classmethod
    def from_labels(
        cls,
        num_qubits: int,
        terms: "Mapping[str, complex] | Iterable[tuple[str, complex]]",
        ) -> "Hamiltonian":
        """Build a whole Hamiltonian in one expression from label → coefficient.

        ``Hamiltonian.from_labels(4, {"nsdI": 0.8, "IZZI": 0.3})`` — each key
        is a character label (one factor per qubit, see
        :meth:`SCBTerm.from_label`).  An iterable of ``(label, coefficient)``
        pairs is accepted too, which allows repeated labels.
        """
        pairs = terms.items() if isinstance(terms, Mapping) else terms
        ham = cls(num_qubits)
        for label, coefficient in pairs:
            ham.add_term(SCBTerm.from_label(label, coefficient))
        return ham

    # ------------------------------------------------------------------ basics

    def add_term(self, term: SCBTerm) -> "Hamiltonian":
        if term.num_qubits != self.num_qubits:
            raise OperatorError(
                f"term acts on {term.num_qubits} qubits, Hamiltonian has {self.num_qubits}"
            )
        if abs(term.coefficient) > 1e-15:
            self._terms.append(term)
            self._evolve_matrix = None
            self._version += 1
        return self

    @property
    def version(self) -> int:
        """Monotonic mutation counter (bumped by :meth:`add_term`)."""
        return self._version

    def add_label(self, label: str, coefficient: complex = 1.0) -> "Hamiltonian":
        """Convenience: add a term from its character label."""
        return self.add_term(SCBTerm.from_label(label, coefficient))

    def add_sparse(self, ops: dict[int, str], coefficient: complex = 1.0) -> "Hamiltonian":
        """Convenience: add a term from a ``{qubit: operator-label}`` mapping."""
        return self.add_term(SCBTerm.from_sparse_label(ops, self.num_qubits, coefficient))

    @property
    def terms(self) -> tuple[SCBTerm, ...]:
        return tuple(self._terms)

    @property
    def num_terms(self) -> int:
        return len(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[SCBTerm]:
        return iter(self._terms)

    def __add__(self, other: "Hamiltonian") -> "Hamiltonian":
        if other.num_qubits != self.num_qubits:
            raise OperatorError("cannot add Hamiltonians on different numbers of qubits")
        return Hamiltonian(self.num_qubits, list(self._terms) + list(other._terms))

    def __mul__(self, scalar: complex) -> "Hamiltonian":
        return Hamiltonian(self.num_qubits, [t * scalar for t in self._terms])

    __rmul__ = __mul__

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Hamiltonian({self.num_qubits} qubits, {self.num_terms} terms)"

    def copy(self) -> "Hamiltonian":
        return Hamiltonian(self.num_qubits, list(self._terms))

    # ----------------------------------------------------------- serialization

    def to_dict(self, *, canonical: bool = False) -> dict:
        """JSON-able form of the Hamiltonian.

        With ``canonical=True`` the terms are emitted in a deterministic
        sorted order (by label, then coefficient) — the form
        :meth:`content_key` hashes and the form the runtime layer executes,
        so that any two Hamiltonians with equal content keys produce
        bit-identical results.  It is built from the version's cached
        canonical form, as fresh dicts the caller may modify.  The default
        preserves the as-written term order (term order matters to the
        Trotter product).
        """
        if canonical:
            return _canonical_dict(self.num_qubits, self._canonical_form().payload)
        return {
            "num_qubits": self.num_qubits,
            "terms": [term.to_dict() for term in self._terms],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Hamiltonian":
        """Inverse of :meth:`to_dict` (term order preserved as serialized).

        Each distinct payload is parsed once per process (see
        :data:`_PARSED`); a repeat returns a new, independent Hamiltonian that
        shares the immutable terms and the cached canonical form, so its
        :meth:`content_key` costs nothing and mutating it cannot change what
        the next parse returns.  A payload holding anything but built-in
        JSON-like values (numpy scalars, subclasses) is parsed without the
        memo, and so is a malformed one, which raises as it always has.
        """
        try:
            key = marshal.dumps((payload["num_qubits"], payload["terms"]), 2)
        except (LookupError, TypeError, ValueError):
            key = None
        with _PARSED_LOCK:
            entry = _PARSED.pop(key, None)
            if entry is not None:
                _PARSED[key] = entry  # re-insertion moves the hit to the back
        if entry is not None:
            return cls._from_form(*entry)
        ham = cls(
            payload["num_qubits"],
            (SCBTerm.from_dict(term) for term in payload["terms"]),
        )
        if key is not None:
            entry = (ham.num_qubits, tuple(ham._terms), ham._canonical_form())
            with _PARSED_LOCK:
                while len(_PARSED) >= _PARSED_CAP:
                    _PARSED.pop(next(iter(_PARSED)))
                _PARSED[key] = entry
        return ham

    def canonical(self) -> "Hamiltonian":
        """Copy with terms in canonical sorted order (same content key)."""
        form = self._canonical_form()
        in_order = form._replace(order=tuple(range(len(form.terms))))
        return Hamiltonian._from_form(self.num_qubits, form.terms, in_order)

    def _canonical_form(self) -> _CanonicalForm:
        """The current version's canonical terms, payload and digest.

        Computed once per :attr:`version`: :meth:`add_term` bumps the
        version, so an in-place edit can never be served a stale form.
        """
        form = self._form
        if form is None or form.version != self._version:
            from repro.utils.serialization import complex_to_json, content_hash

            terms = self._terms
            order = tuple(sorted(range(len(terms)), key=lambda i: terms[i].sort_key()))
            payload = tuple(
                (terms[i].label, *complex_to_json(terms[i].coefficient)) for i in order
            )
            digest = content_hash(
                _canonical_dict(self.num_qubits, payload), tag="hamiltonian"
            )
            form = _CanonicalForm(
                self._version, tuple(terms[i] for i in order), order, payload, digest
            )
            self._form = form
        return form

    def content_key(self) -> str:
        """Stable content hash (64 hex) of the canonical form.

        ``content_hash({num_qubits, terms}, tag="hamiltonian")`` over the
        sorted terms: invariant under term reordering, computed once per
        :attr:`version` (so :meth:`add_term` invalidates it).  Problem, run,
        sweep and plan-group keys hash this digest, not the term list.
        """
        return self._canonical_form().digest

    def sequence_key(self) -> tuple[str, tuple[int, ...]]:
        """Order-sensitive identity of the as-written term list.

        ``(content_key(), order)`` with ``order`` the permutation that sorts
        the terms: equal exactly when the term sequences are, and cached per
        :attr:`version` like the digest.  Term order is the Trotter
        product's order, so this — not :meth:`content_key` — is what a
        lowering is keyed on.
        """
        form = self._canonical_form()
        return form.digest, form.order

    # ----------------------------------------------------------- fragmentation

    def hermitian_fragments(self, *, auto_hc: bool = True) -> list[HermitianFragment]:
        """Gather terms with their Hermitian conjugates (Eq. 5).

        With ``auto_hc`` (the default), a term containing transition operators
        or a complex coefficient is paired with its ``+ h.c.`` partner; terms
        that are already Hermitian become fragments on their own.  The list of
        fragments is what the direct strategy exponentiates term by term.
        """
        fragments = []
        for term in self._terms:
            include_hc = auto_hc and not term.is_hermitian
            fragments.append(HermitianFragment(term, include_hc))
        return fragments

    def is_hermitian_as_written(self) -> bool:
        """Whether the plain sum of terms (without adding h.c.) is Hermitian."""
        mat = self.matrix(sparse=True, include_hc=False)
        diff = mat - mat.conj().T
        return bool(abs(diff).max() < 1e-10) if diff.nnz else True

    # --------------------------------------------------------------- matrices

    def matrix(self, sparse: bool = False, include_hc: bool = True):
        """Matrix of the Hamiltonian.

        With ``include_hc`` (default) every non-Hermitian term is gathered with
        its Hermitian conjugate, matching :meth:`hermitian_fragments`; with
        ``include_hc=False`` the terms are summed exactly as written.
        """
        dim = 1 << self.num_qubits
        result = sp.csr_matrix((dim, dim), dtype=complex)
        for fragment in self.hermitian_fragments(auto_hc=include_hc):
            result = result + fragment.matrix(sparse=True)
        return result if sparse else np.asarray(result.todense())

    def to_pauli(self, include_hc: bool = True) -> PauliOperator:
        """Pauli-string expansion of the full Hamiltonian (the usual strategy).

        Expanded once per as-written term sequence and process (see
        :data:`_PAULI`); every call returns a fresh operator the caller may
        modify.
        """
        key = (self.sequence_key(), include_hc)
        with _PAULI_LOCK:
            expansion = _PAULI.pop(key, None)
            if expansion is not None:
                _PAULI[key] = expansion  # re-insertion moves the hit to the back
        if expansion is None:
            expansion = PauliOperator()
            for fragment in self.hermitian_fragments(auto_hc=include_hc):
                for string, coeff in fragment.to_pauli().items():
                    expansion._add(string, coeff)
            expansion = expansion.simplify()
            with _PAULI_LOCK:
                while len(_PAULI) >= _PAULI_CAP:
                    _PAULI.pop(next(iter(_PAULI)))
                _PAULI[key] = expansion
        return expansion.copy()

    # ------------------------------------------------------------------ physics

    def ground_state(self, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Lowest ``k`` eigenvalues and eigenvectors of the (Hermitian) matrix."""
        mat = self.matrix(sparse=True)
        dim = mat.shape[0]
        if dim <= 64 or k >= dim - 1:
            dense = np.asarray(mat.todense())
            vals, vecs = np.linalg.eigh(dense)
            return vals[:k], vecs[:, :k]
        vals, vecs = spla.eigsh(mat.asfptype(), k=k, which="SA")
        order = np.argsort(vals)
        return vals[order], vecs[:, order]

    def expectation_value(self, state: np.ndarray) -> float:
        """⟨ψ|H|ψ⟩ for a statevector ``ψ``."""
        state = np.asarray(state, dtype=complex).reshape(-1)
        mat = self.matrix(sparse=True)
        return float(np.real(np.vdot(state, mat @ state)))

    def evolve_exact(self, state: np.ndarray, time: float) -> np.ndarray:
        """Exact time evolution ``e^{-i t H} |ψ⟩`` via sparse ``expm_multiply``.

        This is the reference every circuit construction is verified against;
        it scales to registers far beyond the dense-unitary limit (e.g. the
        15-qubit example of Fig. 2).  ``state`` may also be a ``(2^n, batch)``
        array — every column is evolved by the same ``expm_multiply`` call.

        The CSC matrix is assembled once and cached (invalidated by
        :meth:`add_term`), so callers that evolve many states — e.g.
        :func:`~repro.analysis.trotter_error.trotter_error_state` — pay the
        kron-chain a single time.
        """
        state = np.asarray(state, dtype=complex)
        if state.ndim == 1:
            state = state.reshape(-1)
        elif state.ndim != 2:
            raise OperatorError(
                f"expected a vector or a (dim, batch) array, got shape {state.shape}"
            )
        if self._evolve_matrix is None:
            self._evolve_matrix = self.matrix(sparse=True).tocsc()
        return spla.expm_multiply(-1j * time * self._evolve_matrix, state)

    # -------------------------------------------------------------- statistics

    def term_order_histogram(self) -> dict[int, int]:
        """Number of terms per order (non-identity factor count)."""
        hist: dict[int, int] = {}
        for term in self._terms:
            hist[term.order] = hist.get(term.order, 0) + 1
        return hist

    def one_norm(self) -> float:
        """Sum of absolute term coefficients (h.c. partners counted once)."""
        return float(sum(abs(t.coefficient) for t in self._terms))


def hamiltonian_from_terms(terms: Sequence[SCBTerm]) -> Hamiltonian:
    """Build a Hamiltonian, inferring the register width from the terms."""
    if not terms:
        raise OperatorError("need at least one term")
    num_qubits = terms[0].num_qubits
    return Hamiltonian(num_qubits, terms)
