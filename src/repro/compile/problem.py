"""The problem description the whole pipeline consumes.

A :class:`SimulationProblem` bundles what the seed's loose entry points each
took separately: the SCB Hamiltonian, the evolution time, the product-formula
parameters and the option set.  Applications produce one of these and hand it
to :func:`repro.compile.compile`; they no longer pick circuit builders
themselves.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace

from repro.compile.options import CompileOptions
from repro.exceptions import CompileError
from repro.operators.hamiltonian import Hamiltonian
from repro.operators.pauli import PauliOperator


@dataclass(frozen=True)
class SimulationProblem:
    """``exp(-i·time·H)`` with a product-formula prescription.

    Attributes
    ----------
    hamiltonian:
        The SCB Hamiltonian (sum of :class:`~repro.operators.scb_term.SCBTerm`).
    time:
        Total evolution time.
    steps:
        Trotter step count (the formula is repeated with slice ``time/steps``).
    order:
        Product-formula order (1, 2 or even ``2k``).
    options:
        Unified :class:`~repro.compile.options.CompileOptions`.
    name:
        Optional human-readable tag carried into compiled artifacts.
    """

    hamiltonian: Hamiltonian
    time: float
    steps: int = 1
    order: int = 1
    options: CompileOptions = field(default_factory=CompileOptions)
    name: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.hamiltonian, Hamiltonian):
            raise CompileError(
                f"hamiltonian must be a Hamiltonian, got {type(self.hamiltonian).__name__}"
            )
        if self.steps < 1:
            raise CompileError("steps must be >= 1")
        if self.order < 1 or (self.order != 1 and self.order % 2 != 0):
            raise CompileError("order must be 1 or an even integer")
        object.__setattr__(self, "options", CompileOptions.from_any(self.options))

    # ------------------------------------------------------------ constructors

    @classmethod
    def from_labels(
        cls,
        num_qubits: int,
        terms: Mapping[str, complex],
        *,
        time: float = 1.0,
        **kwargs,
    ) -> "SimulationProblem":
        """One-expression construction from ``{label: coefficient}``."""
        return cls(Hamiltonian.from_labels(num_qubits, terms), time, **kwargs)

    # ----------------------------------------------------------- serialization

    def to_dict(self, *, canonical: bool = False) -> dict:
        """JSON-able form of the whole problem.

        With ``canonical=True`` the Hamiltonian terms are emitted in sorted
        order and the cosmetic ``name`` is dropped — the payload
        :meth:`content_key` identifies, and the form the runtime layer
        executes so equal keys imply bit-identical results.
        """
        payload = self._payload(self.hamiltonian.to_dict(canonical=canonical))
        if not canonical:
            payload["name"] = self.name
        return payload

    def _payload(self, hamiltonian) -> dict:
        return {
            "hamiltonian": hamiltonian,
            "time": float(self.time),
            "steps": int(self.steps),
            "order": int(self.order),
            "options": self.options.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SimulationProblem":
        """Inverse of :meth:`to_dict`."""
        from repro.operators.hamiltonian import Hamiltonian as _Hamiltonian

        return cls(
            _Hamiltonian.from_dict(payload["hamiltonian"]),
            payload["time"],
            steps=payload.get("steps", 1),
            order=payload.get("order", 1),
            options=CompileOptions.from_dict(payload.get("options", {})),
            name=payload.get("name"),
        )

    def content_key(self) -> str:
        """Stable content hash — invariant under Hamiltonian term reordering
        and under the cosmetic ``name``, sensitive to everything physical.

        A Merkle key: it hashes ``{hamiltonian, time, steps, order,
        options}`` with the Hamiltonian as its cached 64-hex
        :meth:`~repro.operators.hamiltonian.Hamiltonian.content_key`, so it
        costs O(1) in the number of terms once that digest is known.
        """
        from repro.utils.serialization import content_hash

        digest = self.hamiltonian.content_key()
        return content_hash(self._payload(digest), tag="problem")

    # ----------------------------------------------------------------- queries

    @property
    def num_qubits(self) -> int:
        return self.hamiltonian.num_qubits

    @property
    def num_terms(self) -> int:
        return self.hamiltonian.num_terms

    def pauli_operator(self) -> PauliOperator:
        """Pauli expansion of the Hamiltonian (the usual-strategy view)."""
        return self.hamiltonian.to_pauli()

    def with_options(self, **overrides) -> "SimulationProblem":
        """Copy of the problem with validated option overrides applied."""
        return replace(self, options=CompileOptions.from_any(self.options, **overrides))

    def describe(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return (
            f"SimulationProblem{tag}: {self.num_terms} SCB terms on "
            f"{self.num_qubits} qubits, t={self.time:g}, "
            f"steps={self.steps}, order={self.order}"
        )
