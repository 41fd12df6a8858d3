"""Vectorized density-matrix simulation.

The mixed-state counterpart of :mod:`repro.circuits.statevector`: the state
``ρ`` is kept as a ``(2,)*2n`` tensor — the first ``n`` axes are row (ket)
indices, the last ``n`` are column (bra) indices — and every gate is applied
twice by the statevector module's structured dispatcher,

    ``ρ ← U ρ U†``   =  ``U`` on the row axes, ``conj(U)`` on the column axes,

so a gate costs two of its structured kernels (two gathers for a
permutation, two in-place multiplies for a diagonal gate, two tensordots on
the control slice or the whole tensor otherwise), and a ``k``-qubit Kraus
channel costs ``2·(#Kraus)``
:func:`~repro.circuits.statevector.apply_matrix` contractions — no Python
loop over matrix elements.  Memory is
``4^n`` amplitudes; the class guards construction at
:data:`DENSITY_MAX_QUBITS` qubits (override per call) the same way the dense
unitary path guards ``unitary_max_qubits``.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.statevector import (
    Statevector,
    _apply_op,
    _lower_gate,
    apply_matrix,
    sample_outcome_counts,
)
from repro.exceptions import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.noise.channels import KrausChannel
    from repro.noise.model import NoiseModel

#: Default qubit ceiling: 12 qubits is a 4096×4096 complex matrix (256 MB is
#: reached near 14); pass ``max_qubits=`` to the constructor to override.
DENSITY_MAX_QUBITS = 12


class DensityMatrix:
    """A mixed state on ``num_qubits`` qubits with fast noisy evolution."""

    def __init__(
        self,
        data: "np.ndarray | Statevector | int",
        num_qubits: int | None = None,
        *,
        max_qubits: int = DENSITY_MAX_QUBITS,
    ):
        if isinstance(data, Statevector):
            vec = data.data
            rho = np.outer(vec, vec.conj())
        elif isinstance(data, (int, np.integer)):
            if num_qubits is None:
                raise SimulationError("num_qubits is required when initialising from an int")
            dim = 1 << num_qubits
            rho = np.zeros((dim, dim), dtype=complex)
            rho[int(data), int(data)] = 1.0
        else:
            arr = np.asarray(data, dtype=complex)
            if arr.ndim == 1:
                rho = np.outer(arr, arr.conj())
            elif arr.ndim == 2 and arr.shape[0] == arr.shape[1]:
                rho = arr.copy()
            else:
                raise SimulationError(
                    f"cannot build a density matrix from shape {arr.shape}"
                )
        dim = rho.shape[0]
        if dim == 0 or dim & (dim - 1):
            raise SimulationError(f"density matrix dimension {dim} is not a power of two")
        n = dim.bit_length() - 1
        if num_qubits is not None and num_qubits != n:
            raise SimulationError(
                f"density matrix of dimension {dim} does not match {num_qubits} qubits"
            )
        if n > max_qubits:
            raise SimulationError(
                f"refusing to build a dense {dim}x{dim} density matrix on {n} "
                f"qubits (limit {max_qubits}; raise max_qubits= explicitly)"
            )
        self._rho = rho
        self.num_qubits = n

    # ------------------------------------------------------------------ basics

    @classmethod
    def zero_state(cls, num_qubits: int, **kwargs) -> "DensityMatrix":
        return cls(0, num_qubits, **kwargs)

    @classmethod
    def maximally_mixed(cls, num_qubits: int, **kwargs) -> "DensityMatrix":
        dim = 1 << num_qubits
        return cls(np.eye(dim, dtype=complex) / dim, **kwargs)

    @classmethod
    def from_statevector(cls, state: "Statevector | np.ndarray", **kwargs) -> "DensityMatrix":
        vec = state.data if isinstance(state, Statevector) else np.asarray(state)
        return cls(np.asarray(vec, dtype=complex).reshape(-1), **kwargs)

    @property
    def data(self) -> np.ndarray:
        return self._rho.copy()

    @property
    def dim(self) -> int:
        return self._rho.shape[0]

    def copy(self) -> "DensityMatrix":
        return DensityMatrix(self._rho.copy(), max_qubits=self.num_qubits)

    def trace(self) -> float:
        return float(np.real(np.trace(self._rho)))

    def purity(self) -> float:
        """``Tr[ρ²]`` — 1 for pure states, ``1/2^n`` for the maximally mixed."""
        # Tr[ρ²] = Σ_ij ρ_ij ρ_ji = Σ_ij ρ_ij conj(ρ_ij) for Hermitian ρ.
        return float(np.real(np.sum(self._rho * self._rho.T)))

    def is_hermitian(self, atol: float = 1e-9) -> bool:
        return bool(np.allclose(self._rho, self._rho.conj().T, atol=atol, rtol=0.0))

    def fidelity(self, state: "Statevector | np.ndarray") -> float:
        """``⟨ψ|ρ|ψ⟩`` against a pure reference state."""
        vec = state.data if isinstance(state, Statevector) else np.asarray(state, dtype=complex)
        vec = vec.reshape(-1)
        return float(np.real(np.vdot(vec, self._rho @ vec)))

    # --------------------------------------------------------------- evolution

    def _tensor(self) -> np.ndarray:
        n = self.num_qubits
        return self._rho.reshape((2,) * (2 * n) if n else (1, 1))

    def evolve(
        self,
        circuit: QuantumCircuit,
        noise_model: "NoiseModel | None" = None,
    ) -> "DensityMatrix":
        """``ρ`` after the circuit, with the noise model's channel after each gate.

        With ``noise_model=None`` (or an ideal model) this is exact unitary
        conjugation gate by gate, each gate applied by its structure (see
        :mod:`repro.circuits.statevector`) on a private copy of ``ρ``;
        channels from the model are looked up by gate *name*, so noisy runs
        must evolve the logical circuit — fused ``MatrixGate`` blocks would
        hide the names the model keys on.
        """
        if circuit.num_qubits != self.num_qubits:
            raise SimulationError(
                f"circuit acts on {circuit.num_qubits} qubits, state has {self.num_qubits}"
            )
        n = self.num_qubits
        noisy = noise_model is not None and noise_model.has_gate_noise
        tensor = self._tensor().copy()
        for instr in circuit:
            op = _lower_gate(instr.gate, instr.qubits, n)
            tensor = _apply_op(tensor, op, n)
            tensor = _apply_op(tensor, op, n, first=n, conj=True)
            if noisy:
                for channel, targets in noise_model.channels_for(
                    instr.name, instr.qubits
                ):
                    tensor = _apply_channel_tensor(tensor, channel, targets, n)
        out = DensityMatrix.__new__(DensityMatrix)
        out._rho = tensor.reshape(self.dim, self.dim)
        out.num_qubits = n
        return out

    def evolve_matrix(self, matrix: np.ndarray, qubits: Sequence[int]) -> "DensityMatrix":
        """Conjugate ``ρ`` by an explicit unitary on a subset of qubits."""
        n = self.num_qubits
        matrix = np.asarray(matrix, dtype=complex)
        tensor = apply_matrix(self._tensor(), matrix, qubits)
        tensor = apply_matrix(tensor, matrix.conj(), [q + n for q in qubits])
        out = DensityMatrix.__new__(DensityMatrix)
        out._rho = tensor.reshape(self.dim, self.dim)
        out.num_qubits = n
        return out

    def apply_channel(
        self, channel: "KrausChannel", qubits: Sequence[int]
    ) -> "DensityMatrix":
        """``Σ_i K_i ρ K_i†`` with the Kraus operators on the given qubits."""
        tensor = _apply_channel_tensor(
            self._tensor(), channel, tuple(qubits), self.num_qubits
        )
        out = DensityMatrix.__new__(DensityMatrix)
        out._rho = tensor.reshape(self.dim, self.dim)
        out.num_qubits = self.num_qubits
        return out

    # ------------------------------------------------------------ measurements

    def probabilities(self) -> np.ndarray:
        """Computational-basis outcome probabilities (the real diagonal)."""
        diag = np.real(np.diagonal(self._rho)).copy()
        np.clip(diag, 0.0, None, out=diag)
        return diag

    def expectation_value(self, operator: np.ndarray) -> complex:
        """``Tr[O ρ]`` for a dense or sparse operator of matching dimension."""
        op = operator
        if hasattr(op, "toarray") and op.shape[0] > (1 << 10):
            return complex((op @ self._rho).diagonal().sum())
        op = np.asarray(op.toarray() if hasattr(op, "toarray") else op, dtype=complex)
        if op.shape != self._rho.shape:
            raise SimulationError(
                f"operator shape {op.shape} does not match state dimension {self.dim}"
            )
        return complex(np.trace(op @ self._rho))

    def sample_counts(
        self, shots: int, rng: np.random.Generator | None = None
    ) -> dict[str, int]:
        """Sample measurement outcomes in the computational basis."""
        rng = rng if rng is not None else np.random.default_rng()
        return sample_outcome_counts(self.probabilities(), shots, rng, self.num_qubits)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"DensityMatrix(num_qubits={self.num_qubits}, trace={self.trace():.6f}, "
            f"purity={self.purity():.6f})"
        )


def _apply_channel_tensor(
    tensor: np.ndarray,
    channel: "KrausChannel",
    qubits: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Kraus sum on a ``(2,)*2n`` density tensor: two contractions per operator."""
    if channel.num_qubits != len(qubits):
        raise SimulationError(
            f"channel {channel.name!r} acts on {channel.num_qubits} qubits, "
            f"got {len(qubits)} targets"
        )
    col_axes = [q + num_qubits for q in qubits]
    result = None
    for op in channel.kraus:
        branch = apply_matrix(tensor, op, qubits)
        branch = apply_matrix(branch, op.conj(), col_axes)
        result = branch if result is None else result + branch
    return result


def simulate_density(
    circuit: QuantumCircuit,
    initial_state: "DensityMatrix | Statevector | int" = 0,
    noise_model: "NoiseModel | None" = None,
    **kwargs,
) -> DensityMatrix:
    """Convenience function mirroring :func:`repro.circuits.statevector.simulate`."""
    if isinstance(initial_state, DensityMatrix):
        state = initial_state
    else:
        state = DensityMatrix(initial_state, circuit.num_qubits, **kwargs)
    return state.evolve(circuit, noise_model=noise_model)
