"""Matrix-free Pauli-rotation kernels over bit masks.

Trotter circuits are entirely structured: every gate is ``exp(-i·θ·P)`` for a
Pauli string ``P``, and that exponential can be applied to a statevector in a
single vectorized pass without building any gate matrix.  Encode ``P`` in the
symplectic (mask) representation — an X mask (which qubits carry ``X`` or
``Y``), a Z mask (which carry ``Z`` or ``Y``) and the i-power collected from
the ``Y`` factors — and its action on a basis state ``|j⟩`` is a bit flip, a
parity sign and a constant phase::

    P |j⟩ = i^{|Y|} · (-1)^{parity(j & z)} · |j ^ x⟩

so ``exp(-i·θ·P)·ψ = cos θ·ψ − i·sin θ·(P·ψ)`` costs two O(2^n) passes: one
XOR gather and one fused multiply-add.  Three regimes get dedicated paths:

* ``x == 0`` — the string is diagonal; the rotation is an element-wise phase
  ``e^{∓iθ}`` selected by the Z-mask parity (no gather at all);
* ``z == 0`` — the string is a pure bit-flip permutation; no parity signs;
* ``x == z == 0`` — the identity; the rotation is the global phase ``e^{-iθ}``.

Masks follow the library's bit convention (qubit 0 is the most significant
bit, :mod:`repro.utils.bits`).  Every kernel accepts a trailing batch axis:
``state`` may be ``(2^n,)`` or ``(2^n, batch)``, so one pass evolves many
initial states (or whole unitaries) at once.

The ``kernel`` execution backend does not run these kernels:
:class:`repro.compile.plan.EvolutionPlan` applies its own closed-form
fragment tables, and takes only :func:`pauli_masks`, :func:`basis_indices`
and the popcount from this module.  The kernels remain the public API for
applying ad-hoc Pauli rotations and mask schedules.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from repro.exceptions import SimulationError
from repro.utils.lru import LRUCache

try:  # NumPy >= 2.0
    _popcount = np.bitwise_count
except AttributeError:  # pragma: no cover - fallback for older NumPy
    def _popcount(values: np.ndarray) -> np.ndarray:
        values = values.astype(np.uint64, copy=True)
        count = np.zeros_like(values)
        while values.any():
            count += values & 1
            values >>= np.uint64(1)
        return count


#: Basis-index arrays are shared across rotations (and plans); one entry per
#: register width, for the four most recently used widths.
_INDEX_CACHE = LRUCache(cap=4)


def basis_indices(num_qubits: int) -> np.ndarray:
    """The cached ``arange(2^n)`` used for mask arithmetic (read-only)."""
    if num_qubits < 0:
        raise SimulationError("num_qubits must be non-negative")
    indices = _INDEX_CACHE.get(num_qubits)
    if indices is None:
        dtype = np.uint32 if num_qubits <= 31 else np.uint64
        indices = np.arange(1 << num_qubits, dtype=dtype)
        indices.setflags(write=False)
        indices = _INDEX_CACHE.setdefault(num_qubits, indices)
    return indices


def pauli_masks(labels: str) -> tuple[int, int, complex]:
    """Symplectic encoding ``(x_mask, z_mask, phase)`` of a Pauli label string.

    ``phase`` is ``(-i)^{|Y|}``, the constant in ``(P·ψ)[k] = phase ·
    (-1)^{parity(k & z)} · ψ[k ^ x]`` once the parity is evaluated on the
    *output* index ``k``.  Qubit 0 carries the most significant mask bit.
    """
    x_mask = z_mask = 0
    for qubit, label in enumerate(labels):
        if label not in "IXYZ":
            raise SimulationError(f"invalid Pauli label {label!r} in {labels!r}")
        bit = 1 << (len(labels) - 1 - qubit)
        if label in ("X", "Y"):
            x_mask |= bit
        if label in ("Z", "Y"):
            z_mask |= bit
    phase = (-1j) ** ((x_mask & z_mask).bit_count() % 4)
    return x_mask, z_mask, phase


def _num_qubits_of(state: np.ndarray) -> int:
    dim = state.shape[0]
    if dim == 0 or dim & (dim - 1):
        raise SimulationError(f"state length {dim} is not a power of two")
    return dim.bit_length() - 1


def _parity(indices: np.ndarray, mask: int) -> np.ndarray:
    """Boolean parity of ``indices & mask`` (True where odd)."""
    return (_popcount(indices & indices.dtype.type(mask)) & 1).astype(bool)


def _column(array: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Reshape a per-amplitude array so it broadcasts over trailing batch axes."""
    if state.ndim == 1:
        return array
    return array.reshape(array.shape + (1,) * (state.ndim - 1))


def apply_diagonal_rotation(state: np.ndarray, z_mask: int, theta: float) -> None:
    """In-place ``exp(-i·θ·Z_mask)``: an element-wise ``e^{∓iθ}`` phase."""
    if z_mask == 0:
        state *= cmath.exp(-1j * theta)
        return
    indices = basis_indices(_num_qubits_of(state))
    odd = _parity(indices, z_mask)
    phases = np.where(odd, cmath.exp(1j * theta), cmath.exp(-1j * theta))
    state *= _column(phases, state)


def apply_permutation_rotation(state: np.ndarray, x_mask: int, theta: float) -> None:
    """In-place ``exp(-i·θ·X_mask)``: mix each amplitude with its XOR partner."""
    if x_mask == 0:
        state *= cmath.exp(-1j * theta)
        return
    indices = basis_indices(_num_qubits_of(state))
    flipped = state[indices ^ indices.dtype.type(x_mask)]
    flipped *= -1j * math.sin(theta)
    state *= math.cos(theta)
    state += flipped


def apply_pauli_rotation(
    state: np.ndarray,
    x_mask: int,
    z_mask: int,
    phase: complex,
    theta: float,
) -> np.ndarray:
    """``exp(-i·θ·P)·ψ`` for the Pauli string encoded by the masks.

    ``phase`` is the ``(-i)^{|Y|}`` prefactor returned by :func:`pauli_masks`.
    ``state`` is a vector of length ``2^n`` (optionally with a trailing batch
    axis) and is not modified; the rotated array is returned.  The diagonal
    (``x_mask == 0``), pure-permutation (``z_mask == 0``) and identity cases
    take their dedicated fast paths.
    """
    state = np.array(state, dtype=complex, copy=True)
    _apply_rotation_inplace(state, x_mask, z_mask, phase, theta)
    return state


def _apply_rotation_inplace(
    state: np.ndarray, x_mask: int, z_mask: int, phase: complex, theta: float
) -> None:
    """The in-place kernel behind :func:`apply_pauli_rotation` and plans."""
    if x_mask == 0:
        apply_diagonal_rotation(state, z_mask, theta)
        return
    if z_mask == 0:
        apply_permutation_rotation(state, x_mask, theta)
        return
    indices = basis_indices(_num_qubits_of(state))
    flipped = state[indices ^ indices.dtype.type(x_mask)]
    flipped *= -1j * phase * math.sin(theta)
    odd = _column(_parity(indices, z_mask), state)
    np.negative(flipped, out=flipped, where=odd)
    state *= math.cos(theta)
    state += flipped


def apply_pauli_string(
    state: np.ndarray, x_mask: int, z_mask: int, phase: complex
) -> np.ndarray:
    """``P·ψ`` itself (no exponential) — the building block and its own test oracle."""
    state = np.asarray(state, dtype=complex)
    indices = basis_indices(_num_qubits_of(state))
    out = phase * state[indices ^ indices.dtype.type(x_mask)]
    if z_mask:
        odd = _column(_parity(indices, z_mask), state)
        np.negative(out, out=out, where=odd)
    return out


def apply_rotation_sequence(
    state: np.ndarray,
    rotations,
    *,
    repetitions: int = 1,
) -> np.ndarray:
    """Apply a sequence of ``(x_mask, z_mask, phase, theta)`` tuples, repeated.

    The generic rotation-by-rotation executor (one copy up front, every
    rotation in place) for ad-hoc mask schedules, such as
    :attr:`repro.compile.plan.EvolutionPlan.step_rotations`.
    :meth:`~repro.compile.plan.EvolutionPlan.evolve` does not go through
    this: it replays pre-baked per-fragment tables.
    """
    state = np.array(state, dtype=complex, copy=True)
    for _ in range(repetitions):
        for x_mask, z_mask, phase, theta in rotations:
            _apply_rotation_inplace(state, x_mask, z_mask, phase, theta)
    return state
