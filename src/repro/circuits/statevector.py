"""Vectorized statevector simulation.

The state is kept as an ``n``-dimensional tensor of shape ``(2,) * n``
(optionally followed by batch axes), and each gate is applied by its
structure, chosen once from the gate's type — never by inspecting matrix
entries:

* an X-type permutation (``x``, ``cx``, ``ccx``, ``swap``, ``cswap`` or a
  :class:`~repro.circuits.gate.ControlledGate` over ``x`` or ``swap``, any
  ``ctrl_state``) is one gather through a cached, read-only index table;
* a diagonal gate (a :data:`~repro.circuits.standard_gates.DIAGONAL_GATES`
  member, or a ``ControlledGate`` over one) is one in-place multiply by its
  phases, on the control slice only when it is controlled;
* any other ``ControlledGate`` applies its base matrix to the control slice;
* everything else — fused ``MatrixGate`` blocks included — is one
  :func:`apply_matrix` ``np.tensordot`` over the target axes.

:func:`lower_items` turns a circuit (or a fragment
:class:`~repro.circuits.skeleton.Skeleton`'s items) into these ops and
composes each run of adjacent gathers into one table: gathering through
``a`` and then ``b`` is gathering through ``a[b]``, which moves the same
amplitudes and so gives the same bytes.  Gathers never merge across a
diagonal or dense op.  :func:`lower_step` does the same for a whole
product-formula step built from skeletons, once per Hamiltonian, keeping a
slot op wherever an angle depends on the time; :func:`bind_ops` fills those
in per time (see :mod:`repro.compile.steps`).
:class:`~repro.circuits.density_matrix.DensityMatrix` lowers gate by gate
instead, because its noise channels act after every gate and so its gates
must never merge.

:func:`apply_matrix` stays the dense reference the structured paths are
property-tested against, and the one :func:`~repro.circuits.unitary.circuit_unitary`
uses.  An optional trailing batch axis lets the same kernels evolve many
states at once.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gate import ControlledGate, Gate, StandardGate
from repro.circuits.skeleton import Item, Slot
from repro.circuits.standard_gates import DIAGONAL_GATES, standard_gate_matrix
from repro.exceptions import SimulationError
from repro.utils.bits import int_to_bits, int_to_bitstring
from repro.utils.lru import LRUCache

#: Byte budget of the process-wide index-table LRU (:data:`_TABLES`).  A
#: 10-qubit table is 8 KiB, so this holds thousands of them; a single table
#: larger than the budget is built and used but never stored.
_TABLE_CACHE_BYTES = 64 << 20

#: Bases whose (controlled) action permutes basis states by flipping bits.
_PERMUTATION_BASES = frozenset({"x", "swap"})

#: Standard gates that are all-ones-controlled permutation bases:
#: name -> (number of controls, base name).
_CONTROLLED_STANDARD = {"cx": (1, "x"), "ccx": (2, "x"), "cswap": (1, "swap")}

_GATHER, _DIAGONAL, _DENSE = range(3)


def apply_matrix(
    tensor: np.ndarray, matrix: np.ndarray, qubits: Sequence[int]
) -> np.ndarray:
    """Apply a ``2^k × 2^k`` matrix to the given qubit axes of a state tensor.

    ``tensor`` has shape ``(2,) * n`` optionally followed by batch axes; the
    qubit axes are the first ``n`` axes, qubit 0 being axis 0 (most
    significant bit).  Returns a new tensor of the same shape.
    """
    k = len(qubits)
    if matrix.shape != (1 << k, 1 << k):
        raise SimulationError(
            f"matrix shape {matrix.shape} does not match {k} target qubits"
        )
    # Work in the state's own (complex) dtype: a complex64 state stays
    # complex64 instead of being silently upcast by a complex128 gate matrix.
    dtype = np.result_type(tensor.dtype, np.complex64)
    gate_tensor = np.asarray(matrix, dtype=dtype).reshape((2,) * (2 * k))
    # Contract the "input" axes of the gate with the target qubit axes.
    moved = np.tensordot(gate_tensor, tensor, axes=(list(range(k, 2 * k)), list(qubits)))
    # tensordot puts the gate's output axes first; move them back into place.
    return np.moveaxis(moved, range(k), qubits)


class _IndexTables(LRUCache):
    """Read-only gather tables of the permutation gates, shared process-wide.

    A table depends only on its key — (register width, qubits, base name,
    ``ctrl_state``) — so one LRU bounded in bytes serves every thread;
    :meth:`get` builds a missing table, and one larger than the bound is
    used but never stored.
    """

    def get(self, key: tuple) -> np.ndarray:
        table = super().get(key)
        if table is None:
            table = _permutation_table(*key)
            table = self.setdefault(key, table, table.nbytes)
        return table


_TABLES = _IndexTables(_TABLE_CACHE_BYTES)


def _permutation_table(
    num_qubits: int, qubits: tuple[int, ...], base: str, ctrl_state: int
) -> np.ndarray:
    """``new[i] = old[table[i]]`` for a controlled ``x`` or ``swap``.

    ``qubits`` lists the controls first, then the base's targets.  Both bases
    are involutions, so the table is its own inverse.
    """
    index = np.arange(1 << num_qubits, dtype=np.intp)
    bits = [1 << (num_qubits - 1 - q) for q in qubits]
    if base == "x":
        num_ctrl = len(qubits) - 1
        moved = index ^ bits[-1]
    else:
        num_ctrl = len(qubits) - 2
        a, b = qubits[-2:]
        differ = ((index >> (num_qubits - 1 - a)) ^ (index >> (num_qubits - 1 - b))) & 1
        moved = index ^ (differ * (bits[-2] | bits[-1]))
    if num_ctrl:
        mask = sum(bits[:num_ctrl])
        pattern = sum(
            bit for bit, on in zip(bits, int_to_bits(ctrl_state, num_ctrl)) if on
        )
        moved = np.where((index & mask) == pattern, moved, index)
    moved.setflags(write=False)
    return moved


class _GateOp(NamedTuple):
    """How one instruction is applied, decided once from its gate's type."""

    kind: int  # _GATHER, _DIAGONAL or _DENSE
    targets: tuple[int, ...]  # register qubits the base acts on
    controls: tuple[tuple[int, int], ...]  # (qubit, bit) slicing pairs
    #: The index table, the phases as a ``(2,) * k`` tensor over ``targets``
    #: (ascending), or the base matrix.
    data: np.ndarray


def _lower_gate(gate: Gate, qubits: tuple[int, ...], num_qubits: int) -> _GateOp:
    """Pick the structured path of ``gate`` on ``qubits`` from its type.

    Nested controls are flattened (outer controls first), and ``cx``,
    ``ccx`` and ``cswap`` count as controlled permutation bases.
    """
    num_ctrl = ctrl_state = 0
    while isinstance(gate, ControlledGate):
        num_ctrl += gate.num_ctrl
        ctrl_state = (ctrl_state << gate.num_ctrl) | gate.ctrl_state
        gate = gate.base
    name = gate.name if isinstance(gate, StandardGate) else None
    if name in _CONTROLLED_STANDARD:
        extra, name = _CONTROLLED_STANDARD[name]
        num_ctrl += extra
        ctrl_state = (ctrl_state << extra) | ((1 << extra) - 1)
    if name in _PERMUTATION_BASES:
        table = _TABLES.get((num_qubits, tuple(qubits), name, ctrl_state))
        return _GateOp(_GATHER, (), (), table)
    kind, targets, controls, order = _placement(name, qubits, num_ctrl, ctrl_state)
    return _GateOp(kind, targets, controls, _op_data(kind, gate.matrix(), order))


def _placement(name, qubits, num_ctrl: int, ctrl_state: int):
    """``(kind, targets, controls, order)`` of a diagonal or dense base gate.

    A diagonal's targets are sorted into ascending axis order; ``order`` is
    the permutation its phase tensor needs for that (``None`` for one target).
    """
    controls = ()
    if num_ctrl:
        controls = tuple(zip(qubits[:num_ctrl], int_to_bits(ctrl_state, num_ctrl)))
    targets = tuple(qubits[num_ctrl:])
    if name not in DIAGONAL_GATES:
        return _DENSE, targets, controls, None
    order = None
    if len(targets) > 1:  # gate qubit order -> ascending axis order
        order = sorted(range(len(targets)), key=targets.__getitem__)
        targets = tuple(targets[i] for i in order)
    return _DIAGONAL, targets, controls, order


def _op_data(kind: int, matrix: np.ndarray, order) -> np.ndarray:
    """A lowered op's data: the base matrix, or its diagonal as a phase tensor."""
    if kind == _DENSE:
        return matrix
    phases = matrix.diagonal().reshape((2,) * (matrix.shape[0].bit_length() - 1))
    return phases if order is None else phases.transpose(order)


class _SlotOp(NamedTuple):
    """A lowered :class:`~repro.circuits.skeleton.Slot`: placed, data unbound."""

    kind: int  # _DIAGONAL or _DENSE
    targets: tuple[int, ...]
    controls: tuple[tuple[int, int], ...]
    order: "list[int] | None"
    slot: Slot

    def bind(self, time: float) -> _GateOp:
        """The op of the slot's gate at ``time``, as :func:`_lower_gate` makes it."""
        params = tuple(float(p) for p in self.slot.params(time))
        data = _op_data(self.kind, standard_gate_matrix(self.slot.name, params), self.order)
        return _GateOp(self.kind, self.targets, self.controls, data)


def _lower_slot(slot: Slot, num_qubits: int) -> _SlotOp:
    if slot.name in _CONTROLLED_STANDARD or slot.name in _PERMUTATION_BASES:
        raise SimulationError(f"a slot cannot hold the permutation gate {slot.name!r}")
    kind, targets, controls, order = _placement(
        slot.name, slot.qubits, slot.num_ctrl, slot.ctrl_state
    )
    return _SlotOp(kind, targets, controls, order, slot)


def _lower_item(item: Item, num_qubits: int):
    """The op of one instruction, or the unbound op of one slot."""
    if isinstance(item, Slot):
        return _lower_slot(item, num_qubits)
    return _lower_gate(item.gate, item.qubits, num_qubits)


def lower_items(items: Iterable[Item], num_qubits: int) -> Iterator:
    """Yield the structured ops of ``items`` (instructions and slots), in order.

    Each run of adjacent gathers is composed into one index table; a lone
    gather keeps its shared read-only table.  Lazy, so a consumer that
    applies each op as it comes holds one composed table at a time.
    """
    table = None
    for item in items:
        op = _lower_item(item, num_qubits)
        if op.kind == _GATHER:
            table = op.data if table is None else table[op.data]
            continue
        if table is not None:
            yield _GateOp(_GATHER, (), (), table)
            table = None
        yield op
    if table is not None:
        yield _GateOp(_GATHER, (), (), table)


def lower_step(
    fragments: Sequence[Sequence[Item]],
    visits: Sequence[int],
    num_qubits: int,
    max_bytes: int,
) -> "tuple[list, int] | None":
    """The ops of a step that visits ``fragments[i]`` for each ``i`` of ``visits``.

    Each distinct fragment is lowered once, gate by gate, and kept only
    until its last visit; a parameterless standard gate is lowered once per
    step.  Each run of adjacent gathers, within a fragment or across its
    boundaries, is then composed into one read-only table — once per
    distinct run, so a product formula that repeats a run (the Suzuki
    sub-steps) shares its table.  Returns the ops and the bytes of their
    tables, or ``None`` as soon as those would pass ``max_bytes``.
    """
    remaining = Counter(visits)
    fixed: dict = {}  # (name, qubits) -> op of a parameterless standard gate
    lowered: dict[int, list] = {}
    runs: dict[tuple, np.ndarray] = {}  # (fragment, position) of each gather -> table
    ops: list = []
    run: list = []
    nbytes = 0

    def lower(item: Item):
        if isinstance(item, Slot) or type(item.gate) is not StandardGate or item.gate.params:
            return _lower_item(item, num_qubits)
        key = (item.gate.name, item.qubits)
        op = fixed.get(key)
        if op is None:
            op = fixed[key] = _lower_gate(item.gate, item.qubits, num_qubits)
        return op

    def flush() -> None:
        nonlocal nbytes
        key = tuple(position for position, _ in run)
        table = runs.get(key)
        if table is None:
            table = run[0][1]
            for _, data in run[1:]:
                table = table[data]
            table.setflags(write=False)
            runs[key] = table
            nbytes += table.nbytes
        ops.append(_GateOp(_GATHER, (), (), table))
        run.clear()

    for index in visits:
        piece = lowered.get(index)
        if piece is None:
            piece = lowered[index] = [lower(item) for item in fragments[index]]
        for position, op in enumerate(piece):
            if op.kind == _GATHER:
                run.append(((index, position), op.data))
                continue
            if run:
                flush()
            ops.append(op)
        remaining[index] -= 1
        if not remaining[index]:
            del lowered[index]
        if nbytes > max_bytes:
            return None
    if run:
        flush()
    return (ops, nbytes) if nbytes <= max_bytes else None


def bind_ops(template: Iterable, times: Iterable[float]) -> list:
    """``template``'s ops with each slot op bound at the next of ``times``."""
    times = iter(times)
    return [op.bind(next(times)) if isinstance(op, _SlotOp) else op for op in template]


def _apply_op(
    tensor: np.ndarray, op: _GateOp, num_qubits: int, first: int = 0, conj: bool = False
) -> np.ndarray:
    """Apply ``op`` to the register whose ``num_qubits`` axes start at ``first``.

    ``tensor`` must be private to the caller: diagonal and controlled ops
    write it in place.  ``conj`` applies the complex-conjugate gate, as a
    density matrix's column axes need.  Returns the resulting tensor.
    """
    kind, targets, controls, data = op
    if kind == _GATHER:
        shape = tensor.shape
        if tensor.ndim == num_qubits:  # one register, no batch axes
            return tensor.reshape(-1)[data].reshape(shape)
        flat = tensor.reshape(1 << first, 1 << num_qubits, -1)
        return flat.take(data, axis=1).reshape(shape)
    if conj:
        data = data.conj()
    axes = [first + q for q in targets]
    view = tensor
    if controls:
        index = [slice(None)] * (first + num_qubits)
        for q, bit in controls:
            index[first + q] = bit
        view = tensor[tuple(index)]
        # Integer-indexed control axes drop out of the view.
        axes = [a - sum(first + q < a for q, _ in controls) for a in axes]
    if kind == _DIAGONAL:
        shape = [1] * view.ndim
        for axis in axes:
            shape[axis] = 2
        view *= data.reshape(shape).astype(view.dtype, copy=False)
        return tensor
    result = apply_matrix(view, data, axes)
    if not controls:
        return result
    view[...] = result
    return tensor


def _apply_ops(tensor: np.ndarray, ops: Iterable, num_qubits: int) -> np.ndarray:
    """Apply lowered ops in order to a private state tensor (register at axis 0)."""
    for op in ops:
        tensor = _apply_op(tensor, op, num_qubits)
    return tensor


def _evolve_tensor(tensor: np.ndarray, circuit: QuantumCircuit, num_qubits: int) -> np.ndarray:
    """Run ``circuit`` on a private state tensor (register at axis 0)."""
    return _apply_ops(tensor, lower_items(circuit, num_qubits), num_qubits)


def sample_outcome_counts(
    probs: np.ndarray, shots: int, rng: np.random.Generator, num_qubits: int
) -> dict[str, int]:
    """Draw ``shots`` outcomes from a distribution as seeded bitstring counts.

    One vectorized multinomial draw (``O(2^n)``, independent of the shot
    count) replaces any per-shot loop; only the observed outcomes are
    materialised as bitstrings.  The vector is clipped and renormalised
    defensively so accumulated floating-point drift — e.g. from a long noisy
    density-matrix evolution — cannot trip the draw.  This is the single
    sampler behind :meth:`Statevector.sample_counts`,
    :meth:`~repro.circuits.density_matrix.DensityMatrix.sample_counts` and
    the ``sampling`` backend.
    """
    if shots <= 0:
        raise SimulationError("shots must be positive")
    probs = np.clip(np.asarray(probs, dtype=float), 0.0, None)
    total = probs.sum()
    if total <= 0:
        raise SimulationError("outcome distribution sums to zero; cannot sample")
    freqs = rng.multinomial(shots, probs / total)
    (hit,) = np.nonzero(freqs)
    return {
        int_to_bitstring(int(index), num_qubits): int(freqs[index]) for index in hit
    }


class Statevector:
    """A pure state on ``num_qubits`` qubits with fast circuit evolution."""

    def __init__(self, data: np.ndarray | int, num_qubits: int | None = None):
        if isinstance(data, (int, np.integer)):
            if num_qubits is None:
                raise SimulationError("num_qubits is required when initialising from an int")
            vec = np.zeros(1 << num_qubits, dtype=complex)
            vec[int(data)] = 1.0
        else:
            vec = np.asarray(data, dtype=complex).reshape(-1).copy()
            dim = vec.shape[0]
            if dim == 0 or dim & (dim - 1):
                raise SimulationError(f"statevector length {dim} is not a power of two")
            if num_qubits is not None and (1 << num_qubits) != dim:
                raise SimulationError(
                    f"statevector of length {dim} does not match {num_qubits} qubits"
                )
        self._vec = vec
        self.num_qubits = int(math.log2(self._vec.shape[0])) if self._vec.shape[0] > 1 else 0
        if 1 << self.num_qubits != self._vec.shape[0]:
            self.num_qubits = self._vec.shape[0].bit_length() - 1

    # ------------------------------------------------------------------ basics

    @classmethod
    def zero_state(cls, num_qubits: int) -> "Statevector":
        return cls(0, num_qubits)

    @classmethod
    def from_bitstring(cls, bitstring: str) -> "Statevector":
        return cls(int(bitstring, 2), len(bitstring))

    @property
    def data(self) -> np.ndarray:
        return self._vec.copy()

    def copy(self) -> "Statevector":
        return Statevector(self._vec.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self._vec))

    def normalize(self) -> "Statevector":
        n = self.norm()
        if n == 0:
            raise SimulationError("cannot normalise the zero vector")
        return Statevector(self._vec / n)

    def inner(self, other: "Statevector") -> complex:
        """⟨self|other⟩."""
        return complex(np.vdot(self._vec, other._vec))

    def fidelity(self, other: "Statevector") -> float:
        """|⟨self|other⟩|² for normalised states."""
        return abs(self.inner(other)) ** 2

    # --------------------------------------------------------------- evolution

    def evolve(self, circuit: QuantumCircuit) -> "Statevector":
        """Return the state after applying ``circuit``."""
        if circuit.num_qubits != self.num_qubits:
            raise SimulationError(
                f"circuit acts on {circuit.num_qubits} qubits, state has {self.num_qubits}"
            )
        return self.replay(
            lower_items(circuit, self.num_qubits), global_phase=circuit.global_phase
        )

    def replay(
        self, ops: Iterable, *, repeat: int = 1, global_phase: float = 0.0
    ) -> "Statevector":
        """Return the state after ``repeat`` passes of pre-lowered ops, then
        ``e^{i·global_phase}`` (see :func:`lower_items`)."""
        if repeat > 1:
            ops = list(ops)  # every pass needs every op, and an iterator runs out
        n = self.num_qubits
        tensor = self._vec.reshape((2,) * n if n else (1,)).copy()
        for _ in range(repeat):
            tensor = _apply_ops(tensor, ops, n)
        vec = tensor.reshape(-1)
        if global_phase:
            vec = vec * np.exp(1j * global_phase)
        return Statevector(vec)

    def evolve_matrix(self, matrix: np.ndarray, qubits: Sequence[int]) -> "Statevector":
        """Apply an explicit matrix to a subset of qubits."""
        tensor = self._vec.reshape((2,) * self.num_qubits)
        tensor = apply_matrix(tensor, np.asarray(matrix, dtype=complex), qubits)
        return Statevector(tensor.reshape(-1))

    # ------------------------------------------------------------ measurements

    def probabilities(self) -> np.ndarray:
        return np.abs(self._vec) ** 2

    def expectation_value(self, operator: np.ndarray) -> complex:
        """⟨ψ| O |ψ⟩ for a dense or sparse operator of matching dimension."""
        op = operator
        if hasattr(op, "toarray") and op.shape[0] > (1 << 14):
            # large sparse operator: use matvec without densifying
            return complex(np.vdot(self._vec, op @ self._vec))
        op = np.asarray(op.toarray() if hasattr(op, "toarray") else op, dtype=complex)
        if op.shape != (self._vec.shape[0], self._vec.shape[0]):
            raise SimulationError(
                f"operator shape {op.shape} does not match state dimension {self._vec.shape[0]}"
            )
        return complex(np.vdot(self._vec, op @ self._vec))

    def sample_counts(
        self, shots: int, rng: np.random.Generator | None = None
    ) -> dict[str, int]:
        """Sample measurement outcomes in the computational basis."""
        rng = rng if rng is not None else np.random.default_rng()
        # sample_outcome_counts clips and renormalises, so no extra pass here.
        return sample_outcome_counts(self.probabilities(), shots, rng, self.num_qubits)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Statevector(num_qubits={self.num_qubits}, norm={self.norm():.6f})"


def evolve_statevectors(circuit: QuantumCircuit, states: np.ndarray) -> np.ndarray:
    """Evolve a whole batch of statevectors through ``circuit`` in one pass.

    ``states`` has shape ``(2^n, batch)`` — one state per column.  The batch
    rides the trailing axis of the state tensor, so every gate is applied to
    all columns by the same structured kernel a lone state would use; this
    is how
    :func:`~repro.analysis.trotter_error.trotter_error_state` replaces its
    per-state Python loop of full circuit replays.
    """
    states = np.asarray(states, dtype=complex)
    if states.ndim != 2:
        raise SimulationError(f"expected a (dim, batch) array, got shape {states.shape}")
    dim, batch = states.shape
    if dim != 1 << circuit.num_qubits:
        raise SimulationError(
            f"states of dimension {dim} do not fit a {circuit.num_qubits}-qubit circuit"
        )
    tensor = states.reshape((2,) * circuit.num_qubits + (batch,)).copy()
    out = _evolve_tensor(tensor, circuit, circuit.num_qubits).reshape(dim, batch)
    if circuit.global_phase:
        out = out * np.exp(1j * circuit.global_phase)
    return out


def simulate(circuit: QuantumCircuit, initial_state: Statevector | int = 0) -> Statevector:
    """Convenience function: evolve a computational-basis (or given) state."""
    if isinstance(initial_state, Statevector):
        state = initial_state
    else:
        state = Statevector(int(initial_state), circuit.num_qubits)
    return state.evolve(circuit)
