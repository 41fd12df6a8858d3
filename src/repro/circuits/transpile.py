"""Transpilation of composite gates into one- and two-qubit gates — and the
opposite direction: :func:`fuse_gates` merges runs of small gates into single
multi-qubit :class:`~repro.circuits.gate.MatrixGate`\\ s for fast simulation.

The paper compares strategies by the number of two-qubit gates, the number of
arbitrary-rotation gates and the depth after transpilation to a native gate
set (Section VI-A).  :func:`transpile` expands every composite
(multi-controlled) gate of a circuit into one- and two-qubit gates so those
metrics can be read directly off the result.

Two expansion modes are provided for multi-controlled gates:

* ``"noancilla"`` — exact recursive decompositions (polynomial blow-up, no
  extra qubits);
* ``"vchain"`` — V-chain of clean ancilla qubits appended to the register,
  linear two-qubit cost (the regime of the paper's ``∝192·n`` model).

Gate fusion is the execution-side optimization: a statevector update costs
one pass over the state per instruction, so collapsing ``g`` adjacent gates
confined to ``k ≤ fusion_max_qubits`` qubits into one ``2^k × 2^k`` matrix
divides the pass count by ``g``.  The price is that the fused block is dense:
the structured kernels of :mod:`repro.circuits.statevector` (a gather for a
permutation, a multiply for a diagonal gate, a control-slice update) become
one ``tensordot`` of the block.  On the 10-qubit direct Trotter circuit of
``benchmarks/bench_gate_fusion.py`` (576 gates → 17 blocks, 2 cores) fusion
still runs the statevector about 9× faster (unfused 4.8 ms, fused 0.56 ms),
down from about 25× when every unfused gate was a dense tensordot as well.
It is exposed through ``CompileOptions.optimize_level`` in the compile
pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.decompositions import (
    ccp_decomposition,
    ccx_decomposition,
    ccz_decomposition,
    controlled_unitary_abc,
    cswap_decomposition,
    mc_rotation_decomposition,
    mcp_decomposition,
    mcx_decomposition,
    mcx_vchain,
)
from repro.circuits.gate import (
    ControlledGate,
    Instruction,
    MatrixGate,
    StandardGate,
    UnitaryGate,
)
from repro.exceptions import DecompositionError


@dataclass
class TranspileOptions:
    """Options controlling :func:`transpile`.

    Attributes
    ----------
    mcx_mode:
        ``"noancilla"`` or ``"vchain"``.
    expand_two_qubit:
        When True, two-qubit controlled standard gates (``cx`` excepted) are
        further expanded into ``{1-qubit, CX}`` via the ABC decomposition,
        matching a QPU whose only entangling gate is CX.
    keep_cp:
        When ``expand_two_qubit`` is True, keep ``cp`` gates native (the paper
        discusses gate sets both with and without a native controlled-phase).
    """

    mcx_mode: str = "noancilla"
    expand_two_qubit: bool = False
    keep_cp: bool = True
    extra: dict = field(default_factory=dict)


def _expand_standard_three_qubit(instr: Instruction, num_qubits: int) -> QuantumCircuit:
    gate = instr.gate
    q = instr.qubits
    if gate.name == "ccx":
        return ccx_decomposition(q[0], q[1], q[2], num_qubits)
    if gate.name == "ccz":
        return ccz_decomposition(q[0], q[1], q[2], num_qubits)
    if gate.name == "ccp":
        return ccp_decomposition(gate.params[0], q[0], q[1], q[2], num_qubits)
    if gate.name == "cswap":
        return cswap_decomposition(q[0], q[1], q[2], num_qubits)
    raise DecompositionError(f"no decomposition registered for gate {gate.name!r}")


def _expand_controlled(
    instr: Instruction, num_qubits: int, options: TranspileOptions, ancillas: list[int]
) -> QuantumCircuit:
    gate = instr.gate
    assert isinstance(gate, ControlledGate)
    controls = list(instr.qubits[: gate.num_ctrl])
    targets = list(instr.qubits[gate.num_ctrl:])
    base = gate.base
    ctrl_state = gate.ctrl_state

    if base.num_qubits != 1:
        raise DecompositionError(
            f"cannot transpile a controlled {base.num_qubits}-qubit gate "
            f"({gate.name!r}); decompose the base gate into a circuit first"
        )
    target = targets[0]

    if isinstance(base, StandardGate) and base.name == "x":
        if options.mcx_mode == "vchain" and len(controls) > 2:
            return mcx_vchain(controls, target, ancillas[: len(controls) - 2], num_qubits, ctrl_state)
        return mcx_decomposition(controls, target, num_qubits, ctrl_state)
    if isinstance(base, StandardGate) and base.name == "z":
        return mcp_decomposition(math.pi, controls, target, num_qubits, ctrl_state)
    if isinstance(base, StandardGate) and base.name == "p":
        return mcp_decomposition(base.params[0], controls, target, num_qubits, ctrl_state)
    if isinstance(base, StandardGate) and base.name in {"rx", "ry", "rz"}:
        return mc_rotation_decomposition(
            base.name[-1], base.params[0], controls, target, num_qubits, ctrl_state
        )
    if isinstance(base, StandardGate) and base.name == "gphase":
        # A controlled global phase is a multi-controlled phase on the controls
        # only (the nominal target qubit is untouched).
        from repro.circuits.decompositions import _apply_ctrl_state_flips

        qc = QuantumCircuit(num_qubits, "cphase")
        flipped = _apply_ctrl_state_flips(qc, controls, ctrl_state)
        if len(controls) == 1:
            qc.p(base.params[0], controls[0])
        else:
            qc.compose(
                mcp_decomposition(base.params[0], controls[:-1], controls[-1], num_qubits)
            )
        for q in flipped:
            qc.x(q)
        return qc
    # Generic single-qubit base gate: single control -> ABC decomposition,
    # multiple controls -> recurse through a multi-controlled rotation-free path.
    matrix = base.matrix()
    if len(controls) == 1:
        qc = QuantumCircuit(num_qubits, f"c-{base.name}")
        flip = ctrl_state is not None and ctrl_state == 0
        if flip:
            qc.x(controls[0])
        qc.compose(controlled_unitary_abc(matrix, controls[0], target, num_qubits))
        if flip:
            qc.x(controls[0])
        return qc
    # Multi-controlled arbitrary U: V = sqrt(U) recursion (Barenco Lemma 7.5).
    return _mcu_recursive(matrix, controls, target, num_qubits, ctrl_state, base.name)


def _mcu_recursive(
    matrix, controls: list[int], target: int, num_qubits: int, ctrl_state: int | None, label: str
) -> QuantumCircuit:
    import numpy as np
    from scipy.linalg import sqrtm

    from repro.circuits.decompositions import _apply_ctrl_state_flips

    qc = QuantumCircuit(num_qubits, f"mc-{label}")
    flipped = _apply_ctrl_state_flips(qc, controls, ctrl_state)

    def recurse(mat, ctrls: list[int]) -> None:
        if len(ctrls) == 1:
            qc.compose(controlled_unitary_abc(mat, ctrls[0], target, num_qubits))
            return
        v = np.asarray(sqrtm(mat), dtype=complex)
        last = ctrls[-1]
        rest = ctrls[:-1]
        qc.compose(controlled_unitary_abc(v, last, target, num_qubits))
        qc.compose(mcx_decomposition(rest, last, num_qubits))
        qc.compose(controlled_unitary_abc(v.conj().T, last, target, num_qubits))
        qc.compose(mcx_decomposition(rest, last, num_qubits))
        recurse(v, rest)

    recurse(np.asarray(matrix, dtype=complex), list(controls))
    for q in flipped:
        qc.x(q)
    return qc


def _count_needed_ancillas(circuit: QuantumCircuit) -> int:
    needed = 0
    for instr in circuit:
        gate = instr.gate
        if isinstance(gate, ControlledGate) and isinstance(gate.base, StandardGate):
            if gate.base.name == "x" and gate.num_ctrl > 2:
                needed = max(needed, gate.num_ctrl - 2)
    return needed


def transpile(circuit: QuantumCircuit, options: TranspileOptions | None = None) -> QuantumCircuit:
    """Expand every composite gate of ``circuit`` into 1- and 2-qubit gates."""
    options = options or TranspileOptions()
    num_ancillas = 0
    if options.mcx_mode == "vchain":
        num_ancillas = _count_needed_ancillas(circuit)
    num_qubits = circuit.num_qubits + num_ancillas
    ancillas = list(range(circuit.num_qubits, num_qubits))

    out = QuantumCircuit(num_qubits, f"{circuit.name}_transpiled")
    out.global_phase = circuit.global_phase
    for instr in circuit:
        gate = instr.gate
        if isinstance(gate, ControlledGate):
            out.compose(_expand_controlled(instr, num_qubits, options, ancillas),
                        qubits=range(num_qubits))
        elif isinstance(gate, StandardGate) and gate.num_qubits >= 3:
            out.compose(_expand_standard_three_qubit(instr, num_qubits), qubits=range(num_qubits))
        elif isinstance(gate, UnitaryGate) and gate.num_qubits >= 3:
            raise DecompositionError(
                "cannot transpile a raw multi-qubit UnitaryGate; provide a circuit definition"
            )
        else:
            out.append(gate, instr.qubits)

    if options.expand_two_qubit:
        out = _expand_two_qubit_layer(out, options)
    return out


def _expand_two_qubit_layer(circuit: QuantumCircuit, options: TranspileOptions) -> QuantumCircuit:
    """Rewrite controlled two-qubit standard gates over the {1q, CX} basis."""
    out = QuantumCircuit(circuit.num_qubits, circuit.name)
    out.global_phase = circuit.global_phase
    for instr in circuit:
        gate = instr.gate
        name = gate.name
        if len(instr.qubits) != 2 or name in {"cx"}:
            out.append(gate, instr.qubits)
            continue
        if name == "cp" and options.keep_cp:
            out.append(gate, instr.qubits)
            continue
        if isinstance(gate, StandardGate) and name in {"cz", "cy", "ch", "cp", "crx", "cry", "crz"}:
            control, target = instr.qubits
            if name == "cz":
                out.h(target)
                out.cx(control, target)
                out.h(target)
            elif name == "cy":
                out.sdg(target)
                out.cx(control, target)
                out.s(target)
            elif name == "cp":
                theta = gate.params[0]
                out.p(theta / 2.0, control)
                out.cx(control, target)
                out.p(-theta / 2.0, target)
                out.cx(control, target)
                out.p(theta / 2.0, target)
            elif name == "crz":
                theta = gate.params[0]
                out.rz(theta / 2.0, target)
                out.cx(control, target)
                out.rz(-theta / 2.0, target)
                out.cx(control, target)
            elif name in {"crx", "cry", "ch"}:
                matrix = StandardGate(name[1:], getattr(gate, "params", ())).matrix() \
                    if name != "ch" else StandardGate("h").matrix()
                out.compose(
                    controlled_unitary_abc(matrix, control, target, circuit.num_qubits)
                )
            continue
        if isinstance(gate, StandardGate) and name == "swap":
            a, b = instr.qubits
            out.cx(a, b)
            out.cx(b, a)
            out.cx(a, b)
            continue
        if isinstance(gate, StandardGate) and name in {"rzz", "rxx", "ryy"}:
            a, b = instr.qubits
            theta = gate.params[0]
            if name == "rxx":
                out.h(a)
                out.h(b)
            elif name == "ryy":
                out.sdg(a)
                out.h(a)
                out.sdg(b)
                out.h(b)
            out.cx(a, b)
            out.rz(theta, b)
            out.cx(a, b)
            if name == "rxx":
                out.h(a)
                out.h(b)
            elif name == "ryy":
                out.h(a)
                out.s(a)
                out.h(b)
                out.s(b)
            continue
        out.append(gate, instr.qubits)
    return out


# --------------------------------------------------------------------- fusion


@dataclass(frozen=True)
class FusionReport:
    """What :func:`fuse_gates` did to a circuit."""

    gates_before: int
    gates_after: int
    fused_blocks: int
    widest_block: int

    @property
    def compression(self) -> float:
        """Instruction-count ratio before/after (≥ 1; higher is better)."""
        return self.gates_before / max(self.gates_after, 1)


class _FusionBlock:
    """A contiguous (reorder-safe) run of gates confined to few qubits."""

    __slots__ = ("qubits", "instructions", "mergeable")

    def __init__(self, instr: Instruction, mergeable: bool):
        self.qubits = set(instr.qubits)
        self.instructions = [instr]
        self.mergeable = mergeable


def _block_matrix(block: _FusionBlock, qubits: tuple[int, ...]) -> np.ndarray:
    """Dense unitary of a block on its sorted qubit support (MSB-first)."""
    from repro.circuits.statevector import apply_matrix

    local = {q: i for i, q in enumerate(qubits)}
    k = len(qubits)
    dim = 1 << k
    tensor = np.eye(dim, dtype=np.complex128).reshape((2,) * k + (dim,))
    for instr in block.instructions:
        tensor = apply_matrix(
            tensor, instr.gate.matrix(), tuple(local[q] for q in instr.qubits)
        )
    return tensor.reshape(dim, dim)


def fuse_gates(
    circuit: QuantumCircuit,
    *,
    max_fused_qubits: int = 4,
    label: str = "fused",
) -> QuantumCircuit:
    """Greedily merge adjacent gates into multi-qubit :class:`MatrixGate`\\ s.

    Scans the circuit once, growing *blocks* of instructions whose combined
    qubit support stays within ``max_fused_qubits``.  An instruction may also
    merge into an earlier still-open block when every block opened in between
    acts on disjoint qubits (such gates commute, so the reordering is exact).
    Blocks that end up with a single instruction are emitted unchanged, so a
    circuit of wide composite gates passes through untouched.

    The result implements exactly the same unitary (global phase included) —
    property-tested against :func:`~repro.circuits.unitary.circuit_unitary`
    on random circuits — but with far fewer instructions, which is what the
    ``statevector`` and ``sparse`` execution backends feed on.
    """
    if max_fused_qubits < 1:
        raise DecompositionError("max_fused_qubits must be at least 1")
    blocks: list[_FusionBlock] = []
    for instr in circuit:
        targets = set(instr.qubits)
        mergeable = len(targets) <= max_fused_qubits
        # The last block sharing a qubit is a hard ordering barrier: the
        # instruction may only join that block or a later (qubit-disjoint) one.
        barrier = -1
        for i in range(len(blocks) - 1, -1, -1):
            if blocks[i].qubits & targets:
                barrier = i
                break
        placed = False
        if mergeable:
            for i in range(len(blocks) - 1, max(barrier, 0) - 1, -1):
                block = blocks[i]
                if block.mergeable and len(block.qubits | targets) <= max_fused_qubits:
                    block.qubits |= targets
                    block.instructions.append(instr)
                    placed = True
                    break
        if not placed:
            blocks.append(_FusionBlock(instr, mergeable))

    out = QuantumCircuit(circuit.num_qubits, f"{circuit.name}_fused")
    out.global_phase = circuit.global_phase
    for block in blocks:
        if len(block.instructions) == 1:
            only = block.instructions[0]
            out.append(only.gate, only.qubits)
            continue
        qubits = tuple(sorted(block.qubits))
        # Products of unitaries are unitary: skip MatrixGate's O(dim^3) check.
        out.append(MatrixGate(_block_matrix(block, qubits), label=label, check=False), qubits)
    return out


def fusion_report(
    before: QuantumCircuit, after: QuantumCircuit, *, label: str = "fused"
) -> FusionReport:
    """Summarize a :func:`fuse_gates` run from its input and output circuits.

    ``label`` must match the one passed to :func:`fuse_gates` (blocks are
    recognized by gate name).
    """
    fused = [instr for instr in after if instr.name == label]
    return FusionReport(
        gates_before=before.size(),
        gates_after=after.size(),
        fused_blocks=len(fused),
        widest_block=max((len(instr.qubits) for instr in fused), default=0),
    )
