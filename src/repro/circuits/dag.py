"""Lightweight DAG view of a circuit: layers and scheduling helpers.

The as-soon-as-possible layering used here matches the depth definition of
:meth:`repro.circuits.circuit.QuantumCircuit.depth`, and additionally exposes
the instructions grouped per layer, which the analysis module uses to report
parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gate import Instruction

if TYPE_CHECKING:  # pragma: no cover - networkx is only needed to build graphs
    import networkx as nx


@dataclass(frozen=True)
class CircuitLayers:
    """Instructions grouped by ASAP layer."""

    layers: tuple[tuple[Instruction, ...], ...]

    @property
    def depth(self) -> int:
        return len(self.layers)

    def widths(self) -> tuple[int, ...]:
        """Number of gates in each layer (a measure of available parallelism)."""
        return tuple(len(layer) for layer in self.layers)


def circuit_layers(circuit: QuantumCircuit, *, min_qubits: int = 1) -> CircuitLayers:
    """Group instructions into as-soon-as-possible layers.

    Gates acting on fewer than ``min_qubits`` qubits are scheduled but do not
    open new layers on their own when ``min_qubits`` > 1 (they are simply
    skipped), mirroring the two-qubit-depth metric used in the paper's
    comparisons.
    """
    qubit_level = [0] * max(circuit.num_qubits, 1)
    buckets: dict[int, list[Instruction]] = {}
    for instr in circuit:
        if len(instr.qubits) < min_qubits:
            continue
        level = 1 + max((qubit_level[q] for q in instr.qubits), default=0)
        for q in instr.qubits:
            qubit_level[q] = level
        buckets.setdefault(level, []).append(instr)
    layers = tuple(tuple(buckets[level]) for level in sorted(buckets))
    return CircuitLayers(layers)


def circuit_dependency_graph(circuit: QuantumCircuit) -> "nx.DiGraph":
    """Directed dependency graph between instructions.

    Node ``i`` is the i-th instruction; an edge ``i -> j`` means instruction
    ``j`` must execute after ``i`` because they share a qubit and ``j`` comes
    later in program order (only the immediate predecessor per qubit is kept).
    Needs networkx, which is imported here rather than with the package.
    """
    import networkx as nx

    graph = nx.DiGraph()
    last_on_qubit: dict[int, int] = {}
    for idx, instr in enumerate(circuit):
        graph.add_node(idx, name=instr.name, qubits=instr.qubits)
        for q in instr.qubits:
            if q in last_on_qubit:
                graph.add_edge(last_on_qubit[q], idx)
            last_on_qubit[q] = idx
    return graph


def critical_path_length(circuit: QuantumCircuit) -> int:
    """Length (in gates) of the longest dependency chain; equals the depth.

    Every dependency edge joins consecutive gates on one qubit, so the longest
    chain has one gate per ASAP layer.
    """
    return circuit_layers(circuit).depth
