"""Problem generators: hypergraph max-cut, knapsack, and sparse high-order HUBOs.

Hypergraph max-cut is the motivating spin-formalism example of Eq. 13; the
knapsack problem is quoted as a typical boolean-formalism problem (Eq. 14).
Both reductions are standard; they are included so the examples and benchmarks
exercise the phase-separator machinery on problems with realistic structure.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.applications.hubo.problem import HUBOProblem
from repro.exceptions import ProblemError

if TYPE_CHECKING:  # pragma: no cover - the caller brings its own graph
    import networkx as nx


def maxcut_problem(graph: "nx.Graph") -> HUBOProblem:
    """Weighted max-cut of an ordinary graph as a spin HUBO (order 2).

    Cut value ``Σ_{(i,j)} w_ij (1 - z_i z_j)/2``; minimising
    ``Σ w_ij z_i z_j / 2`` (dropping the constant) maximises the cut.
    """
    num_variables = graph.number_of_nodes()
    mapping = {node: index for index, node in enumerate(sorted(graph.nodes()))}
    problem = HUBOProblem(num_variables, formalism="spin")
    for u, v, data in graph.edges(data=True):
        weight = float(data.get("weight", 1.0))
        problem.add_term((mapping[u], mapping[v]), weight / 2.0)
        problem.add_term((), -weight / 2.0)
    return problem


def hypergraph_maxcut_problem(
    num_variables: int, hyperedges: Iterable[tuple[Sequence[int], float]]
) -> HUBOProblem:
    """Hypergraph max-cut as a high-order spin HUBO.

    For a hyperedge ``e`` with weight ``w`` the (generalised, parity-based)
    cut indicator used here is ``(1 - Π_{i∈e} z_i)/2``: the edge is counted
    when an odd number of its vertices is on the ``1`` side.  Minimising
    ``Σ_e w_e Π_{i∈e} z_i / 2`` maximises the number of such edges — a single
    order-``|e|`` monomial per hyperedge, the natural high-order HUBO of
    Section V-A.
    """
    problem = HUBOProblem(num_variables, formalism="spin")
    for vertices, weight in hyperedges:
        problem.add_term(tuple(vertices), float(weight) / 2.0)
        problem.add_term((), -float(weight) / 2.0)
    return problem


def random_hypergraph_maxcut(
    num_variables: int,
    num_hyperedges: int,
    max_edge_size: int,
    *,
    rng: np.random.Generator | int | None = None,
) -> HUBOProblem:
    """Random hypergraph max-cut instance (uniform edge sizes in ``[2, max]``)."""
    if isinstance(rng, (int, np.integer)) or rng is None:
        rng = np.random.default_rng(rng)
    hyperedges = []
    for _ in range(num_hyperedges):
        size = int(rng.integers(2, max_edge_size + 1))
        vertices = tuple(rng.choice(num_variables, size=size, replace=False))
        hyperedges.append((vertices, float(rng.uniform(0.5, 1.5))))
    return hypergraph_maxcut_problem(num_variables, hyperedges)


def knapsack_problem(
    values: Sequence[float],
    weights: Sequence[float],
    capacity: float,
    *,
    penalty: float | None = None,
) -> HUBOProblem:
    """0/1 knapsack as a boolean HUBO with a quadratic slack-free penalty.

    The cost is ``-Σ v_i x_i + λ·max(0, Σ w_i x_i - capacity)²`` approximated
    by the usual quadratic penalty ``λ (Σ w_i x_i - capacity)²`` restricted to
    overweight assignments being penalised more than any value gain.  The
    resulting monomials are of order ≤ 2 in the boolean formalism — the paper's
    point being that such problems are *naturally* boolean.
    """
    if len(values) != len(weights):
        raise ProblemError("values and weights must have the same length")
    n = len(values)
    if penalty is None:
        penalty = 2.0 * float(sum(values)) / max(float(capacity), 1.0)
    problem = HUBOProblem(n, formalism="boolean")
    for i, v in enumerate(values):
        problem.add_term((i,), -float(v))
    # λ (Σ w_i x_i - C)² = λ [Σ w_i² x_i + 2 Σ_{i<j} w_i w_j x_i x_j - 2C Σ w_i x_i + C²]
    for i in range(n):
        problem.add_term((i,), penalty * (weights[i] ** 2 - 2.0 * capacity * weights[i]))
        for j in range(i + 1, n):
            problem.add_term((i, j), 2.0 * penalty * weights[i] * weights[j])
    problem.add_term((), penalty * capacity**2)
    return problem


def parity_constrained_problem(
    num_variables: int,
    clauses: Iterable[tuple[Sequence[int], int]],
    *,
    penalty: float = 1.0,
) -> HUBOProblem:
    """Parity (XOR-SAT style) constraints as a naturally high-order boolean HUBO.

    Each clause ``(subset, parity)`` penalises assignments whose subset parity
    differs from the target: the indicator ``(1 - (-1)^{parity} Π z_i)/2``
    expressed back over boolean monomials keeps a single high-order monomial
    per clause in the *spin* picture, making this a good stress case for the
    crossover benchmark.
    """
    problem = HUBOProblem(num_variables, formalism="spin")
    for subset, parity in clauses:
        sign = -1.0 if parity == 0 else 1.0
        problem.add_term(tuple(subset), sign * penalty / 2.0)
        problem.add_term((), penalty / 2.0)
    return problem
