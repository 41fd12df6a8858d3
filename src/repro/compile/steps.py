"""Trotter steps built once per Hamiltonian and bound per point.

A ``direct`` or ``pauli`` program only needs its rotation angles to change
with ``dt``; everything else about a Trotter step depends on the
Hamiltonian alone.  That part is kept in one process-wide LRU, keyed on the
strategy, the strategy's option slice (``evolution_options()`` or
``pauli_options()``), the register width and the Hamiltonian's *as-written*
term sequence (:meth:`~repro.operators.hamiltonian.Hamiltonian.sequence_key`
— term order is the product's order, so never ``content_key()`` alone, and
never gate equality, which compares angles with a tolerance).  An entry
holds:

* the strategy's fragment list, each fragment with its time-free
  :class:`~repro.circuits.skeleton.Skeleton`.  The logical circuit
  (:meth:`DirectStrategy.build <repro.compile.strategies.DirectStrategy.build>`)
  binds these same skeletons, so gate counts read what the engine runs;
* per product-formula order, the step's lowered ops
  (:func:`~repro.circuits.statevector.lower_step`): each fragment lowered
  once, one composed index table per fragment boundary, and a slot op for
  every angle that depends on the time.

A point runs :func:`~repro.core.trotter.product_formula` over
:class:`~repro.core.trotter.FragmentVisits` — the visit times and nested
global-phase sums its circuit would get — and binds each slot at its visit's
time (:func:`bind_step`).  The LRU is bounded in entries and in the bytes of
the index tables it holds; a step whose tables alone pass the byte bound is
never built, and its program runs its execution circuit instead.
"""

from __future__ import annotations

import itertools
from dataclasses import astuple
from typing import TYPE_CHECKING, NamedTuple

from repro.circuits.statevector import bind_ops, lower_step
from repro.core.trotter import (
    ExponentiableFragment,
    FragmentVisits,
    direct_fragments,
    pauli_fragments,
    product_formula,
)
from repro.exceptions import CompileError
from repro.utils.lru import LRUCache

if TYPE_CHECKING:  # pragma: no cover
    from repro.compile.problem import SimulationProblem


class BoundStep(NamedTuple):
    """One Trotter step's ops with ``dt`` bound, and how to replay them."""

    ops: list
    steps: int
    #: The whole formula's global phase, summed as its circuit sums it.
    global_phase: float


class _Entry:
    """The time-free half of one Hamiltonian's steps for one strategy."""

    __slots__ = ("fragments", "visitors", "slot_counts", "templates")

    def __init__(self, fragments: "list[ExponentiableFragment]"):
        self.fragments = fragments
        skeletons = [fragment.skeleton for fragment in fragments]
        self.visitors = FragmentVisits.visitors(skeletons)
        self.slot_counts = [len(skeleton.slots) for skeleton in skeletons]
        #: product-formula order -> lowered step (``None``: over the byte bound)
        self.templates: dict = {}


def _key(problem: "SimulationProblem", strategy: str) -> tuple:
    options = problem.options
    if strategy == "direct":
        slice_ = options.evolution_options()
    elif strategy == "pauli":
        slice_ = options.pauli_options()
    else:
        raise CompileError(f"no cached Trotter step for strategy {strategy!r}")
    return (strategy, astuple(slice_), problem.num_qubits, problem.hamiltonian.sequence_key())


#: ``key -> _Entry`` for at most 16 Hamiltonians, charged the bytes of their
#: index tables as each order's step is lowered, up to 64 MiB (a 10-qubit
#: table is 8 KiB; a one-step HUBO ``pauli`` step of 435 strings keeps 436).
_STEPS = LRUCache(64 << 20, 16)


def _entry(problem: "SimulationProblem", strategy: str) -> "tuple[tuple, _Entry]":
    key = _key(problem, strategy)
    entry = _STEPS.get(key)
    if entry is not None:
        return key, entry
    options = problem.options
    if strategy == "direct":
        fragments = direct_fragments(problem.hamiltonian, options.evolution_options())
    else:
        fragments = pauli_fragments(
            problem.pauli_operator(), problem.num_qubits, options.pauli_options()
        )
    return key, _STEPS.setdefault(key, _Entry(fragments))


def step_fragments(
    problem: "SimulationProblem", strategy: str
) -> "list[ExponentiableFragment]":
    """The cached fragment list of ``strategy`` for the problem's Hamiltonian."""
    return _entry(problem, strategy)[1].fragments


def bind_step(problem: "SimulationProblem", strategy: str) -> "BoundStep | None":
    """One step of the problem's product formula as bound structured ops.

    ``None`` when the step's index tables would pass the cache's byte bound;
    the caller then runs the execution circuit.
    """
    key, entry = _entry(problem, strategy)
    step, whole = product_formula(
        entry.visitors,
        problem.num_qubits,
        problem.time,
        steps=problem.steps,
        order=problem.order,
        new=FragmentVisits,
    )
    order = problem.order
    if order not in entry.templates:
        lowered = lower_step(
            [fragment.skeleton.items for fragment in entry.fragments],
            [index for index, _ in step.visits],
            problem.num_qubits,
            _STEPS.cap_bytes,
        )
        template, nbytes = lowered if lowered is not None else (None, 0)
        # setdefault is atomic: of the threads that lowered one order, only
        # the one whose template is stored charges its bytes.
        if entry.templates.setdefault(order, template) is template:
            _STEPS.charge(key, entry, nbytes)
    template = entry.templates[order]
    if template is None:
        return None
    counts = entry.slot_counts
    times = itertools.chain.from_iterable(
        itertools.repeat(time, counts[index]) for index, time in step.visits
    )
    return BoundStep(bind_ops(template, times), problem.steps, whole.global_phase)
