"""Differential harness, statevector slice: a bound step equals its circuit, bit for bit.

A ``direct``/``pauli`` program runs on the ``statevector`` backend by binding
``dt`` into its Hamiltonian's cached, pre-lowered Trotter step
(:mod:`repro.compile.steps`).  Its oracle is the gate-by-gate replay of a
circuit built *without* the cache — :func:`~repro.core.trotter.trotter_circuit`
over freshly built fragments — with the circuit's global phase applied last.
The run, the per-gate replay of ``program.circuit`` and the uncached replay
must give the same bytes, in process and through a worker pool, for random
SCB Hamiltonians with identity and projector terms and complex
coefficients, over both strategies, orders 1/2/4/6, steps 1–3 and every
option that shapes the circuits.  Each Hamiltonian also runs with its terms
reversed: the same content key, a different product.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.statevector import _apply_op, _lower_gate
from repro.compile.options import CompileOptions
from repro.compile.pipeline import compile_problem
from repro.compile.problem import SimulationProblem
from repro.core.trotter import direct_fragments, pauli_fragments, trotter_circuit
from repro.operators.hamiltonian import Hamiltonian
from repro.runtime import ProcessExecutor, RunSpec
from repro.runtime.results import decode_result

FACTORS = "nmsdXYZI"

coefficients = st.one_of(
    st.floats(0.05, 1.5) | st.floats(-1.5, -0.05),
    st.complex_numbers(min_magnitude=0.05, max_magnitude=1.5, allow_nan=False,
                       allow_infinity=False),
)


@st.composite
def hamiltonians(draw) -> Hamiltonian:
    num_qubits = draw(st.integers(1, 4))
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("any", "any", "identity", "projector")))
        alphabet = {"any": FACTORS, "identity": "I", "projector": "nmI"}[kind]
        label = "".join(draw(st.sampled_from(alphabet)) for _ in range(num_qubits))
        coefficient = draw(coefficients)
        if kind != "any":  # a Hermitian term keeps a real coefficient
            coefficient = complex(coefficient).real or 0.5
        terms.append((label, coefficient))
    return Hamiltonian.from_labels(num_qubits, terms)


@st.composite
def problems(draw) -> tuple[SimulationProblem, str]:
    options = CompileOptions(
        parity_mode=draw(st.sampled_from(("linear", "pyramid"))),
        basis_change=draw(st.sampled_from(("linear", "pyramid"))),
        complex_mode=draw(st.sampled_from(("exact", "trotter_split"))),
    )
    problem = SimulationProblem(
        draw(hamiltonians()),
        draw(st.floats(0.05, 2.0)),
        steps=draw(st.integers(1, 3)),
        # Order 6 too: at order 4 ``dt * (0.5 * u_k)`` equals ``(u_k * dt) / 2.0``
        # exactly, so only a deeper recursion shows a time computed off
        # ``_formula_step``.
        order=draw(st.sampled_from((1, 2, 4, 6))),
        options=options,
    )
    return problem, draw(st.sampled_from(("direct", "pauli")))


def reversed_terms(problem: SimulationProblem) -> SimulationProblem:
    terms = problem.hamiltonian.terms[::-1]
    return replace(problem, hamiltonian=Hamiltonian(problem.num_qubits, terms))


def per_gate(circuit, state: np.ndarray) -> np.ndarray:
    """The gate-by-gate replay: one lowered op per instruction, phase last."""
    n = circuit.num_qubits
    tensor = state.reshape((2,) * n).copy()
    for instr in circuit:
        tensor = _apply_op(tensor, _lower_gate(instr.gate, instr.qubits, n), n)
    vec = tensor.reshape(-1)
    if circuit.global_phase:
        vec = vec * np.exp(1j * circuit.global_phase)
    return vec


def uncached_circuit(problem: SimulationProblem, strategy: str):
    options = problem.options
    if strategy == "direct":
        fragments = direct_fragments(problem.hamiltonian, options.evolution_options())
    else:
        fragments = pauli_fragments(
            problem.pauli_operator(), problem.num_qubits, options.pauli_options()
        )
    return trotter_circuit(
        fragments, problem.num_qubits, problem.time, steps=problem.steps, order=problem.order
    )


def initial_state(num_qubits: int) -> np.ndarray:
    rng = np.random.default_rng(num_qubits)
    state = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return state / np.linalg.norm(state)


def oracle(problem: SimulationProblem, strategy: str, state: np.ndarray) -> bytes:
    return per_gate(uncached_circuit(problem, strategy), state).tobytes()


@settings(max_examples=60, deadline=None)
@given(drawn=problems())
def test_bound_step_is_the_circuit_bit_for_bit(drawn):
    problem, strategy = drawn
    state = initial_state(problem.num_qubits)
    for variant in (problem, reversed_terms(problem)):
        program = compile_problem(variant, strategy)
        got = program.run("statevector", initial_state=state).data.tobytes()
        assert program.bound_step() is not None
        assert got == per_gate(program.circuit, state).tobytes()
        assert got == oracle(variant, strategy, state)


@pytest.fixture(scope="module")
def pool():
    with ProcessExecutor(2) as executor:
        yield executor


@settings(max_examples=12, deadline=None)
@given(drawn=problems())
def test_bound_steps_through_a_worker_pool(pool, drawn):
    problem, strategy = drawn
    variants = [replace(problem, steps=steps) for steps in (1, 2, 3)]
    payloads = [
        RunSpec(problem=variant, strategy=strategy, backend="statevector")
        .to_dict(canonical=True)
        for variant in variants
    ]
    outcomes = pool.map_specs(payloads)
    for variant, outcome in zip(variants, outcomes):
        assert outcome["ok"], outcome.get("error")
        value = decode_result(outcome["result"], outcome["arrays"])
        # Workers compile the canonical (sorted) problem.
        canonical = replace(variant, hamiltonian=variant.hamiltonian.canonical())
        zero = np.zeros(1 << variant.num_qubits, dtype=complex)
        zero[0] = 1.0
        assert value.data.tobytes() == oracle(canonical, strategy, zero)
