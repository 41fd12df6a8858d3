"""Cross-backend differential harness.

Every execution path must tell the same story: the dense ``statevector``
backend, the CSR ``sparse`` backend, the matrix-free ``kernel`` backend and
the gate-fused variants are run against each other — and, for evolution
programs, against the ``exact`` ``expm_multiply`` oracle — on random
3–6-qubit SCB Hamiltonians across all registered strategies.  Fidelity must exceed ``1 - 1e-10`` wherever the
comparison is exact (same circuit, or commuting fragments), and converge at
the Trotter rate where it is not.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.compile.pipeline import run_many
from repro.exceptions import CompileError
from repro.utils.linalg import random_statevector

#: Tolerance for comparisons that are exact up to floating-point roundoff.
EXACT_FIDELITY = 1 - 1e-10

#: The full SCB alphabet and its diagonal (mutually commuting) subset.
FULL_ALPHABET = "IXYZnmsd"
DIAGONAL_ALPHABET = "InmZ"

STRATEGIES = ("direct", "pauli", "block_encoding", "mpf")
EVOLUTION_STRATEGIES = ("direct", "pauli")


def random_problem(
    seed: int,
    *,
    num_qubits: int | None = None,
    num_terms: int | None = None,
    alphabet: str = FULL_ALPHABET,
    time: float = 0.3,
    **kwargs,
) -> repro.SimulationProblem:
    """A random SCB Hamiltonian problem with at least one non-identity factor
    per term and real coefficients (so the Hamiltonian stays Hermitian after
    the automatic h.c. gathering)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7)) if num_qubits is None else num_qubits
    terms: dict[str, float] = {}
    for _ in range(int(rng.integers(2, 5)) if num_terms is None else num_terms):
        while True:
            label = "".join(rng.choice(list(alphabet), size=n))
            if set(label) != {"I"} and label not in terms:
                break
        terms[label] = float(rng.uniform(0.2, 1.0) * rng.choice((-1, 1)))
    return repro.SimulationProblem.from_labels(n, terms, time=time, **kwargs)


def fidelity(a, b) -> float:
    return abs(np.vdot(a.data, b.data)) ** 2


class TestBackendsAgreeOnTheSameCircuit:
    """statevector / sparse / fused-vs-unfused all execute the same unitary."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("seed", range(4))
    def test_all_strategies_all_backends(self, strategy, seed):
        # Ancilla-carrying strategies build much wider circuits; keep the
        # system register small enough that the harness stays quick.
        small = strategy in ("block_encoding", "mpf")
        problem = random_problem(
            seed,
            num_qubits=3 if small else None,
            num_terms=2 if small else None,
        )
        plain = repro.compile(problem, strategy)
        fused = repro.compile(problem, strategy, optimize_level=1)
        reference = plain.run(backend="statevector")
        for program, backend in (
            (fused, "statevector"),
            (plain, "sparse"),
            (fused, "sparse"),
            (plain, "kernel"),
        ):
            result = program.run(backend=backend)
            label = f"{strategy}/{backend}/fused={program is fused}"
            assert fidelity(reference, result) > EXACT_FIDELITY, label

    @pytest.mark.parametrize("strategy", EVOLUTION_STRATEGIES)
    def test_random_initial_states(self, strategy):
        problem = random_problem(11, num_qubits=4)
        plain = repro.compile(problem, strategy, steps=2)
        fused = repro.compile(problem, strategy, steps=2, optimize_level=1)
        psi = random_statevector(4, np.random.default_rng(99))
        reference = plain.run(backend="statevector", initial_state=psi)
        assert fidelity(reference, fused.run(backend="statevector", initial_state=psi)) > EXACT_FIDELITY
        assert fidelity(reference, plain.run(backend="sparse", initial_state=psi)) > EXACT_FIDELITY
        assert fidelity(reference, fused.run(backend="sparse", initial_state=psi)) > EXACT_FIDELITY
        assert fidelity(reference, plain.run(backend="kernel", initial_state=psi)) > EXACT_FIDELITY

    @pytest.mark.parametrize("strategy", EVOLUTION_STRATEGIES)
    @pytest.mark.parametrize("seed", range(4))
    def test_kernel_plan_matches_statevector_exactly(self, strategy, seed):
        # Stricter than fidelity: the mask plan must reproduce the circuit's
        # full complex vector (global phase included) to 1e-10.
        problem = random_problem(seed + 30)
        program = repro.compile(problem, strategy, steps=2, order=2)
        psi = random_statevector(problem.num_qubits, np.random.default_rng(seed))
        reference = program.run(backend="statevector", initial_state=psi)
        kernel = program.run(backend="kernel", initial_state=psi)
        assert program.evolution_plan() is not None
        np.testing.assert_allclose(kernel.data, reference.data, atol=1e-10)


class TestDensityMatrixAgreesWithStatevector:
    """Ideal (noise-free) density-matrix evolution is |ψ⟩⟨ψ| of the pure run."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("seed", range(3))
    def test_all_strategies_ideal_density_matrix(self, strategy, seed):
        small = strategy in ("block_encoding", "mpf")
        problem = random_problem(
            seed + 40,
            num_qubits=3 if small else 4,
            num_terms=2 if small else None,
        )
        program = repro.compile(problem, strategy)
        psi = program.run(backend="statevector")
        rho = program.run(backend="density_matrix")
        label = f"{strategy}/density_matrix"
        assert rho.fidelity(psi) > EXACT_FIDELITY, label
        np.testing.assert_allclose(
            rho.data, np.outer(psi.data, psi.data.conj()), atol=1e-10
        )

    def test_explicit_ideal_noise_model_matches_too(self):
        from repro.noise import NoiseModel

        problem = random_problem(9, num_qubits=4)
        program = repro.compile(problem, "direct", noise_model=NoiseModel.ideal())
        psi = program.run(backend="statevector")
        rho = program.run(backend="density_matrix")
        assert rho.fidelity(psi) > EXACT_FIDELITY

    def test_fused_and_unfused_density_runs_agree(self):
        problem = random_problem(12, num_qubits=4)
        plain = repro.compile(problem, "direct")
        fused = repro.compile(problem, "direct", optimize_level=1)
        np.testing.assert_allclose(
            plain.run(backend="density_matrix").data,
            fused.run(backend="density_matrix").data,
            atol=1e-10,
        )

    @pytest.mark.parametrize("seed", range(2))
    def test_sampling_backend_distribution_matches_statevector(self, seed):
        problem = random_problem(seed + 60, num_qubits=4)
        program = repro.compile(problem, "direct")
        exact_probs = program.run(backend="statevector").probabilities()
        result = program.run(backend="sampling", shots=50_000, rng=seed)
        tv = 0.5 * np.abs(result.empirical_probabilities() - exact_probs).sum()
        assert tv < 3.0 * np.sqrt(16 / 50_000)

    def test_noisy_density_run_degrades_gracefully(self):
        from repro.noise import NoiseModel

        problem = random_problem(13, num_qubits=4)
        clean = repro.compile(problem, "direct")
        noisy = repro.compile(
            problem, "direct", noise_model=NoiseModel.uniform_depolarizing(0.01)
        )
        psi = clean.run(backend="statevector")
        rho = noisy.run(backend="density_matrix")
        assert abs(rho.trace() - 1.0) < 1e-9
        assert rho.purity() < 1.0
        # Strictly degraded, but still better than the maximally-mixed floor.
        assert 1.0 / 16.0 < rho.fidelity(psi) < 1.0 - 1e-6


class TestSamplingAgreesWithStatevector:
    """Noiseless ``sampling`` evolves through the ``kernel`` backend.

    Its prepared outcome distribution must be ``|statevector|²`` (mixed
    through the readout confusion matrix when the model has one) for every
    strategy; a lowerable program never builds its circuit for it, a
    plan-less one samples its whole circuit register, and gate noise still
    goes through the density matrix.
    """

    @staticmethod
    def readout_only():
        from repro.noise import NoiseModel, ReadoutError

        return NoiseModel().set_readout_error(ReadoutError.symmetric(0.03))

    @pytest.mark.parametrize("readout", [False, True], ids=["noiseless", "readout"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("seed", range(3))
    def test_distribution_is_the_statevector_born_rule(self, strategy, seed, readout):
        from repro.compile.backends import SamplingBackend

        small = strategy in ("block_encoding", "mpf")
        problem = random_problem(
            seed + 70,
            num_qubits=3 if small else None,
            num_terms=2 if small else None,
        )
        program = repro.compile(problem, strategy)
        noise = self.readout_only() if readout else None
        psi = random_statevector(problem.num_qubits, np.random.default_rng(seed))
        prepared = SamplingBackend().prepare(program, psi, noise_model=noise)
        expected = program.run(backend="statevector", initial_state=psi).probabilities()
        if readout:
            expected = noise.readout_error.apply_to_probabilities(expected)
        np.testing.assert_allclose(prepared.probabilities, expected, atol=1e-12)
        assert prepared.num_qubits == program.circuit.num_qubits
        assert prepared.metadata == {
            "noisy": False, "readout_error": readout, "strategy": strategy,
        }
        counts = prepared.sample(shots=64, rng=seed).counts
        assert {len(bits) for bits in counts} == {program.circuit.num_qubits}

    @pytest.mark.parametrize("strategy", EVOLUTION_STRATEGIES)
    def test_lowerable_programs_sample_without_a_circuit(self, strategy):
        from repro.compile.backends import SamplingBackend

        program = repro.compile(random_problem(5, num_qubits=4), strategy)
        prepared = SamplingBackend().prepare(program, 3, noise_model=self.readout_only())
        assert program.evolution_plan() is not None
        assert not program.is_built
        assert prepared.num_qubits == 4

    @pytest.mark.parametrize("case", ["block_encoding", "mpf", "trotter_split"])
    def test_planless_programs_sample_their_circuit_register(self, case):
        from repro.compile.backends import SamplingBackend
        from repro.operators.scb_term import SCBTerm

        if case == "trotter_split":
            hamiltonian = repro.Hamiltonian(3).add_term(
                SCBTerm.from_label("ssI", 0.5 + 0.5j)
            )
            problem = repro.SimulationProblem(hamiltonian, 0.3).with_options(
                complex_mode="trotter_split"
            )
            program = repro.compile(problem, "direct")
        else:
            program = repro.compile(random_problem(2, num_qubits=3, num_terms=2), case)
        prepared = SamplingBackend().prepare(program)
        assert program.evolution_plan() is None
        # Only ancillas need the circuit's register: a trotter_split program
        # evolves through its bound Trotter step and never builds its circuit.
        assert program.is_built == (case != "trotter_split")
        assert prepared.num_qubits == program.circuit.num_qubits
        np.testing.assert_allclose(
            prepared.probabilities,
            program.run(backend="statevector").probabilities(),
            atol=1e-12,
        )

    def test_gate_noise_still_takes_the_density_matrix(self, monkeypatch):
        from repro.compile.backends import KernelBackend, SamplingBackend
        from repro.noise import NoiseModel

        def no_kernel(*args, **kwargs):
            raise AssertionError("a gate-noisy run must not use the pure-state plan")

        monkeypatch.setattr(KernelBackend, "run", no_kernel)
        noise = NoiseModel.uniform_depolarizing(0.01)
        program = repro.compile(random_problem(13, num_qubits=3), "direct")
        prepared = SamplingBackend().prepare(program, noise_model=noise)
        rho = program.run(backend="density_matrix", noise_model=noise)
        assert prepared.metadata["noisy"]
        np.testing.assert_allclose(prepared.probabilities, rho.probabilities(), atol=1e-12)


class TestExactOracle:
    """The exact backend is Trotter-free ground truth for evolution programs."""

    @pytest.mark.parametrize("strategy", EVOLUTION_STRATEGIES)
    @pytest.mark.parametrize("seed", range(3))
    def test_commuting_hamiltonians_match_exactly(self, strategy, seed):
        # Diagonal factors commute, so a single Trotter step is already exact
        # and every backend must hit the oracle to full precision.
        problem = random_problem(seed, alphabet=DIAGONAL_ALPHABET)
        program = repro.compile(problem, strategy, optimize_level=1)
        oracle = program.run(backend="exact")
        assert fidelity(oracle, program.run(backend="statevector")) > EXACT_FIDELITY
        assert fidelity(oracle, program.run(backend="sparse")) > EXACT_FIDELITY
        assert fidelity(oracle, program.run(backend="kernel")) > EXACT_FIDELITY

    def test_trotter_error_converges_to_the_oracle(self):
        problem = random_problem(5, num_qubits=4)
        oracle = repro.compile(problem, "direct").run(backend="exact")
        errors = []
        for steps in (1, 4, 16):
            state = repro.compile(problem, "direct", steps=steps, order=2).run(
                backend="statevector"
            )
            errors.append(1 - fidelity(oracle, state))
        assert errors[2] <= errors[0]
        assert errors[2] < 1e-6

    def test_exact_never_builds_a_circuit(self):
        program = repro.compile(random_problem(3), "direct")
        program.run(backend="exact")
        assert not program.is_built

    @pytest.mark.parametrize("strategy", ("block_encoding", "mpf"))
    def test_exact_rejects_non_evolution_programs(self, strategy):
        program = repro.compile(random_problem(2, num_qubits=3, num_terms=2), strategy)
        with pytest.raises(CompileError, match="exact backend"):
            program.run(backend="exact")


class TestRunManyAmortization:
    """A sweep through run_many builds and fuses each program exactly once."""

    def test_initial_state_sweep_reuses_caches(self):
        problem = random_problem(7, num_qubits=4, time=0.2)
        program = repro.compile(problem, "direct", optimize_level=1)
        states = list(range(4))
        swept = run_many([program] * len(states), "sparse", initial_states=states)
        # The fused circuit and the CSR operators were each built once ...
        assert program.execution_circuit is program.execution_circuit
        assert program.sparse_operators() is program.sparse_operators()
        # ... and the swept results match individual runs.
        for state, result in zip(states, swept):
            again = program.run(backend="sparse", initial_state=state)
            assert fidelity(result, again) > EXACT_FIDELITY

    def test_mismatched_sweep_lengths_raise(self):
        program = repro.compile(random_problem(7, num_qubits=3), "direct")
        with pytest.raises(CompileError, match="initial states"):
            run_many([program], "statevector", initial_states=[0, 1])


@pytest.mark.slow
class TestBeyondTheDenseLimit:
    """>10-qubit workloads, gated behind ``--runslow``."""

    def test_sparse_backend_matches_exact_on_12_qubits(self):
        problem = random_problem(
            21, num_qubits=12, num_terms=4, alphabet=DIAGONAL_ALPHABET
        )
        program = repro.compile(problem, "direct", optimize_level=1)
        oracle = program.run(backend="exact")
        assert fidelity(oracle, program.run(backend="sparse")) > EXACT_FIDELITY

    def test_kernel_backend_matches_exact_on_14_qubits(self):
        problem = random_problem(22, num_qubits=14, num_terms=5)
        program = repro.compile(problem, "direct", steps=8, order=2)
        oracle = program.run(backend="exact")
        kernel = program.run(backend="kernel")
        assert program.evolution_plan() is not None
        assert fidelity(oracle, kernel) > 1 - 1e-4  # Trotter error only
