"""Execution backends: what to *do* with a compiled program.

A :class:`Backend` consumes a :class:`~repro.compile.program.CompiledProgram`;
the built-ins cover the ways the seed's examples and benchmarks consumed
circuits, plus the scaling/oracle pair added with the gate-fusion fast path:

========================  ====================================================
``"statevector"``         evolve an initial state through the (fused)
                          execution circuit, each gate by its structure:
                          a gather, a diagonal multiply, a control-slice
                          update, or one dense tensordot
``"kernel"``              matrix-free Trotter evolution through the cached
                          mask plan (:mod:`repro.circuits.pauli_kernels`) —
                          no circuit executed; falls back to ``statevector``
                          when no plan exists
``"sparse"``              same evolution via cached scipy CSR operators —
                          the backend for registers past the dense sweet spot
``"exact"``               ``expm_multiply`` on the assembled Hamiltonian:
                          ground truth with **zero Trotter error**, never
                          builds a circuit (evolution programs only)
``"density_matrix"``      noisy evolution of ``ρ`` through the circuit,
                          applying the channels of
                          ``CompileOptions(noise_model=...)`` after each gate
``"sampling"``            seeded shot-based counts (noisy or noiseless)
                          returning a :class:`~repro.noise.sampling.SamplingResult`;
                          noiseless runs evolve through the mask plan
``"unitary"``             dense unitary of the cached circuit (memoized)
``"resource"``            analytic gate counts via :mod:`repro.core.resource`
                          — no circuit is ever built
========================  ====================================================

``statevector`` and ``sparse`` honour ``CompileOptions.optimize_level`` by
running :attr:`~repro.compile.program.CompiledProgram.execution_circuit`;
``exact`` is the oracle the cross-backend differential tests check every
strategy × backend combination against.

Register your own with ``@BACKENDS.register("name")``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

import numpy as np

from repro.circuits.statevector import Statevector
from repro.compile.registry import Registry
from repro.exceptions import CompileError

if TYPE_CHECKING:  # pragma: no cover
    from repro.compile.program import CompiledProgram
    from repro.compile.strategies import ResourceEstimate

#: The global backend registry.
BACKENDS = Registry("backend")


@runtime_checkable
class Backend(Protocol):
    """What the pipeline requires of an execution backend."""

    name: str

    def run(self, program: "CompiledProgram", **kwargs) -> Any:
        ...


@BACKENDS.register("statevector")
class StatevectorBackend:
    """Evolve a statevector through the compiled circuit.

    ``initial_state`` may be a :class:`Statevector`, a dense vector, or a
    basis-state index (default ``0``).  Block-encoding programs receive the
    state on the *system* register with ancillas prepended in ``|0…0⟩``.
    """

    name = "statevector"

    def run(
        self,
        program: "CompiledProgram",
        initial_state: "Statevector | np.ndarray | int" = 0,
        **kwargs,
    ) -> Statevector:
        if kwargs:
            raise CompileError(
                f"unknown statevector-backend arguments: {', '.join(sorted(kwargs))}"
            )
        circuit = program.execution_circuit
        n = circuit.num_qubits
        state = self._coerce(initial_state, n, program)
        return state.evolve(circuit)

    @staticmethod
    def _coerce(initial_state, num_qubits: int, program: "CompiledProgram") -> Statevector:
        """The one ``initial_state`` check every state-evolving backend shares."""
        if isinstance(initial_state, Statevector):
            state = initial_state
        elif isinstance(initial_state, (int, np.integer)):
            if not 0 <= initial_state < 1 << num_qubits:
                raise CompileError(
                    f"basis-state index {initial_state} is outside [0, 2^{num_qubits}) "
                    f"for a {num_qubits}-qubit program"
                )
            return Statevector(int(initial_state), num_qubits)
        else:
            data = np.asarray(initial_state)
            if data.ndim != 1:
                raise CompileError(
                    f"initial state must be a (dim,) vector, got shape {data.shape}"
                )
            state = Statevector(data)
        if state.num_qubits == num_qubits:
            return state
        # A system-register state for a program that carries ancillas: embed
        # it with the ancillas (most-significant qubits) in |0...0>.
        extra = num_qubits - state.num_qubits
        if extra > 0 and program.kind in ("block_encoding", "combination"):
            padded = np.zeros(1 << num_qubits, dtype=complex)
            padded[: 1 << state.num_qubits] = state.data
            return Statevector(padded)
        raise CompileError(
            f"initial state on {state.num_qubits} qubits does not fit a "
            f"{num_qubits}-qubit program"
        )


@BACKENDS.register("kernel")
class KernelBackend:
    """Matrix-free term-level evolution through the cached mask plan.

    Executes the program's :meth:`~repro.compile.program.CompiledProgram.evolution_plan`
    with the vectorized Pauli-rotation kernels of
    :mod:`repro.circuits.pauli_kernels` — no circuit is built, no gate matrix
    materialized, one O(2^n) pass per Trotter term.  This is the default dense
    engine for evolution-kind programs; when no plan exists (a non-evolution
    strategy such as a block encoding or an MPF combination, a complex
    transition fragment under ``complex_mode="trotter_split"``, a fragment
    with mixed X masks, or an oversized support table) the run falls back to
    the ``statevector`` backend transparently.

    ``initial_state`` additionally accepts a ``(2^n, batch)`` array, in which
    case every column is evolved in one pass and the raw array is returned —
    the path :func:`repro.analysis.trotter_error.trotter_error_state` uses to
    batch its random states.
    """

    name = "kernel"

    def run(
        self,
        program: "CompiledProgram",
        initial_state: "Statevector | np.ndarray | int" = 0,
        **kwargs,
    ) -> "Statevector | np.ndarray":
        if kwargs:
            raise CompileError(
                f"unknown kernel-backend arguments: {', '.join(sorted(kwargs))}"
            )
        plan = program.evolution_plan()
        batched = isinstance(initial_state, np.ndarray) and initial_state.ndim == 2
        if plan is None:
            if batched:
                from repro.circuits.statevector import evolve_statevectors

                return evolve_statevectors(
                    program.execution_circuit, np.asarray(initial_state, dtype=complex)
                )
            return StatevectorBackend().run(program, initial_state)
        if batched:
            return plan.evolve(np.asarray(initial_state, dtype=complex))
        state = StatevectorBackend._coerce(
            initial_state, program.problem.num_qubits, program
        )
        return Statevector(plan.evolve(state.data))


@BACKENDS.register("sparse")
class SparseBackend:
    """Evolve a statevector through cached scipy CSR operators.

    Each gate of the execution circuit is embedded once as a full-space CSR
    matrix (:mod:`repro.circuits.sparse`) and cached on the program, so
    repeated runs — a parameter sweep over initial states — pay only for the
    matvecs.  Controlled and diagonal gates have ≤ 1 nonzero per row, which
    is what pushes Trotter circuits past 20 qubits.
    """

    name = "sparse"

    def run(
        self,
        program: "CompiledProgram",
        initial_state: "Statevector | np.ndarray | int" = 0,
        **kwargs,
    ) -> Statevector:
        if kwargs:
            raise CompileError(
                f"unknown sparse-backend arguments: {', '.join(sorted(kwargs))}"
            )
        from repro.circuits.sparse import apply_circuit_sparse

        circuit = program.execution_circuit
        state = StatevectorBackend._coerce(initial_state, circuit.num_qubits, program)
        vec = apply_circuit_sparse(
            circuit, state.data, operators=program.sparse_operators()
        )
        return Statevector(vec)


@BACKENDS.register("exact")
class ExactBackend:
    """Trotter-free ground truth: ``e^{-i t H}`` via sparse ``expm_multiply``.

    Evolves the initial state under the problem's *Hamiltonian matrix*
    directly, bypassing the compiled circuit entirely — the result carries
    zero Trotter error and is the oracle every strategy × backend combination
    is differential-tested against.  Only meaningful for ``"evolution"``-kind
    programs; block encodings and MPF combinations are not ``e^{-itH}``
    circuits and are rejected.
    """

    name = "exact"

    def run(
        self,
        program: "CompiledProgram",
        initial_state: "Statevector | np.ndarray | int" = 0,
        **kwargs,
    ) -> Statevector:
        if kwargs:
            raise CompileError(
                f"unknown exact-backend arguments: {', '.join(sorted(kwargs))}"
            )
        if program.kind != "evolution":
            raise CompileError(
                f"the exact backend evolves e^(-itH) and cannot run a "
                f"{program.kind!r} program (strategy {program.strategy_name!r})"
            )
        problem = program.problem
        state = StatevectorBackend._coerce(initial_state, problem.num_qubits, program)
        evolved = problem.hamiltonian.evolve_exact(state.data, problem.time)
        return Statevector(evolved)


@BACKENDS.register("density_matrix")
class DensityMatrixBackend:
    """Evolve a density matrix — exact noisy evolution under the noise model.

    The channels of ``program.problem.options.noise_model`` are applied after
    every gate; with no model (or :meth:`~repro.noise.model.NoiseModel.ideal`)
    the run is exact unitary conjugation and matches the ``statevector``
    backend to numerical precision.  ``initial_state`` accepts a
    :class:`~repro.circuits.density_matrix.DensityMatrix`, a
    :class:`Statevector`, a dense vector, or a basis index.

    Gate noise is keyed on gate *names*, so noisy runs evolve the logical
    circuit; only noiseless runs take the fused execution circuit.
    """

    name = "density_matrix"

    def run(
        self,
        program: "CompiledProgram",
        initial_state=0,
        *,
        noise_model=None,
        **kwargs,
    ):
        if kwargs:
            raise CompileError(
                f"unknown density_matrix-backend arguments: {', '.join(sorted(kwargs))}"
            )
        noise = _resolve_noise(program, noise_model)
        noisy = noise is not None and noise.has_gate_noise
        circuit = program.circuit if noisy else program.execution_circuit
        state = self._coerce(initial_state, circuit.num_qubits, program)
        return state.evolve(circuit, noise_model=noise)

    @staticmethod
    def _coerce(initial_state, num_qubits: int, program: "CompiledProgram"):
        from repro.circuits.density_matrix import DensityMatrix

        if isinstance(initial_state, DensityMatrix):
            if initial_state.num_qubits != num_qubits:
                raise CompileError(
                    f"initial density matrix on {initial_state.num_qubits} qubits "
                    f"does not fit a {num_qubits}-qubit program"
                )
            return initial_state
        # The DensityMatrix constructor enforces its 4^n memory guard; pass a
        # pre-built DensityMatrix(..., max_qubits=...) to run wider programs.
        pure = StatevectorBackend._coerce(initial_state, num_qubits, program)
        return DensityMatrix(pure)


class PreparedDistribution:
    """The deterministic half of a sampling run: the outcome distribution.

    Preparing the distribution — evolving the state (through the mask plan
    when the run is noiseless and one exists), applying readout error — is
    the expensive part of a shot-based run, and it is identical for every
    grid point of a ``repeats=``/seed axis.  The runtime's plan-batched
    executors prepare it once per batch and call :meth:`sample` per point;
    :meth:`SamplingBackend.run` goes through the exact same two steps, so a
    batched point is bit-identical to a standalone one by construction.
    """

    __slots__ = ("probabilities", "num_qubits", "metadata")

    def __init__(self, probabilities: np.ndarray, num_qubits: int, metadata: dict):
        self.probabilities = probabilities
        self.num_qubits = num_qubits
        self.metadata = metadata

    def sample(
        self, shots: int = 1024, rng: "np.random.Generator | int | None" = None
    ):
        """Draw one seeded multinomial sample from the prepared distribution."""
        from repro.noise.sampling import SamplingResult, counts_from_probabilities

        if shots <= 0:
            raise CompileError(f"shots must be positive, got {shots}")
        generator = np.random.default_rng(rng)
        counts = counts_from_probabilities(
            self.probabilities, shots, generator, self.num_qubits
        )
        return SamplingResult(
            counts=counts,
            shots=shots,
            num_qubits=self.num_qubits,
            metadata=dict(self.metadata),
        )


@BACKENDS.register("sampling")
class SamplingBackend:
    """Seeded shot-based counts: the execution mode hardware actually offers.

    Evolves the initial state, applies the model's readout error to the
    outcome distribution, and draws ``shots`` samples with a single
    multinomial draw from ``rng`` — reproducible under an integer seed.
    Returns a :class:`~repro.noise.sampling.SamplingResult`.

    A noiseless run (no gate noise, no
    :class:`~repro.circuits.density_matrix.DensityMatrix` initial state)
    evolves through :class:`KernelBackend`: a ``direct``/``pauli`` program
    with a mask plan never builds its circuit, and a program without one
    (block encodings, MPF combinations, ``trotter_split`` complex
    transitions) runs its circuit exactly as the ``statevector`` backend
    would.  Gate noise, or a mixed initial state, takes the density matrix.
    """

    name = "sampling"

    def prepare(
        self,
        program: "CompiledProgram",
        initial_state=0,
        *,
        noise_model=None,
    ) -> PreparedDistribution:
        """Everything up to (but excluding) the seeded draw, computed once."""
        from repro.circuits.density_matrix import DensityMatrix
        from repro.noise.model import NoiseModel

        noise = _resolve_noise(program, noise_model)
        gate_noise = noise is not None and noise.has_gate_noise
        # A mixed initial state needs the density path even without gate noise.
        if gate_noise or isinstance(initial_state, DensityMatrix):
            # Forward the *resolved* model; a bare None would make the inner
            # backend fall back to the compiled option, resurrecting noise an
            # explicit NoiseModel.ideal() override asked to switch off.
            rho = DensityMatrixBackend().run(
                program,
                initial_state,
                noise_model=noise if noise is not None else NoiseModel.ideal(),
            )
            probs = rho.probabilities()
            num_qubits = rho.num_qubits
        else:
            # Coerced first: KernelBackend.run reads a 2-D array as a batch.
            # The plan evolves the system register; a plan-less program falls
            # back to its circuit, whose register may carry ancillas.
            width = (
                program.problem.num_qubits
                if program.evolution_plan() is not None
                else program.execution_circuit.num_qubits
            )
            state = KernelBackend().run(
                program, StatevectorBackend._coerce(initial_state, width, program)
            )
            probs = state.probabilities()
            num_qubits = state.num_qubits
        if noise is not None and noise.readout_error is not None:
            probs = noise.readout_error.apply_to_probabilities(probs)
        return PreparedDistribution(
            probabilities=probs,
            num_qubits=num_qubits,
            metadata={
                "noisy": gate_noise,
                "readout_error": bool(noise is not None and noise.readout_error),
                "strategy": program.strategy_name,
            },
        )

    def run(
        self,
        program: "CompiledProgram",
        initial_state=0,
        *,
        shots: int = 1024,
        rng: "np.random.Generator | int | None" = None,
        noise_model=None,
        **kwargs,
    ):
        if kwargs:
            raise CompileError(
                f"unknown sampling-backend arguments: {', '.join(sorted(kwargs))}"
            )
        prepared = self.prepare(program, initial_state, noise_model=noise_model)
        return prepared.sample(shots=shots, rng=rng)


def _resolve_noise(program: "CompiledProgram", override):
    """The run-time noise model: explicit override, else the compiled option."""
    from repro.noise.model import NoiseModel

    noise = program.problem.options.noise_model if override is None else override
    if noise is not None and not isinstance(noise, NoiseModel):
        raise CompileError(
            f"noise_model must be a NoiseModel, got {type(noise).__name__}"
        )
    if noise is not None and noise.is_ideal:
        return None
    return noise


@BACKENDS.register("unitary")
class UnitaryBackend:
    """Return the dense unitary of the cached circuit (memoized on the program).

    ``max_qubits`` defaults to the problem's ``options.unitary_max_qubits``.
    """

    name = "unitary"

    def run(
        self, program: "CompiledProgram", max_qubits: int | None = None, **kwargs
    ) -> np.ndarray:
        if kwargs:
            raise CompileError(
                f"unknown unitary-backend arguments: {', '.join(sorted(kwargs))}"
            )
        return program.unitary(max_qubits=max_qubits)


@BACKENDS.register("resource")
class ResourceBackend:
    """Analytic resource estimation — counts gates *without* building circuits.

    Delegates to the strategy's :meth:`estimate_resources`, which sums the
    closed-form models of :mod:`repro.core.resource`
    (:func:`~repro.core.resource.direct_term_resources` per gathered term for
    the direct strategy, ``2(w-1)`` CX per Pauli string for the usual one),
    scaled by the product-formula pass count.
    """

    name = "resource"

    def run(self, program: "CompiledProgram", **kwargs) -> "ResourceEstimate":
        if kwargs:
            raise CompileError(
                f"unknown resource-backend arguments: {', '.join(sorted(kwargs))}"
            )
        return program.estimate()


def get_backend(backend: "str | Backend") -> Backend:
    """Resolve a backend name (or pass an instance through)."""
    if isinstance(backend, str):
        return BACKENDS.create(backend)
    if isinstance(backend, Backend):
        return backend
    raise CompileError(f"not a backend: {backend!r}")


def available_backends() -> tuple[str, ...]:
    return BACKENDS.names()
