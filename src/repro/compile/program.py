"""The compiled artifact: circuit cache, memoized unitary, run/resources/compare.

A :class:`CompiledProgram` is what :func:`repro.compile.compile` returns.  It
is lazy — the circuit is built on first access and cached, the dense unitary
is memoized — so cheap queries (analytic resource estimates, metadata) never
pay for circuit construction.  A ``direct``/``pauli`` program at
``optimize_level=0`` runs on the ``statevector`` backend without building its
circuit at all: :meth:`CompiledProgram.bound_step` binds ``dt`` into the
Hamiltonian's cached, pre-lowered Trotter step (:mod:`repro.compile.steps`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.analysis.gate_counts import GateCountReport, gate_count_report
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.transpile import TranspileOptions
from repro.circuits.unitary import circuit_unitary
from repro.exceptions import CompileError
from repro.telemetry import span

if TYPE_CHECKING:  # pragma: no cover
    from repro.compile.plan import EvolutionPlan
    from repro.compile.problem import SimulationProblem
    from repro.compile.steps import BoundStep
    from repro.compile.strategies import ResourceEstimate, Strategy


@dataclass
class CompiledProgram:
    """A (problem, strategy) pair with cached build products.

    Attributes
    ----------
    problem:
        The :class:`~repro.compile.problem.SimulationProblem` that was compiled.
    strategy:
        The resolved :class:`~repro.compile.strategies.Strategy` instance.
    metadata:
        Free-form strategy annotations (e.g. block-encoding scale λ).
    """

    problem: "SimulationProblem"
    strategy: "Strategy"
    metadata: dict = field(default_factory=dict)
    _circuit: QuantumCircuit | None = field(default=None, repr=False)
    _execution_circuit: QuantumCircuit | None = field(default=None, repr=False)
    _evolution_plan: "EvolutionPlan | None" = field(default=None, repr=False)
    _plan_unavailable: bool = field(default=False, repr=False)
    _bound_step: "BoundStep | None" = field(default=None, repr=False)
    _bind_unavailable: bool = field(default=False, repr=False)
    _sparse_operators: tuple | None = field(default=None, repr=False)
    _unitary: np.ndarray | None = field(default=None, repr=False)
    _matrix: np.ndarray | None = field(default=None, repr=False)
    _estimate: "ResourceEstimate | None" = field(default=None, repr=False)
    _reports: dict = field(default_factory=dict, repr=False)
    #: Seconds spent in each lazy build product (build/fuse/plan/sparse) the
    #: first time it was constructed.  Always recorded (a perf_counter pair
    #: per *build*, not per run), so the runtime can attribute compile time
    #: truthfully even though builds happen lazily inside ``run()``.
    _build_timings: dict = field(default_factory=dict, repr=False)

    # ----------------------------------------------------------- build products

    @property
    def strategy_name(self) -> str:
        return self.strategy.name

    @property
    def kind(self) -> str:
        return self.strategy.kind

    def _timed_build(self, phase: str, build):
        start = time.perf_counter()
        with span(f"compile.{phase}", strategy=self.strategy.name):
            product = build()
        self._build_timings[phase] = (
            self._build_timings.get(phase, 0.0) + time.perf_counter() - start
        )
        return product

    @property
    def build_timings(self) -> dict:
        """Seconds per lazy build phase constructed so far (a copy)."""
        return dict(self._build_timings)

    @property
    def build_seconds(self) -> float:
        """Total seconds spent constructing this program's build products."""
        return sum(self._build_timings.values())

    @property
    def circuit(self) -> QuantumCircuit:
        """The built circuit (constructed on first access, then cached)."""
        if self._circuit is None:
            self._circuit = self._timed_build(
                "build", lambda: self.strategy.build(self.problem)
            )
        return self._circuit

    @property
    def is_built(self) -> bool:
        return self._circuit is not None

    @property
    def execution_circuit(self) -> QuantumCircuit:
        """The circuit the execution backends actually run.

        With ``options.optimize_level >= 1`` this is the gate-fused version of
        :attr:`circuit` (built once, then cached — a parameter sweep through
        :func:`~repro.compile.pipeline.run_many` pays for fusion a single
        time).  Gate-count reports and :meth:`unitary` keep reading the
        logical circuit, so enabling fusion never changes reported resources.
        """
        options = self.problem.options
        if options.optimize_level < 1:
            return self.circuit
        if self._execution_circuit is None:
            from repro.circuits.transpile import fuse_gates

            circuit = self.circuit  # build first: keeps the phases separable
            self._execution_circuit = self._timed_build(
                "fuse",
                lambda: fuse_gates(
                    circuit, max_fused_qubits=options.fusion_max_qubits
                ),
            )
        return self._execution_circuit

    def bound_step(self) -> "BoundStep | None":
        """One Trotter step's structured ops with ``dt`` bound, or ``None``.

        Built once per program (like :attr:`execution_circuit`) by binding
        the problem's time slice into the Hamiltonian's cached step
        (:func:`~repro.compile.steps.bind_step`); the ``statevector`` backend
        replays it ``steps`` times.  The ``bind`` build phase covers the
        cache lookup, a first build and lowering, and the binding.  ``None``
        — run the execution circuit — for strategies other than the built-in
        ``direct``/``pauli``, for fused programs (``optimize_level >= 1``)
        and for a step too large for the cache.
        """
        if self._bound_step is None and not self._bind_unavailable:
            from repro.compile.steps import bind_step
            from repro.compile.strategies import DirectStrategy, PauliStrategy

            builtin = type(self.strategy)
            if self.problem.options.optimize_level == 0 and builtin in (
                DirectStrategy,
                PauliStrategy,
            ):
                self._bound_step = self._timed_build(
                    "bind", lambda: bind_step(self.problem, builtin.name)
                )
            self._bind_unavailable = self._bound_step is None
        return self._bound_step

    def evolution_plan(self) -> "EvolutionPlan | None":
        """Cached mask-rotation plan of the Trotter schedule, or ``None``.

        Built once per program (like :attr:`execution_circuit`) and reused
        across Trotter steps and ``run_many`` initial-state sweeps.  The
        ``plan`` build phase covers lowering *and* baking the executor tables,
        so a later ``run`` only replays them.  ``None`` when the (problem,
        strategy) pair has no matrix-free lowering — a non-evolution strategy
        (block encodings, MPF combinations), a complex transition fragment
        under ``complex_mode="trotter_split"``, a fragment whose strings have
        mixed X masks, or a support table too large even after factoring —
        in which case the ``kernel`` backend falls back to the circuit path.
        """
        if self._plan_unavailable:
            return None
        if self._evolution_plan is None:
            from repro.compile.plan import PlanLoweringError, lower_problem

            try:
                self._evolution_plan = self._timed_build(
                    "plan",
                    lambda: lower_problem(self.problem, self.strategy_name),
                )
            except PlanLoweringError:
                self._plan_unavailable = True
                return None
        return self._evolution_plan

    def sparse_operators(self) -> tuple:
        """Cached full-space CSR operators of the execution circuit.

        The ``sparse`` backend reuses these across repeated runs (different
        initial states, expectation-value sweeps) so the embedding cost is
        paid once per program.
        """
        if self._sparse_operators is None:
            from repro.circuits.sparse import circuit_sparse_operators

            circuit = self.execution_circuit
            self._sparse_operators = self._timed_build(
                "sparse", lambda: circuit_sparse_operators(circuit)
            )
        return self._sparse_operators

    def unitary(self, max_qubits: int | None = None) -> np.ndarray:
        """Memoized dense unitary of the cached circuit.

        ``max_qubits`` defaults to the problem's
        ``options.unitary_max_qubits`` and is enforced on every call, cached
        or not, so a stricter limit still guards against handing out an
        oversized matrix.
        """
        if max_qubits is None:
            max_qubits = self.problem.options.unitary_max_qubits
        if self._unitary is None:
            self._unitary = circuit_unitary(self.circuit, max_qubits=max_qubits)
        elif self.circuit.num_qubits > max_qubits:
            from repro.exceptions import SimulationError

            raise SimulationError(
                f"refusing to return a cached dense unitary on "
                f"{self.circuit.num_qubits} qubits (limit {max_qubits})"
            )
        return self._unitary

    def matrix(self) -> np.ndarray:
        """The operator the program effectively applies to the *system* register.

        Equal to :meth:`unitary` for evolution programs; the rescaled encoded
        block for block encodings; the classical weighted sum for MPF
        combinations.  Memoized, like the unitary.
        """
        if self.kind == "evolution":
            return self.unitary()
        if self._matrix is not None:
            return self._matrix
        if self.kind == "block_encoding":
            scale = self.metadata.get("scale")
            if scale is None:
                encode = getattr(self.strategy, "encode", None)
                if encode is None:
                    raise CompileError(
                        f"strategy {self.strategy_name!r} declares kind "
                        "'block_encoding' but exposes no encode()"
                    )
                encoding = encode(self.problem)
                self.metadata.update(
                    scale=encoding.scale, num_ancillas=encoding.num_ancillas
                )
                if self._circuit is None:
                    self._circuit = encoding.circuit
                scale = encoding.scale
            dim_sys = 1 << self.problem.num_qubits
            self._matrix = scale * self.unitary()[:dim_sys, :dim_sys]
        elif self.kind == "combination":
            self._matrix = self.strategy.decomposition(self.problem).matrix()
        else:
            raise CompileError(f"unknown program kind {self.kind!r}")
        return self._matrix

    # ------------------------------------------------------------------ running

    def run(self, backend: str = "statevector", **kwargs) -> Any:
        """Execute on a registered backend (``"statevector"``, ``"unitary"``,
        ``"resource"``, or any instance satisfying the Backend protocol)."""
        from repro.compile.backends import get_backend

        return get_backend(backend).run(self, **kwargs)

    # ---------------------------------------------------------------- resources

    def estimate(self) -> "ResourceEstimate":
        """Analytic gate-count prediction — never builds a circuit."""
        if self._estimate is None:
            self._estimate = self.strategy.estimate_resources(self.problem)
        return self._estimate

    def resources(
        self, *, transpiled: bool = True, transpile_options: TranspileOptions | None = None
    ) -> GateCountReport:
        """Measured gate counts of the cached circuit (memoized per setting)."""
        options = transpile_options or TranspileOptions(
            mcx_mode=self.problem.options.mcx_mode
        )
        key = (transpiled, options.mcx_mode, options.expand_two_qubit, options.keep_cp)
        if key not in self._reports:
            self._reports[key] = gate_count_report(
                self.circuit, transpiled=transpiled, transpile_options=options
            )
        return self._reports[key]

    # --------------------------------------------------------------- comparison

    def compare(self, other: "CompiledProgram", *, unitary_limit: int = 10
                ) -> "ProgramComparison":
        """Side-by-side gate counts and (when feasible) operator distance."""
        report_a = self.resources()
        report_b = other.resources()
        distance = float("nan")
        if (
            self.problem.num_qubits == other.problem.num_qubits
            and self.kind == other.kind == "evolution"
            and self.problem.num_qubits <= unitary_limit
        ):
            from repro.utils.linalg import spectral_norm_diff

            distance = spectral_norm_diff(self.matrix(), other.matrix())
        return ProgramComparison(
            left=self.strategy_name,
            right=other.strategy_name,
            left_report=report_a,
            right_report=report_b,
            two_qubit_gap=report_a.two_qubit_gates - report_b.two_qubit_gates,
            rotation_gap=report_a.rotation_gates - report_b.rotation_gates,
            operator_distance=distance,
        )

    def __repr__(self) -> str:
        built = "built" if self.is_built else "lazy"
        return (
            f"CompiledProgram({self.strategy_name!r}, "
            f"{self.problem.num_terms} terms on {self.problem.num_qubits} qubits, {built})"
        )


@dataclass(frozen=True)
class ProgramComparison:
    """Outcome of :meth:`CompiledProgram.compare`."""

    left: str
    right: str
    left_report: GateCountReport
    right_report: GateCountReport
    two_qubit_gap: int
    rotation_gap: int
    operator_distance: float

    def summary(self) -> str:
        lines = [
            f"{self.left} vs {self.right}:",
            f"  {self.left:<16} {self.left_report.summary()}",
            f"  {self.right:<16} {self.right_report.summary()}",
            f"  two-qubit gap {self.two_qubit_gap:+d}, rotation gap {self.rotation_gap:+d}",
        ]
        if self.operator_distance == self.operator_distance:  # not NaN
            lines.append(f"  operator distance {self.operator_distance:.3e}")
        return "\n".join(lines)
