"""repro — Direct Hamiltonian simulation and gate-efficient block-encoding.

Reproduction of "Gate Efficient Composition of Hamiltonian Simulation and
Block-Encoding with its Application on HUBO, Chemistry and Finite Difference
Method" (Ollive & Louise, IPPS 2025).

The primary public API is the :mod:`repro.compile` pipeline::

    problem = repro.SimulationProblem.from_labels(4, {"nsdI": 0.8}, time=0.2)
    program = repro.compile(problem, strategy="direct")
    state   = program.run(backend="statevector")

The full machinery lives in the subpackages:

* :mod:`repro.compile` — problem → program pipeline (strategies, backends);
* :mod:`repro.circuits` — quantum-circuit substrate (gates, simulators,
  decompositions, transpiler);
* :mod:`repro.operators` — Single Component Basis terms, Pauli operators,
  conversions and matrix decompositions;
* :mod:`repro.core` — direct Hamiltonian simulation, Trotter formulas,
  block encodings, LCU machinery, measurement and resource models;
* :mod:`repro.noise` — Kraus channels, noise models, shot sampling and the
  budgeted measurement estimator;
* :mod:`repro.runtime` — parallel sweep execution with content-addressed
  result caching (``Session``, ``SweepSpec``, the ``python -m repro.runtime``
  CLI);
* :mod:`repro.service` — the sweep daemon: a Unix-socket job queue with
  leased worker chunks and a ``ServiceClient`` executor (``python -m
  repro.service`` CLI);
* :mod:`repro.applications` — HUBO, chemistry and finite-difference
  applications;
* :mod:`repro.analysis` — gate-count and Trotter-error reports.

The raw pre-pipeline builders (``evolve_term`` and friends) live in
:mod:`repro.core`; their deprecated top-level aliases have been removed.
"""

from __future__ import annotations

import logging as _logging

# Library convention: repro modules log through the "repro.*" hierarchy and
# never configure handlers; entry points opt in via
# repro.telemetry.configure_logging (REPRO_LOG governs the level).
_logging.getLogger("repro").addHandler(_logging.NullHandler())

from repro import compile as compile  # noqa: F401  (callable subpackage)
from repro.circuits import QuantumCircuit, Statevector, circuit_unitary, transpile
from repro.compile import (
    CompiledProgram,
    CompileOptions,
    EvolutionOptions,
    SimulationProblem,
    available_backends,
    available_strategies,
    compare_all,
    compile_many,
    compile_problem,
    run_many,
)
from repro.circuits.density_matrix import DensityMatrix
from repro.exceptions import CompileError, OptionsError, ReproError
from repro.noise import (
    Estimator,
    KrausChannel,
    NoiseModel,
    ReadoutError,
    SamplingResult,
    compare_measurement_schemes,
)
from repro.operators import (
    Hamiltonian,
    HermitianFragment,
    PauliOperator,
    PauliString,
    SCBOperator,
    SCBTerm,
    scb_decompose_matrix,
)
from repro.runtime import (
    ResultCache,
    ResultSet,
    RunRecord,
    RunSpec,
    Session,
    SweepSpec,
    get_default_session,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # pipeline
    "compile",
    "compile_problem",
    "compile_many",
    "compare_all",
    "run_many",
    "SimulationProblem",
    "CompiledProgram",
    "CompileOptions",
    "EvolutionOptions",
    "available_backends",
    "available_strategies",
    # substrate
    "QuantumCircuit",
    "Statevector",
    "DensityMatrix",
    "circuit_unitary",
    "transpile",
    # runtime
    "Session",
    "RunSpec",
    "SweepSpec",
    "RunRecord",
    "ResultSet",
    "ResultCache",
    "get_default_session",
    # noise & sampling
    "NoiseModel",
    "KrausChannel",
    "ReadoutError",
    "SamplingResult",
    "Estimator",
    "compare_measurement_schemes",
    # operators
    "Hamiltonian",
    "HermitianFragment",
    "PauliOperator",
    "PauliString",
    "SCBOperator",
    "SCBTerm",
    "scb_decompose_matrix",
    # errors
    "ReproError",
    "CompileError",
    "OptionsError",
]
