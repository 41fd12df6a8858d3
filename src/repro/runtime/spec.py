"""Declarative, serializable run and sweep descriptions.

A :class:`RunSpec` is one executable unit — (problem, strategy, backend,
run kwargs) — and a :class:`SweepSpec` is a grid of them.  Both serialize to
canonical JSON and carry a stable :meth:`content_key`, which is what the
result cache addresses and what makes a sweep reproducible across machines,
processes and worker counts.

Canonical semantics
-------------------
``content_key()`` identifies the *canonical* form of the spec: Hamiltonian
terms in sorted order, the cosmetic ``label``/``name`` dropped.  Keys are
Merkle keys: a Hamiltonian hashes its sorted terms once per version into a
64-hex digest, the problem key hashes that digest with the time, steps,
order and options, and the run and sweep keys hash the problem key with
their own fields.  Once a process has seen a Hamiltonian
(:meth:`~repro.operators.hamiltonian.Hamiltonian.from_dict` parses each
distinct term payload once per process), a grid point's key costs O(1) in
its number of terms.

:func:`~repro.runtime.executor.execute_spec` compiles the canonical form of
any payload it is given, and the :class:`~repro.runtime.session.Session`
sends it canonical payloads to begin with (``to_dict(canonical=True)``), so
two specs with equal content keys produce bit-identical results — a cache
hit can never disagree with a recomputation.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from repro.compile.options import CompileOptions
from repro.compile.problem import SimulationProblem
from repro.exceptions import SpecError
from repro.utils.serialization import (
    SPEC_VERSION,
    SerializationError,
    canonical_json,
    content_hash,
)

#: Backends whose runs consume an ``rng`` seed — the ones a sweep-level root
#: seed is spawned into (see :meth:`SweepSpec.expand`).
SEEDED_BACKENDS = ("sampling",)


def _validate_run_kwargs(run_kwargs: Mapping) -> dict:
    """Run kwargs must be canonically JSON-able (they enter the content key)."""
    kwargs = dict(run_kwargs)
    try:
        canonical_json(kwargs)
    except SerializationError as exc:
        raise SpecError(
            f"run_kwargs must be JSON-serializable (ints, floats, strings, "
            f"lists, dicts): {exc}"
        ) from exc
    return kwargs


def _spawn_seed(root: int, index: int) -> int:
    """Deterministic per-task seed: independent of worker count and chunking.

    Spawned through :class:`numpy.random.SeedSequence` with the task index as
    the spawn key, so task *i* receives the same stream whether the sweep runs
    serially or across any number of processes.
    """
    state = np.random.SeedSequence(root, spawn_key=(index,)).generate_state(2)
    return int(state[0]) << 32 | int(state[1])


@dataclass(frozen=True)
class RunSpec:
    """One executable unit: compile ``problem`` with ``strategy``, run on ``backend``.

    Attributes
    ----------
    problem:
        The :class:`~repro.compile.problem.SimulationProblem` to compile.
    strategy:
        Compile strategy name (resolved lazily — a spec can describe a
        strategy registered only in the executing process).
    backend:
        Execution backend name.
    run_kwargs:
        Keyword arguments forwarded to ``program.run`` (``shots``, ``rng``,
        ``initial_state`` as a basis index, …).  Must be JSON-serializable:
        specs are declarative and travel across process boundaries and cache
        versions.
    label:
        Cosmetic tag carried into result records — excluded from the content
        key.
    """

    problem: SimulationProblem
    strategy: str = "direct"
    backend: str = "statevector"
    run_kwargs: dict = field(default_factory=dict)
    label: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.problem, SimulationProblem):
            raise SpecError(
                f"problem must be a SimulationProblem, got {type(self.problem).__name__}"
            )
        for name in ("strategy", "backend"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise SpecError(f"{name} must be a non-empty string, got {value!r}")
        object.__setattr__(self, "run_kwargs", _validate_run_kwargs(self.run_kwargs))

    # ----------------------------------------------------------- serialization

    def to_dict(self, *, canonical: bool = False) -> dict:
        """JSON-able form; ``canonical=True`` is the executed payload."""
        payload = self._payload(self.problem.to_dict(canonical=canonical))
        if not canonical:
            payload["label"] = self.label
        return payload

    def _payload(self, problem) -> dict:
        return {
            "spec": "run",
            "version": SPEC_VERSION,
            "problem": problem,
            "strategy": self.strategy,
            "backend": self.backend,
            "run_kwargs": dict(self.run_kwargs),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunSpec":
        """Inverse of :meth:`to_dict`."""
        return cls(
            problem=SimulationProblem.from_dict(payload["problem"]),
            strategy=payload.get("strategy", "direct"),
            backend=payload.get("backend", "statevector"),
            run_kwargs=payload.get("run_kwargs", {}),
            label=payload.get("label"),
        )

    def content_key(self) -> str:
        """Stable content hash of the canonical payload.

        A Merkle key over ``{spec, version, problem, strategy, backend,
        run_kwargs}`` with ``problem`` as its
        :meth:`~repro.compile.problem.SimulationProblem.content_key`: equal
        exactly when the canonical payloads are, O(1) in the number of terms.
        """
        return content_hash(self._payload(self.problem.content_key()), tag="runspec")

    def describe(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        extras = ", ".join(f"{k}={v!r}" for k, v in sorted(self.run_kwargs.items()))
        return (
            f"RunSpec{tag}: {self.strategy} → {self.backend} on "
            f"{self.problem.num_qubits} qubits (steps={self.problem.steps}, "
            f"t={self.problem.time:g}{', ' + extras if extras else ''})"
        )


@dataclass(frozen=True)
class SweepSpec:
    """A grid of runs over one base problem.

    Every axis left ``None`` collapses to the base problem's value.  The grid
    is the Cartesian product ``strategies × steps × times × orders ×
    options_grid`` expanded in deterministic order, so point *i* is the same
    run on every machine and under every worker count.

    Attributes
    ----------
    problem:
        The base :class:`~repro.compile.problem.SimulationProblem`.
    strategies:
        Compile strategies to sweep (default: just ``"direct"``).
    backend:
        One execution backend shared by every point.
    steps / times / orders:
        Optional product-formula axes.
    options_grid:
        Optional sequence of option-override dicts (each applied on top of
        the base problem's options via
        :meth:`~repro.compile.problem.SimulationProblem.with_options`).
    run_kwargs:
        Shared ``program.run`` keyword arguments.
    repeats:
        Statistical axis: every grid point is replicated this many times.
        Together with ``seed`` each replica draws an independent stream —
        the shape of a shot-noise study (``repeats=8`` ≙ eight seeded
        estimates per point).  Pair it with ``seed``: unseeded replicas are
        content-identical and deduplicate to a single execution.
    seed:
        Root seed for sampling sweeps: each grid point receives its own
        spawned sub-seed as ``run_kwargs["rng"]`` (backends listed in
        :data:`SEEDED_BACKENDS` only), making shot-based sweeps
        deterministic regardless of worker count.
    name:
        Cosmetic sweep tag — excluded from the content key.
    """

    problem: SimulationProblem
    strategies: tuple[str, ...] = ("direct",)
    backend: str = "statevector"
    steps: tuple[int, ...] | None = None
    times: tuple[float, ...] | None = None
    orders: tuple[int, ...] | None = None
    options_grid: tuple[dict, ...] | None = None
    run_kwargs: dict = field(default_factory=dict)
    repeats: int = 1
    seed: int | None = None
    name: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.problem, SimulationProblem):
            raise SpecError(
                f"problem must be a SimulationProblem, got {type(self.problem).__name__}"
            )
        strategies = (
            (self.strategies,)
            if isinstance(self.strategies, str)
            else tuple(self.strategies)
        )
        if not strategies:
            raise SpecError("a sweep needs at least one strategy")
        object.__setattr__(self, "strategies", strategies)
        for axis, cast in (("steps", int), ("times", float), ("orders", int)):
            values = getattr(self, axis)
            if values is None:
                continue
            if isinstance(values, (int, float)):
                values = (values,)
            coerced = tuple(cast(v) for v in values)
            if not coerced:
                raise SpecError(f"axis {axis!r} must not be empty (use None)")
            object.__setattr__(self, axis, coerced)
        if self.options_grid is not None:
            grid = tuple(dict(entry) for entry in self.options_grid)
            if not grid:
                raise SpecError("options_grid must not be empty (use None)")
            # Validate each override now, not at expansion time in a worker.
            for entry in grid:
                CompileOptions.from_any(self.problem.options, **entry)
            object.__setattr__(self, "options_grid", grid)
        if self.seed is not None and not isinstance(self.seed, (int, np.integer)):
            raise SpecError(f"seed must be an integer or None, got {self.seed!r}")
        if not isinstance(self.repeats, (int, np.integer)) or self.repeats < 1:
            raise SpecError(f"repeats must be a positive integer, got {self.repeats!r}")
        object.__setattr__(self, "repeats", int(self.repeats))
        object.__setattr__(self, "run_kwargs", _validate_run_kwargs(self.run_kwargs))

    # ----------------------------------------------------------------- queries

    def axes(self) -> dict[str, tuple]:
        """The non-trivial grid axes, in expansion order."""
        axes: dict[str, tuple] = {"strategy": self.strategies}
        for axis, values in (
            ("steps", self.steps),
            ("time", self.times),
            ("order", self.orders),
        ):
            if values is not None:
                axes[axis] = values
        if self.options_grid is not None:
            axes["options"] = tuple(range(len(self.options_grid)))
        if self.repeats > 1:
            axes["repeat"] = tuple(range(self.repeats))
        return axes

    @property
    def num_points(self) -> int:
        total = 1
        for values in self.axes().values():
            total *= len(values)
        return total

    def expand(self) -> list[tuple[dict, "RunSpec"]]:
        """The full grid as ``(coords, RunSpec)`` pairs in deterministic order."""
        steps_axis: Sequence = self.steps or (self.problem.steps,)
        times_axis: Sequence = self.times or (self.problem.time,)
        orders_axis: Sequence = self.orders or (self.problem.order,)
        options_axis: Sequence = (
            (None,) if self.options_grid is None else tuple(range(len(self.options_grid)))
        )
        points: list[tuple[dict, RunSpec]] = []
        grid = itertools.product(
            self.strategies,
            steps_axis,
            times_axis,
            orders_axis,
            options_axis,
            range(self.repeats),
        )
        for index, (strategy, steps, time, order, opt_index, repeat) in enumerate(grid):
            problem = replace(
                self.problem, steps=int(steps), time=float(time), order=int(order)
            )
            if opt_index is not None:
                problem = problem.with_options(**self.options_grid[opt_index])
            run_kwargs = dict(self.run_kwargs)
            if (
                self.seed is not None
                and self.backend in SEEDED_BACKENDS
                and "rng" not in run_kwargs
            ):
                run_kwargs["rng"] = _spawn_seed(int(self.seed), index)
            coords = {
                "strategy": strategy,
                "steps": int(steps),
                "time": float(time),
                "order": int(order),
            }
            if opt_index is not None:
                coords["options"] = opt_index
            if self.repeats > 1:
                coords["repeat"] = repeat
            label = f"{self.name or self.problem.name or 'sweep'}[{index}]"
            points.append(
                (
                    coords,
                    RunSpec(
                        problem=problem,
                        strategy=strategy,
                        backend=self.backend,
                        run_kwargs=run_kwargs,
                        label=label,
                    ),
                )
            )
        return points

    # ----------------------------------------------------------- serialization

    def to_dict(self, *, canonical: bool = False) -> dict:
        """JSON-able form; ``canonical=True`` drops the cosmetic ``name``."""
        payload = self._payload(self.problem.to_dict(canonical=canonical))
        if not canonical:
            payload["name"] = self.name
        return payload

    def _payload(self, problem) -> dict:
        return {
            "spec": "sweep",
            "version": SPEC_VERSION,
            "problem": problem,
            "strategies": list(self.strategies),
            "backend": self.backend,
            "steps": None if self.steps is None else list(self.steps),
            "times": None if self.times is None else list(self.times),
            "orders": None if self.orders is None else list(self.orders),
            "options_grid": (
                None
                if self.options_grid is None
                else [dict(entry) for entry in self.options_grid]
            ),
            "run_kwargs": dict(self.run_kwargs),
            "repeats": self.repeats,
            "seed": None if self.seed is None else int(self.seed),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepSpec":
        """Inverse of :meth:`to_dict`."""
        def _tuple_or_none(value):
            return None if value is None else tuple(value)

        return cls(
            problem=SimulationProblem.from_dict(payload["problem"]),
            strategies=tuple(payload.get("strategies", ("direct",))),
            backend=payload.get("backend", "statevector"),
            steps=_tuple_or_none(payload.get("steps")),
            times=_tuple_or_none(payload.get("times")),
            orders=_tuple_or_none(payload.get("orders")),
            options_grid=_tuple_or_none(payload.get("options_grid")),
            run_kwargs=payload.get("run_kwargs", {}),
            repeats=payload.get("repeats", 1),
            seed=payload.get("seed"),
            name=payload.get("name"),
        )

    def content_key(self) -> str:
        """Stable content hash of the canonical payload.

        Invariant under Hamiltonian term reordering and the cosmetic ``name``
        (the per-point :meth:`RunSpec.content_key` is what the cache
        addresses; the sweep key identifies the grid as a whole).  Like the
        run key it hashes the problem's content key, not its terms.
        """
        return content_hash(self._payload(self.problem.content_key()), tag="sweepspec")

    def describe(self) -> str:
        axes = ", ".join(
            f"{name}×{len(values)}" for name, values in self.axes().items()
        )
        return (
            f"SweepSpec{' ' + repr(self.name) if self.name else ''}: "
            f"{self.num_points} points ({axes}) → {self.backend}"
        )
