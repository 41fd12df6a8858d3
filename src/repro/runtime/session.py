"""The session facade: cache + executor composed behind three verbs.

A :class:`Session` is the runtime engine the rest of the library talks to::

    session = Session(executor=4)                  # 4-worker process pool
    record  = session.run(problem, "direct", backend="statevector")
    results = session.sweep(problem, strategies=("direct", "pauli"),
                            steps=(1, 2, 4, 8))
    results = session.map_problems(problems, strategy="direct")

Every verb goes through the same path: build :class:`RunSpec` grid points,
look each content key up in the :class:`~repro.runtime.cache.ResultCache`,
fan the misses out through the executor, store what came back, and return
:class:`~repro.runtime.results.RunRecord` objects in grid order.  Repeat any
study with unchanged inputs and every point is a cache hit; mutate a
Hamiltonian in place and its bumped version changes the content key, so the
cache can never serve stale physics.

Sessions also memoize *compiled programs* in memory (:meth:`Session.compile`),
which is what :func:`repro.compile.compare_all` and the analysis/application
drivers plug into, and offer :meth:`Session.call` — content-addressed
memoization for arbitrary study-level computations (Trotter-error points,
measurement studies, QAOA runs).
"""

from __future__ import annotations

import logging
import sys
import time
from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING, Any

from repro.exceptions import SpecError
from repro.telemetry import metrics, span
from repro.utils.serialization import SerializationError, content_hash

from repro.runtime.cache import MISS, ResultCache
from repro.runtime.executor import Executor, resolve_executor

# execute_spec is unused here but must stay importable under this name, like
# decode_result: perfbench/tracing.py patches both via inspect.getattr_static.
from repro.runtime.executor import execute_spec  # noqa: F401
from repro.runtime.results import RunRecord, ResultSet, decode_result
from repro.runtime.spec import RunSpec, SweepSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.compile.problem import SimulationProblem
    from repro.compile.program import CompiledProgram

logger = logging.getLogger("repro.runtime.session")


def _print_progress(done: int, total: int) -> None:
    """Default progress reporter: a single self-overwriting stderr line."""
    end = "\n" if done == total else "\r"
    print(f"  [{done}/{total}] runs complete", end=end, file=sys.stderr, flush=True)


class Session:
    """Compose a result cache and an executor into one execution engine.

    Parameters
    ----------
    cache:
        ``None`` (default) uses the standard on-disk cache
        (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``); ``False`` disables
        caching; a path puts the cache there; a
        :class:`~repro.runtime.cache.ResultCache` is used as given.
    executor:
        ``None`` (default) runs serially; an int ``n`` fans out over an
        ``n``-worker process pool; any object with a conforming
        ``map_specs`` is used as given.
    progress:
        ``True`` prints a progress line to stderr; a callable receives
        ``(done, total)`` as results land; ``None``/``False`` is silent.
    """

    def __init__(
        self,
        cache: "ResultCache | str | bool | None" = None,
        executor: "Executor | int | None" = None,
        *,
        progress: "Callable[[int, int], None] | bool | None" = None,
    ):
        if cache is False:
            self.cache: ResultCache | None = None
        elif cache is None or cache is True:
            self.cache = ResultCache()
        elif isinstance(cache, ResultCache):
            self.cache = cache
        elif isinstance(cache, (str, bytes)) or hasattr(cache, "__fspath__"):
            self.cache = ResultCache(cache)
        else:
            raise SpecError(f"cannot interpret {cache!r} as a result cache")
        self.executor = resolve_executor(executor)
        if progress is True:
            self._progress: Callable[[int, int], None] | None = _print_progress
        elif progress is False:
            self._progress = None
        else:
            self._progress = progress

    # ------------------------------------------------------------------- verbs

    def run(
        self,
        problem: "SimulationProblem | RunSpec",
        strategy: str | None = None,
        backend: str | None = None,
        *,
        label: str | None = None,
        **run_kwargs,
    ) -> RunRecord:
        """Execute one run (cache-first, in-process) and return its record.

        Pass a problem plus run parameters, or a ready :class:`RunSpec` —
        but not both: overrides next to a spec raise
        :class:`~repro.exceptions.SpecError` instead of being dropped.
        """
        if isinstance(problem, RunSpec):
            if strategy is not None or backend is not None or label is not None or run_kwargs:
                raise SpecError(
                    "pass run parameters either in the RunSpec or as "
                    "keywords, not both"
                )
            spec = problem
        else:
            spec = RunSpec(
                problem=problem,
                strategy=strategy or "direct",
                backend=backend or "statevector",
                run_kwargs=run_kwargs,
                label=label,
            )
        return self._execute([({}, spec)])[0]

    def sweep(
        self,
        problem: "SimulationProblem | SweepSpec",
        **axes,
    ) -> ResultSet:
        """Run a :class:`SweepSpec` grid (cache-first, executor fan-out).

        Pass a ready :class:`SweepSpec`, or a base problem plus the spec's
        keyword axes (``strategies=``, ``steps=``, ``times=``, ``orders=``,
        ``options_grid=``, ``backend=``, ``run_kwargs=``, ``seed=``,
        ``name=``).
        """
        if isinstance(problem, SweepSpec):
            if axes:
                raise SpecError(
                    "pass axes either in the SweepSpec or as keywords, not both"
                )
            spec = problem
        else:
            spec = SweepSpec(problem=problem, **axes)
        records = self._execute(spec.expand())
        return ResultSet(records, sweep_key=spec.content_key())

    def map_problems(
        self,
        problems: "Iterable[SimulationProblem]",
        strategy: str = "direct",
        backend: str = "statevector",
        **run_kwargs,
    ) -> ResultSet:
        """Run many problems through one (strategy, backend) pair."""
        points = [
            (
                {"index": index},
                RunSpec(
                    problem=problem,
                    strategy=strategy,
                    backend=backend,
                    run_kwargs=run_kwargs,
                    label=problem.name or f"problem[{index}]",
                ),
            )
            for index, problem in enumerate(problems)
        ]
        return ResultSet(self._execute(points))

    # ----------------------------------------------------------- shared engine

    def _execute(self, points: "list[tuple[dict, RunSpec]]") -> list[RunRecord]:
        """Cache-first, deduplicated, order-preserving execution of grid points."""
        with span(
            "session.execute",
            points=len(points),
            executor=getattr(self.executor, "name", type(self.executor).__name__),
        ):
            return self._execute_inner(points)

    def _execute_inner(self, points: "list[tuple[dict, RunSpec]]") -> list[RunRecord]:
        keys = [spec.content_key() for _, spec in points]
        records: list[RunRecord | None] = [None] * len(points)
        pending: dict[str, list[int]] = {}
        for index, ((coords, spec), key) in enumerate(zip(points, keys)):
            hit = MISS if self.cache is None else self.cache.get(key, MISS)
            if hit is not MISS:
                records[index] = RunRecord(
                    spec=spec, key=key, coords=dict(coords), value=hit, cached=True
                )
            else:
                # Identical grid points (equal content keys) execute once.
                pending.setdefault(key, []).append(index)
        if pending:
            order = list(pending)
            payloads = [
                points[pending[key][0]][1].to_dict(canonical=True) for key in order
            ]
            outcomes = self.executor.map_specs(payloads, progress=self._progress)
            for key, outcome in zip(order, outcomes):
                value = error = None
                if outcome["ok"]:
                    value = decode_result(outcome["result"], outcome["arrays"])
                    if self.cache is not None:
                        first = points[pending[key][0]][1]
                        # The cache degrades internally on OSError; this
                        # guard makes the stronger promise that *no* cache
                        # failure can lose an already-computed result.
                        try:
                            self.cache.put_encoded(
                                key,
                                outcome["result"],
                                outcome["arrays"],
                                label=first.label,
                            )
                        except Exception as exc:  # noqa: BLE001
                            logger.warning(
                                "cache store failed for %s (%s: %s); "
                                "keeping the computed result uncached",
                                key[:12], type(exc).__name__, exc,
                            )
                            metrics.incr("resilience.fallbacks")
                else:
                    error = outcome["error"]
                for index in pending[key]:
                    coords, spec = points[index]
                    records[index] = RunRecord(
                        spec=spec,
                        key=key,
                        coords=dict(coords),
                        value=value,
                        error=error,
                        wall_time=outcome["wall_time"],
                        cached=False,
                        timings=dict(outcome.get("timings") or {}),
                    )
        return records  # type: ignore[return-value]

    # --------------------------------------------------- program memoization

    def compile(
        self, problem: "SimulationProblem", strategy: str = "direct"
    ) -> "CompiledProgram":
        """Compile with an in-memory memo keyed on problem content.

        Repeated compilations of content-equal problems return the *same*
        :class:`~repro.compile.program.CompiledProgram`, so its cached build
        products — circuit, fused execution circuit, mask plan, CSR
        operators — are shared across studies.  A mutated Hamiltonian bumps
        its version, changes the content key and misses the memo.

        Like :meth:`run`/:meth:`sweep`, the *canonical* form of the problem
        is what gets compiled (terms in sorted order), so content-equal
        problems yield bit-identical programs no matter which ordering was
        seen first — a memoized result can never depend on call history.

        The memo is the same per-process store the executor's worker path
        uses (:func:`repro.runtime.executor._memoized_program`), so a study
        that compiles through the session and then sweeps the same problem
        serially builds each program exactly once.  The store is bounded
        (LRU), so identity of returned programs is guaranteed only among
        the most recently used entries.
        """
        from repro.compile.problem import SimulationProblem as _Problem
        from repro.runtime.executor import _memoized_program

        canonical = _Problem.from_dict(problem.to_dict(canonical=True))
        return _memoized_program(canonical, strategy)

    # ------------------------------------------------- generic memoization

    def call(self, tag: str, payload: Any, fn: Callable[[], Any]) -> Any:
        """Content-addressed memoization of an arbitrary computation.

        ``payload`` must be canonically JSON-able; it defines the identity of
        the computation together with ``tag``.  Results that the codec cannot
        encode are computed and returned but not stored.
        """
        if self.cache is None:
            return fn()
        key = content_hash({"tag": tag, "payload": payload}, tag="call")
        hit = self.cache.get(key, MISS)
        if hit is not MISS:
            return hit
        value = fn()
        try:
            self.cache.put(key, value, label=tag)
        except SerializationError:
            pass
        return value

    # ----------------------------------------------------------------- queries

    def cache_stats(self) -> dict:
        """The cache's stats dict (empty-ish when caching is disabled)."""
        if self.cache is None:
            return {"directory": None, "entries": 0, "total_bytes": 0,
                    "max_bytes": 0, "hits": 0, "misses": 0}
        return self.cache.stats()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        cache = "off" if self.cache is None else str(self.cache.directory)
        return f"Session(cache={cache!r}, executor={self.executor!r})"


# ---------------------------------------------------------------------------
# Default session
# ---------------------------------------------------------------------------

_default_session: Session | None = None


def get_default_session() -> Session:
    """The lazily-created process-wide session (serial, standard cache)."""
    global _default_session
    if _default_session is None:
        _default_session = Session()
    return _default_session


def set_default_session(session: Session | None) -> None:
    """Replace (or with ``None`` reset) the process-wide default session."""
    global _default_session
    _default_session = session


def timed(fn: Callable[[], Any]) -> tuple[Any, float]:
    """Tiny helper: ``(fn(), elapsed_seconds)``."""
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start
