"""Pluggable fan-out: serial and process-pool execution of run payloads.

An executor is anything with ``map_specs(payloads, progress=None) -> list``:
it runs canonical :class:`~repro.runtime.spec.RunSpec` dicts and returns one
outcome dict per payload, in payload order.  :class:`SerialExecutor` runs
each payload in-process through :func:`execute_spec` (the bit-exactness
oracle); :class:`ProcessExecutor` plan-batches the payloads and shards them
across a ``concurrent.futures`` process pool.  Both report progress through
an optional ``progress(done, total)`` callback as results land.

The worker entry point :func:`execute_spec` is deliberately *total*: a grid
point that raises records its exception (type, message, full traceback) in
its outcome dict instead of poisoning the pool, so one diverging point never
kills a thousand-point sweep.  Payloads are plain JSON-able dicts, so the
pool never depends on pickling library objects across versions.
"""

from __future__ import annotations

import logging
import math
import os
import time
import traceback
from collections.abc import Callable, Sequence
from typing import Any, Protocol, runtime_checkable

import numpy as np

from repro.exceptions import SpecError
from repro.resilience import fault_point
from repro.resilience import reset_process as _reset_fault_state
from repro.telemetry import current_trace_context, metrics, span, trace_context

logger = logging.getLogger("repro.runtime.executor")


# ---------------------------------------------------------------------------
# The worker entry point
# ---------------------------------------------------------------------------


#: Per-process compiled-program memo, keyed on (problem content key,
#: strategy).  A repeats-style sweep expands to many specs identical up to
#: their seed; without this, every grid point landing in the same worker
#: would rebuild the same circuit/plan from scratch.  Bounded LRU (hits
#: move to the back, eviction pops the front) so a long-lived pool cannot
#: hoard build products — and so two strategies interleaved across a wide
#: sweep keep their hot programs instead of FIFO-thrashing each other out.
_PROGRAM_MEMO: dict[tuple[str, str], Any] = {}
_PROGRAM_MEMO_CAP = 32


def _memoized_program(problem, strategy: str):
    from repro.compile.pipeline import compile_problem

    key = (problem.content_key(), strategy.lower())
    program = _PROGRAM_MEMO.get(key)
    if program is None:
        metrics.incr("compile.memo_misses")
        program = compile_problem(problem, strategy)
        while len(_PROGRAM_MEMO) >= _PROGRAM_MEMO_CAP:
            _PROGRAM_MEMO.pop(next(iter(_PROGRAM_MEMO)))
    else:
        metrics.incr("compile.memo_hits")
        del _PROGRAM_MEMO[key]  # re-insertion moves the hit to the LRU back
    _PROGRAM_MEMO[key] = program
    return program


def execute_spec(payload: dict) -> dict:
    """Run one canonical RunSpec dict; never raises.

    Returns ``{"ok": True, "result": meta, "arrays": {...}, "wall_time": s,
    "timings": {phase: s}}`` on success and ``{"ok": False, "error": {type,
    message, traceback}, "wall_time": s}`` on failure.  Importable at module
    level so it pickles into worker processes.
    """
    attrs = (
        {"backend": payload.get("backend"), "strategy": payload.get("strategy")}
        if isinstance(payload, dict)
        else {}
    )
    with span("execute.point", **attrs) as sp:
        outcome = _execute_spec_inner(payload)
        sp.set(ok=outcome.get("ok"))
    return outcome


def _ledgered_run(spec, evolve: "Callable[[Any], list]") -> "tuple[list, dict]":
    """Compile, evolve and encode; returns ``(meta, arrays)`` pairs and phase seconds.

    ``evolve(program)`` returns one result value per point.  The program
    builds its circuit/plan lazily inside it, so the run-time split comes from
    diffing its build-timing ledger (see CompiledProgram.build_timings).
    """
    from repro.runtime.results import encode_result

    with span("execute.compile", strategy=spec.strategy):
        compile_start = time.perf_counter()
        program = _memoized_program(spec.problem, spec.strategy)
        compile_seconds = time.perf_counter() - compile_start
    built_before = program.build_seconds
    plan_before = program.build_timings.get("plan", 0.0)
    with span("execute.evolve", backend=spec.backend):
        run_start = time.perf_counter()
        values = evolve(program)
        run_seconds = time.perf_counter() - run_start
    built_delta = program.build_seconds - built_before
    plan_delta = program.build_timings.get("plan", 0.0) - plan_before
    with span("execute.encode"):
        encode_start = time.perf_counter()
        encoded = [encode_result(value) for value in values]
        encode_seconds = time.perf_counter() - encode_start
    return encoded, {
        "compile": compile_seconds + max(0.0, built_delta - plan_delta),
        "plan": plan_delta,
        "evolve": max(0.0, run_seconds - built_delta),
        "encode": encode_seconds,
    }


def _execute_spec_inner(payload: dict) -> dict:
    start = time.perf_counter()
    try:
        # Inside the try: an injected raise becomes a captured per-point
        # failure (the normal contract); delay simulates a hung point and
        # kill is uncatchable by design.
        fault_point("worker.execute")
        from repro.runtime.spec import RunSpec

        spec = RunSpec.from_dict(payload)
        [(meta, arrays)], timings = _ledgered_run(
            spec,
            lambda program: [program.run(backend=spec.backend, **spec.run_kwargs)],
        )
        return {
            "ok": True,
            "result": meta,
            "arrays": arrays,
            "wall_time": time.perf_counter() - start,
            "timings": timings,
        }
    except Exception as exc:  # noqa: BLE001 - failure capture is the contract
        return {
            "ok": False,
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
            },
            "wall_time": time.perf_counter() - start,
        }


# ---------------------------------------------------------------------------
# Plan-batched execution
# ---------------------------------------------------------------------------

#: Per-backend batch axis: the single run kwarg along which grid points may
#: differ and still share every deterministic byte of the computation.  The
#: ``kernel`` backend batches initial states through one vectorized
#: ``(dim, B)`` plan evolution; ``sampling`` shares the prepared outcome
#: distribution across seeded draws.
BATCH_AXES: dict[str, str] = {"kernel": "initial_state", "sampling": "rng"}


def batch_key(payload: dict) -> "str | None":
    """The plan-batching group key of one canonical RunSpec payload.

    ``None`` when the payload's backend has no batch axis.  Payloads with
    equal keys compile to the same program/plan and differ only along the
    backend's batch axis, so :func:`execute_spec_batch` may fuse them.
    """
    axis = BATCH_AXES.get(payload.get("backend", "statevector"))
    if axis is None:
        return None
    from repro.compile.plan import plan_group_key

    run_kwargs = payload.get("run_kwargs", {})
    return plan_group_key(
        payload["problem"],
        payload.get("strategy", "direct"),
        backend=payload["backend"],
        shared_kwargs={k: v for k, v in run_kwargs.items() if k != axis},
    )


def group_payloads(payloads: "Sequence[dict]") -> list[list[int]]:
    """Index groups of *consecutive* payloads sharing a batch key.

    Order-preserving by construction (a sweep expands its repeats/seed axis
    innermost, so batchable points are adjacent); unbatchable payloads come
    back as singleton groups.  Concatenating the groups restores the input
    order exactly.
    """
    groups: list[list[int]] = []
    previous: "str | None" = None
    for index, payload in enumerate(payloads):
        key = batch_key(payload)
        if key is not None and key == previous and groups:
            groups[-1].append(index)
        else:
            groups.append([index])
        previous = key
    return groups


class _Unbatchable(Exception):
    """Internal: the group cannot be fused; fall back to per-point runs."""


def _batched_kernel(spec0, program, payloads: list[dict]) -> list:
    """One vectorized ``(dim, B)`` plan evolution for an initial-state batch."""
    plan = program.evolution_plan()
    if plan is None:
        raise _Unbatchable("no mask plan; the fallback path is not batched")
    dim = 1 << program.problem.num_qubits
    batch = np.zeros((dim, len(payloads)), dtype=complex)
    for column, payload in enumerate(payloads):
        index = payload.get("run_kwargs", {}).get("initial_state", 0)
        if not isinstance(index, int) or not 0 <= index < dim:
            raise _Unbatchable(f"initial_state {index!r} is not a basis index")
        batch[index, column] = 1.0
    evolved = plan.evolve(batch)
    from repro.circuits.statevector import Statevector

    return [
        Statevector(np.ascontiguousarray(evolved[:, column]))
        for column in range(len(payloads))
    ]


def _batched_sampling(spec0, program, payloads: list[dict]) -> list:
    """One prepared distribution, one seeded draw per grid point."""
    from repro.compile.backends import SamplingBackend

    shared = dict(spec0.run_kwargs)
    shared.pop("rng", None)
    shots = shared.pop("shots", 1024)
    initial_state = shared.pop("initial_state", 0)
    if shared:
        raise _Unbatchable(
            f"unbatchable sampling arguments: {', '.join(sorted(shared))}"
        )
    prepared = SamplingBackend().prepare(program, initial_state)
    return [
        prepared.sample(shots=shots, rng=payload.get("run_kwargs", {}).get("rng"))
        for payload in payloads
    ]


def execute_spec_batch(payloads: "Sequence[dict]") -> list[dict]:
    """Run a batch-key group of canonical RunSpec payloads; never raises.

    Points sharing a compiled :class:`~repro.compile.plan.EvolutionPlan` are
    executed as one vectorized evolution and sliced back out — bit-identical
    to running each payload through :func:`execute_spec`, because the batched
    kernels perform the same element-wise arithmetic per column and the
    sampling path shares the exact distribution-then-draw code.  Any group
    the fused path cannot represent falls back to per-point execution, so
    failure capture and outcome shape are exactly the serial contract's.
    """
    payloads = list(payloads)
    metrics.incr("batch.points_total", len(payloads))
    if len(payloads) <= 1:
        return [execute_spec(payload) for payload in payloads]
    n_points = len(payloads)
    start = time.perf_counter()
    try:
        # Inside the try: an injected raise drops the group to the per-point
        # fallback (where each point hits its own fault/capture path).
        fault_point("worker.execute")
        from repro.runtime.spec import RunSpec

        def fused_evolution(program) -> list:
            # Resolved per call, not through a module-level table: tests
            # monkeypatch these kernels.
            if spec0.backend == "kernel":
                return _batched_kernel(spec0, program, payloads)
            if spec0.backend == "sampling":
                return _batched_sampling(spec0, program, payloads)
            raise _Unbatchable(f"backend {spec0.backend!r} has no batch axis")

        with span(
            "execute.batch",
            backend=payloads[0].get("backend") if isinstance(payloads[0], dict) else None,
            points=n_points,
        ):
            spec0 = RunSpec.from_dict(payloads[0])
            encoded, totals = _ledgered_run(spec0, fused_evolution)
        per_point = (time.perf_counter() - start) / n_points
        timings = {phase: seconds / n_points for phase, seconds in totals.items()}
        metrics.incr("batch.points_fused", n_points)
        return [
            {
                "ok": True,
                "result": meta,
                "arrays": arrays,
                "wall_time": per_point,
                "batched": n_points,
                "timings": dict(timings),
            }
            for meta, arrays in encoded
        ]
    except Exception:  # noqa: BLE001 - any fused failure → per-point retry
        # The per-point path re-raises (and captures) the real error with its
        # own traceback, so a fused-path limitation can never change results.
        return [execute_spec(payload) for payload in payloads]


def _run_spec_chunk(
    groups: list[list[dict]], trace=None, progress_queue=None
) -> list[list[dict]]:
    """Execute batch-key groups inside a worker, exporting big arrays as shm.

    The worker-side counterpart of :meth:`ProcessExecutor.map_specs`: each
    group runs through :func:`execute_spec_batch`, and when the pool
    initializer installed a shared-memory namespace, every large result array
    leaves through a named segment instead of the pickle pipe.  ``trace`` is
    the parent's span context (worker spans attach to the submitting trace);
    ``progress_queue`` receives one count per completed group so the parent
    can report per-point progress mid-chunk.
    """
    from repro.runtime import shm

    results: list[list[dict]] = []
    with trace_context(trace):
        for group in groups:
            results.append(
                [shm.export_outcome(outcome) for outcome in execute_spec_batch(group)]
            )
            if progress_queue is not None:
                try:
                    progress_queue.put_nowait(len(group))
                except Exception:  # noqa: BLE001 - progress must never kill work
                    progress_queue = None
    return results


def _worker_init(shm_prefix: "str | None", blas_threads: int) -> None:
    """Process-pool initializer: BLAS pinning + shared-memory namespace.

    Runs once per worker before any task: caps BLAS/OpenMP threading so
    ``n_workers`` processes do not fan out ``n_workers × N`` BLAS threads
    over the same cores, and installs the sweep's segment namespace for
    :func:`_run_spec_chunk` result transport.  Fault-plan state is reset so
    a forked worker re-reads ``REPRO_FAULTS`` with fresh trigger counters
    instead of inheriting the parent's mid-count plan.
    """
    from repro.runtime import shm
    from repro.telemetry.profiler import maybe_start_profiler

    _reset_fault_state()
    shm.pin_blas_threads(blas_threads)
    shm.activate_worker(shm_prefix)
    maybe_start_profiler()  # REPRO_PROFILE-armed; one dict lookup when off


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------


@runtime_checkable
class Executor(Protocol):
    """What the session requires of an execution engine: run payloads."""

    def map_specs(
        self,
        payloads: Sequence[dict],
        *,
        progress: Callable[[int, int], None] | None = None,
    ) -> list[dict]:
        ...


class SerialExecutor:
    """In-process execution, one payload at a time (the zero-dependency default).

    Every payload runs alone through :func:`execute_spec`, never fused: this
    is the bit-exactness oracle the batched, pooled and daemon paths are
    differential-tested against.
    """

    name = "serial"
    n_workers = 1

    def map_specs(self, payloads, *, progress=None) -> list[dict]:
        return self.map(execute_spec, payloads, progress=progress)

    def map(self, fn, items, *, progress=None) -> list:
        """``[fn(item) for item in items]``, reporting progress per item."""
        items = list(items)
        results = []
        for index, item in enumerate(items):
            results.append(fn(item))
            if progress is not None:
                progress(index + 1, len(items))
        return results

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "SerialExecutor()"


class ProcessExecutor:
    """Chunked fan-out over a ``concurrent.futures`` process pool.

    Every pool worker starts through an initializer that pins BLAS/OpenMP
    threading to ``blas_threads_per_worker`` (default 1), so a CPU-count
    pool no longer oversubscribes the box with ``n_workers × N`` BLAS
    threads.  :meth:`map_specs` plan-batches the payloads and returns large
    result arrays through shared memory (see :mod:`repro.runtime.shm`).

    Parameters
    ----------
    n_workers:
        Pool size (default: the machine's CPU count — safe now that each
        worker's BLAS is capped).
    chunk_size:
        Points per submitted task.  Defaults to ``ceil(n_points / (4 ·
        n_workers))`` — small enough to balance load, large enough to
        amortize per-task pickling.
    mp_context:
        Optional :mod:`multiprocessing` context name (``"fork"``,
        ``"spawn"``, ``"forkserver"``); default is the platform default.
    blas_threads_per_worker:
        BLAS/OpenMP thread cap installed in every worker (default 1;
        raise it for pools of fewer workers than cores).
    use_shm:
        ``None`` (default) follows ``REPRO_SHM``/platform support; ``False``
        forces every result through the pickle pipe; ``True`` requires
        shared-memory transport and raises if unavailable.
    point_timeout:
        Hung-point watchdog for :meth:`map_specs` (seconds per point,
        scaled by the largest batch group in flight).  When no point
        completes within the window, the pool is killed and the unfinished
        points are re-queued onto a fresh pool; a SIGKILLed worker
        (``BrokenProcessPool``) triggers the same recovery.  ``None``
        (default) waits forever, the pre-resilience behaviour.
    max_restarts:
        How many fresh pools a single :meth:`map_specs` call may build
        after stalls/crashes (default 1).  Once exhausted, still-missing
        points come back as captured ``TimeoutError`` outcomes instead of
        stalling the sweep.
    """

    name = "process"

    def __init__(
        self,
        n_workers: int | None = None,
        *,
        chunk_size: int | None = None,
        mp_context: str | None = None,
        blas_threads_per_worker: int = 1,
        use_shm: bool | None = None,
        point_timeout: float | None = None,
        max_restarts: int = 1,
    ):
        if n_workers is None:
            n_workers = os.cpu_count() or 1
        if n_workers < 1:
            raise SpecError(f"n_workers must be >= 1, got {n_workers}")
        if chunk_size is not None and chunk_size < 1:
            raise SpecError(f"chunk_size must be >= 1, got {chunk_size}")
        if blas_threads_per_worker < 1:
            raise SpecError(
                f"blas_threads_per_worker must be >= 1, got {blas_threads_per_worker}"
            )
        if point_timeout is not None and point_timeout <= 0:
            raise SpecError(f"point_timeout must be > 0, got {point_timeout}")
        if max_restarts < 0:
            raise SpecError(f"max_restarts must be >= 0, got {max_restarts}")
        from repro.runtime import shm

        if use_shm is True and not shm.shm_enabled():
            raise SpecError(
                "use_shm=True but shared-memory transport is unavailable "
                "(REPRO_SHM=0 or no multiprocessing.shared_memory support)"
            )
        self.n_workers = int(n_workers)
        self.chunk_size = chunk_size
        self.mp_context = mp_context
        self.blas_threads_per_worker = int(blas_threads_per_worker)
        self.use_shm = use_shm
        self.point_timeout = None if point_timeout is None else float(point_timeout)
        self.max_restarts = int(max_restarts)

    def _shm_active(self) -> bool:
        from repro.runtime import shm

        if self.use_shm is None:
            return shm.shm_enabled()
        return bool(self.use_shm)

    def _resolve_chunk(self, n_items: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        return max(1, math.ceil(n_items / (4 * self.n_workers)))

    # ------------------------------------------------------ progress plumbing

    def _progress_channel(self, progress, total: int, *, force: bool = False):
        """A managed queue workers feed per-point counts into, plus its drain.

        Returns ``(manager, queue, drain)``; all three are inert when no
        progress callback was supplied (unless ``force`` — the hung-point
        watchdog needs the activity signal even unmonitored), so plain
        sweeps skip the Manager process entirely.  ``drain()`` returns how
        many fresh counts it swallowed; ``drain(final=True)`` reports the
        terminal ``progress(total, total)`` in case trailing counts were
        lost with a dying worker.
        """
        if progress is None and not force:
            return None, None, (lambda final=False: 0)
        import multiprocessing

        manager = multiprocessing.Manager()
        queue = manager.Queue()
        done = 0

        def drain(final: bool = False) -> int:
            nonlocal done
            counted = 0
            while True:
                try:
                    counted += queue.get_nowait()
                except Exception:  # noqa: BLE001 - Empty, or a dead manager
                    break
            if counted:
                done = min(total, done + counted)
                if progress is not None:
                    progress(done, total)
            if final and done < total:
                done = total
                if progress is not None:
                    progress(total, total)
            return counted

        return manager, queue, drain

    # ---------------------------------------------------------------- fan-out

    def _chunk_groups(self, groups: list[list[int]], n_points: int) -> list[list[list[int]]]:
        """Pack batch groups into chunks of roughly ``chunk_size`` points.

        Groups are never split (splitting would forfeit the fused evolution);
        a chunk closes once it holds at least the target point count.
        """
        target = self._resolve_chunk(n_points)
        chunks: list[list[list[int]]] = []
        current: list[list[int]] = []
        current_points = 0
        for group in groups:
            current.append(group)
            current_points += len(group)
            if current_points >= target:
                chunks.append(current)
                current, current_points = [], 0
        if current:
            chunks.append(current)
        return chunks

    def map_specs(
        self,
        payloads: Sequence[dict],
        *,
        progress: "Callable[[int, int], None] | None" = None,
    ) -> list[dict]:
        """Execute canonical RunSpec payloads: batched, shm-transported.

        Payloads are gathered into plan-batch groups (:func:`group_payloads`),
        the groups are fanned out in group-preserving chunks, workers run
        :func:`execute_spec_batch` and ship large arrays back as
        shared-memory segment references, and the parent reattaches them
        zero-copy.  Outcomes come back in payload order with the exact
        per-point contract of :func:`execute_spec`.

        Every fan-out ends with a reaper sweep over its segment namespace
        (plus a global sweep for dead owners), so neither a failed chunk nor
        a SIGKILLed worker can leak ``/dev/shm`` blocks.

        With ``point_timeout`` set, a watchdog tracks per-group completions:
        a pool that stops making progress (hung point) or loses a worker to
        SIGKILL (``BrokenProcessPool``) is killed and the unfinished points
        are re-queued onto a fresh pool, up to ``max_restarts`` times —
        after which the stragglers come back as captured ``TimeoutError``
        outcomes, never a stalled sweep.  Recovery is safe because payloads
        are content-addressed and side-effect-free in the worker.
        """
        payloads = list(payloads)
        if not payloads:
            return []
        groups = group_payloads(payloads)
        if self.n_workers == 1 or len(payloads) == 1:
            # In-process: same batched semantics, no transport needed.  The
            # groups are consecutive, so their outcomes concatenate in order.
            results: list = []
            for group in groups:
                results.extend(execute_spec_batch([payloads[i] for i in group]))
                if progress is not None:
                    progress(len(results), len(payloads))
            return results

        import multiprocessing

        from repro.runtime import shm

        prefix = shm.make_prefix() if self._shm_active() else None
        chunks = self._chunk_groups(groups, len(payloads))
        context = (
            multiprocessing.get_context(self.mp_context)
            if self.mp_context is not None
            else None
        )
        results: list = [None] * len(payloads)
        manager, progress_queue, drain = self._progress_channel(
            progress, len(payloads), force=self.point_timeout is not None
        )
        try:
            with span(
                "pool.map_specs", points=len(payloads), workers=self.n_workers
            ):
                trace = current_trace_context()
                restarts = 0
                while True:
                    self._pool_pass(
                        chunks, payloads, results, trace,
                        progress_queue, drain, context, prefix,
                    )
                    leftovers = [
                        group
                        for chunk in chunks
                        for group in chunk
                        if results[group[0]] is None
                    ]
                    if not leftovers:
                        break
                    missing = sum(len(group) for group in leftovers)
                    restarts += 1
                    if restarts > self.max_restarts:
                        window = (self.point_timeout or 0.0) * max(
                            len(group) for group in leftovers
                        )
                        error = {
                            "type": "TimeoutError",
                            "message": (
                                f"point made no progress within "
                                f"{window:.3g}s across "
                                f"{self.max_restarts + 1} pool pass(es)"
                            ),
                            "traceback": "",
                        }
                        for group in leftovers:
                            for index in group:
                                results[index] = {
                                    "ok": False,
                                    "error": dict(error),
                                    "wall_time": window,
                                }
                        metrics.incr("resilience.timeouts", missing)
                        logger.error(
                            "giving up on %d point(s) after %d pool "
                            "restart(s); recorded as TimeoutError",
                            missing, self.max_restarts,
                        )
                        break
                    metrics.incr("resilience.retries")
                    logger.warning(
                        "pool stalled or lost a worker; re-queueing %d "
                        "point(s) onto a fresh pool (restart %d/%d)",
                        missing, restarts, self.max_restarts,
                    )
                    chunks = self._chunk_groups(leftovers, missing)
                drain(final=True)
        finally:
            if manager is not None:
                manager.shutdown()
            if prefix is not None:
                shm.reap_prefix(prefix)
                shm.reap_orphans()
        return results

    def _pool_pass(
        self, chunks, payloads, results, trace, progress_queue, drain,
        context, prefix,
    ) -> None:
        """One process-pool pass over ``chunks``, filling ``results`` in place.

        Completed chunks land their outcomes; a broken pool (SIGKILLed
        worker) or a watchdog stall abandons the pass, leaving unfinished
        points ``None`` for the caller to re-queue.  The pool is hard-killed
        on abandonment — a hung worker would otherwise block shutdown
        forever.
        """
        import concurrent.futures
        from concurrent.futures.process import BrokenProcessPool

        from repro.runtime import shm

        largest_group = max(
            (len(group) for chunk in chunks for group in chunk), default=1
        )
        stall_after = (
            None if self.point_timeout is None
            else self.point_timeout * largest_group
        )
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=min(self.n_workers, len(chunks)),
            mp_context=context,
            initializer=_worker_init,
            initargs=(prefix, self.blas_threads_per_worker),
        )
        abandoned = False
        try:
            futures = {}
            try:
                for chunk in chunks:
                    futures[
                        pool.submit(
                            _run_spec_chunk,
                            [[payloads[i] for i in group] for group in chunk],
                            trace,
                            progress_queue,
                        )
                    ] = chunk
            except BrokenProcessPool:
                abandoned = True
            pending = set(futures)
            last_activity = time.monotonic()
            while pending and not abandoned:
                finished, pending = concurrent.futures.wait(
                    pending,
                    timeout=0.05,
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
                if drain() or finished:
                    last_activity = time.monotonic()
                for future in finished:
                    chunk = futures[future]
                    try:
                        outcome_groups = future.result()
                    except BrokenProcessPool:
                        abandoned = True
                        continue
                    for group, outcomes in zip(chunk, outcome_groups):
                        for index, outcome in zip(group, outcomes):
                            results[index] = shm.resolve_outcome(outcome)
                if (
                    not abandoned
                    and stall_after is not None
                    and pending
                    and time.monotonic() - last_activity > stall_after
                ):
                    logger.warning(
                        "no point completed for %.3gs (watchdog window); "
                        "killing the pool",
                        stall_after,
                    )
                    abandoned = True
        finally:
            if abandoned:
                self._kill_pool(pool)
            else:
                pool.shutdown(wait=True)

    @staticmethod
    def _kill_pool(pool) -> None:
        """Hard-stop a pool whose workers cannot be trusted to exit.

        ``shutdown`` alone joins worker processes — a hung worker would hang
        the shutdown too.  Snapshot the worker processes first (private but
        stable across CPython 3.8–3.13), cancel everything queued, then
        SIGKILL and reap each worker.
        """
        handles = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in handles:
            try:
                process.kill()
            except Exception:  # noqa: BLE001 - already dead
                pass
        for process in handles:
            try:
                process.join(timeout=5.0)
            except Exception:  # noqa: BLE001 - already reaped
                pass

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ProcessExecutor(n_workers={self.n_workers})"


def resolve_executor(executor: "Executor | int | None") -> Executor:
    """``None`` → serial; an int → pool of that size; instances pass through."""
    if executor is None:
        return SerialExecutor()
    if isinstance(executor, (int,)) and not isinstance(executor, bool):
        return SerialExecutor() if executor <= 1 else ProcessExecutor(executor)
    if isinstance(executor, Executor):
        return executor
    raise SpecError(f"not an executor: {executor!r}")
