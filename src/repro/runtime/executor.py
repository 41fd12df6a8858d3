"""Pluggable fan-out: serial and process-pool execution of run payloads.

An executor is anything with ``map_specs(payloads, progress=None) -> list``:
it runs canonical :class:`~repro.runtime.spec.RunSpec` dicts and returns one
outcome dict per payload, in payload order.  :class:`SerialExecutor` runs
each payload in-process through :func:`execute_spec` (the bit-exactness
oracle); :class:`ProcessExecutor` plan-batches the payloads and shards them
across one warm ``concurrent.futures`` process pool that it keeps between
calls.  Both report progress through an optional ``progress(done, total)``
callback as results land.

The worker entry point :func:`execute_spec` is deliberately *total*: a grid
point that raises records its exception (type, message, full traceback) in
its outcome dict instead of poisoning the pool, so one diverging point never
kills a thousand-point sweep.  Payloads are plain JSON-able dicts, so the
pool never depends on pickling library objects across versions.
"""

from __future__ import annotations

import gc
import logging
import marshal
import math
import os
import threading
import time
import traceback
import weakref
from collections.abc import Callable, Sequence
from dataclasses import replace
from typing import Any, Protocol, runtime_checkable

import numpy as np

from repro.exceptions import ReproError, SpecError
from repro.resilience import FAULTS_ENV, fault_point
from repro.resilience import reset_process as _reset_fault_state
from repro.telemetry import current_trace_context, metrics, span, trace_context
from repro.utils.lru import LRUCache

logger = logging.getLogger("repro.runtime.executor")


# ---------------------------------------------------------------------------
# The worker entry point
# ---------------------------------------------------------------------------


#: Per-process compiled-program memo, keyed on (problem content key,
#: strategy).  A repeats-style sweep expands to many specs identical up to
#: their seed; without this, every grid point landing in the same worker
#: would rebuild the same circuit/plan from scratch.  Bounded in entries, so
#: a long-lived pool cannot hoard build products, and LRU, so two strategies
#: interleaved across a wide sweep keep their hot programs instead of
#: FIFO-thrashing each other out.  The daemon's worker threads share it.
_PROGRAM_MEMO = LRUCache(cap=32)


def _memoized_program(problem, strategy: str):
    """The compiled program of the problem's *canonical* form.

    The key ignores term order, so a miss compiles the problem with its
    terms sorted: what a key maps to never depends on which term order was
    seen first.  ``compile_problem`` is lazy (circuits and plans are built on
    first run), so threads that miss one key together each compile cheaply,
    and every one of them gets the program stored first.
    """
    from repro.compile.pipeline import compile_problem

    key = (problem.content_key(), strategy.lower())
    program = _PROGRAM_MEMO.get(key)
    if program is not None:
        metrics.incr("compile.memo_hits")
        return program
    metrics.incr("compile.memo_misses")
    canonical = replace(problem, hamiltonian=problem.hamiltonian.canonical())
    return _PROGRAM_MEMO.setdefault(key, compile_problem(canonical, strategy))


def execute_spec(payload: dict) -> dict:
    """Run one RunSpec dict; never raises.

    The payload's problem is compiled in its canonical form (terms sorted),
    whatever order the payload lists them in, so payloads with equal content
    keys give bit-identical results in any call order.

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
    """The plan-batching group key of one RunSpec payload.

    ``None`` when the payload's backend has no batch axis.  Payloads with
    equal keys compile to the same program/plan and differ only along the
    backend's batch axis, so :func:`execute_spec_batch` may fuse them.
    """
    axis = BATCH_AXES.get(payload.get("backend", "statevector"))
    if axis is None:
        return None
    from repro.compile.plan import plan_group_key
    from repro.compile.problem import SimulationProblem

    try:
        problem_key = SimulationProblem.from_dict(payload["problem"]).content_key()
    except (LookupError, TypeError, ValueError, ReproError):
        return None  # runs alone; execute_spec captures its error
    run_kwargs = payload.get("run_kwargs", {})
    return plan_group_key(
        problem_key,
        payload.get("strategy", "direct"),
        backend=payload["backend"],
        shared_kwargs={k: v for k, v in run_kwargs.items() if k != axis},
    )


def _batch_identity(payload: dict) -> "bytes | None":
    """The exact bytes of what :func:`batch_key` reads, minus the batch axis.

    Two payloads with equal identities have equal batch keys, so a run of
    seeded repeats parses and hashes its problem once.  ``marshal`` tells
    ``1`` from ``1.0`` and ``True`` (equal as dicts, different in a key).
    ``None`` when there is nothing to save (no batch axis) or the payload
    holds a value marshal cannot write: its key is then computed afresh.
    """
    try:
        backend = payload.get("backend", "statevector")
        axis = BATCH_AXES.get(backend)
        if axis is None:
            return None
        shared = {k: v for k, v in payload.get("run_kwargs", {}).items() if k != axis}
        return marshal.dumps(
            (backend, payload.get("strategy", "direct"), payload["problem"], shared), 2
        )
    except (AttributeError, LookupError, TypeError, ValueError):
        return None


def group_payloads(payloads: "Sequence[dict]") -> list[list[int]]:
    """Index groups of *consecutive* payloads sharing a batch key.

    Order-preserving by construction (a sweep expands its repeats/seed axis
    innermost, so batchable points are adjacent); unbatchable payloads come
    back as singleton groups.  Concatenating the groups restores the input
    order exactly.  A lone payload is its own group without a key, and a
    payload equal to its predecessor outside the batch axis reuses the
    predecessor's key instead of parsing its problem again.
    """
    if len(payloads) == 1:
        return [[0]]
    groups: list[list[int]] = []
    previous: "str | None" = None
    previous_identity: "bytes | None" = None
    for index, payload in enumerate(payloads):
        identity = _batch_identity(payload)
        if identity is None or identity != previous_identity:
            key = batch_key(payload)
        else:
            key = previous
        if key is not None and key == previous and groups:
            groups[-1].append(index)
        else:
            groups.append([index])
        previous, previous_identity = key, identity
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


#: The progress channel of the pool this process works for: set by
#: :func:`_worker_init` in every pool worker, ``None`` everywhere else.
_WORKER_CHANNEL = None


def _run_spec_chunk(groups: list[list[dict]], trace=None) -> list[list[dict]]:
    """Execute batch-key groups inside a worker.

    The worker-side counterpart of :meth:`ProcessExecutor.map_specs`: each
    group runs through :func:`execute_spec_batch`, and the outcomes travel
    back through the pool's result pipe.  ``trace`` is the parent's span
    context (worker spans attach to the submitting trace).  After each group
    the worker puts its point count on the pool's progress channel, so the
    parent can report per-point progress mid-chunk and its watchdog sees
    activity.
    """
    channel = _WORKER_CHANNEL
    results: list[list[dict]] = []
    with trace_context(trace):
        for group in groups:
            results.append(execute_spec_batch(group))
            if channel is not None:
                try:
                    channel.put(len(group))
                except Exception:  # noqa: BLE001 - progress must never kill work
                    channel = None
    return results


# ---------------------------------------------------------------------------
# Worker hygiene: BLAS-thread pinning
# ---------------------------------------------------------------------------

#: The environment knobs every mainstream BLAS/OpenMP runtime honours.
BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

_OPENBLAS_SYMBOLS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
)


def _bundled_blas_libraries() -> list[str]:
    """The OpenBLAS shared objects bundled inside the numpy/scipy wheels."""
    import glob

    found: list[str] = []
    for module_name in ("numpy", "scipy"):
        try:
            module = __import__(module_name)
        except ImportError:  # pragma: no cover - scipy is a hard dep here
            continue
        libs = os.path.join(
            os.path.dirname(os.path.dirname(module.__file__)),
            f"{module_name}.libs",
        )
        found.extend(glob.glob(os.path.join(libs, "*openblas*")))
    return found


def pin_blas_threads(n: int = 1) -> None:
    """Cap BLAS/OpenMP threading at ``n`` threads for this process.

    Sets the environment knobs (authoritative for libraries not yet loaded
    and for any further subprocesses) and then calls the ``set_num_threads``
    entry point of every already-loaded bundled OpenBLAS — the case that
    matters under ``fork``, where workers inherit a fully initialized BLAS
    whose thread pool no longer reads the environment.  Never raises: a BLAS
    we cannot find simply keeps its configuration.
    """
    value = str(max(1, int(n)))
    for var in BLAS_ENV_VARS:
        os.environ[var] = value
    import ctypes

    for library in _bundled_blas_libraries():
        try:
            handle = ctypes.CDLL(library)
        except OSError:  # pragma: no cover - unloadable stray file
            continue
        for symbol in _OPENBLAS_SYMBOLS:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                try:
                    fn(int(value))
                except Exception:  # pragma: no cover - exotic ABI
                    pass


def _worker_init(blas_threads: int, channel=None) -> None:
    """Process-pool initializer: a frozen heap, BLAS pinning, a fresh fault plan.

    Runs once per worker when its pool starts, not once per call: a warm
    pool's workers keep what they set up here for every later
    :meth:`ProcessExecutor.map_specs`.  It freezes the heap the worker
    inherited, so the worker's full garbage collections skip the parent's
    objects: walking them copied each page they wrote to and stalled a
    warm call for as long as a cold pool start.  It caps BLAS/OpenMP
    threading so ``n_workers`` processes do not fan out ``n_workers × N``
    BLAS threads over the same cores.  Fault-plan state is reset so a forked
    worker re-reads ``REPRO_FAULTS`` (as it was when the pool started) with
    fresh trigger counters instead of inheriting the parent's mid-count
    plan; while it is set a pool serves one call, so they count per call.
    ``REPRO_PROFILE`` arms the profiler the same way.  ``channel`` is the
    pool's progress queue, which :func:`_run_spec_chunk` reports into.
    """
    from repro.telemetry.profiler import maybe_start_profiler

    global _WORKER_CHANNEL
    gc.freeze()
    _WORKER_CHANNEL = channel
    _reset_fault_state()
    pin_blas_threads(blas_threads)
    maybe_start_profiler()  # REPRO_PROFILE-armed; one dict lookup when off


def _inherited_state() -> tuple:
    """What pool workers copy from the parent when their pool starts.

    The strategy and backend registries (by version) and the ``REPRO_*``
    environment: fault plan, tracing, profiler and logging settings.  A warm
    pool is reused only while this is unchanged since it started.
    """
    from repro.compile.backends import BACKENDS
    from repro.compile.strategies import STRATEGIES

    env = sorted(item for item in os.environ.items() if item[0].startswith("REPRO_"))
    return STRATEGIES.version, BACKENDS.version, tuple(env)


class _WarmPool:
    """One ``ProcessPoolExecutor`` and the progress channel its workers inherit.

    A :class:`ProcessExecutor` owns one.  Its finalizer holds this object,
    never the executor, so dropping the executor shuts the pool down.
    """

    def __init__(self):
        self.pool = None
        self.channel = None
        self.stamp = None

    def start(self, n_workers: int, mp_context: "str | None", blas_threads: int):
        """Create the channel and the pool; the first submit starts the workers."""
        import concurrent.futures
        import multiprocessing

        context = multiprocessing.get_context(mp_context)
        self.stamp = _inherited_state()
        self.channel = context.SimpleQueue()
        self.pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=n_workers,
            mp_context=context,
            initializer=_worker_init,
            initargs=(blas_threads, self.channel),
        )

    def dead_worker(self) -> bool:
        """Whether the pool broke or lost a worker since its last call."""
        if self.pool._broken:
            return True
        workers = list((self.pool._processes or {}).values())
        return not all(process.is_alive() for process in workers)

    def close(self) -> None:
        """Shut the pool down, joining its manager thread and its workers."""
        pool, channel = self.pool, self.channel
        self.pool = self.channel = self.stamp = None
        if pool is not None:
            pool.shutdown(wait=True)
        if channel is not None:
            channel.close()

    def kill(self) -> None:
        """Hard-stop a pool whose workers cannot be trusted to exit.

        ``shutdown`` alone joins worker processes, and a hung worker would
        hang it too.  Snapshot the workers and the manager thread first
        (private but stable across CPython 3.9–3.13), cancel everything
        queued, SIGKILL and reap each worker, then join the manager thread,
        which exits once it sees its workers gone.
        """
        pool, channel = self.pool, self.channel
        self.pool = self.channel = self.stamp = None
        if pool is None:
            return
        handles = list((pool._processes or {}).values())
        manager = pool._executor_manager_thread
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
        if manager is not None:
            manager.join(timeout=5.0)
        channel.close()


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
    """Chunked fan-out over one warm ``concurrent.futures`` process pool.

    The executor owns one pool of ``n_workers`` processes.  The first
    :meth:`map_specs` call that fans out starts it, and every later call
    reuses it, so the workers' memos (compiled programs, lowerings, parsed
    Hamiltonians) stay warm across sweeps.  The pool lives until
    :meth:`close`, the end of a ``with`` block, garbage collection of the
    executor or interpreter exit, whichever comes first; each of them joins
    the workers.

    Workers start from the parent as it is when the pool starts: forked
    workers copy its memory, spawned ones import afresh.  A pool is
    therefore rebuilt before a call when the strategy or backend registry or
    the ``REPRO_*`` environment changed since it started, and when a worker
    died while the pool sat idle.  While ``REPRO_FAULTS`` is set every call
    starts a fresh pool, so fault triggers count per call.  Every worker
    starts through an initializer that pins BLAS/OpenMP threading to
    ``blas_threads_per_worker`` (default 1), so a CPU-count pool does not
    oversubscribe the box with ``n_workers × N`` BLAS threads.  Progress
    counts travel over one channel created with the pool, so a call on a
    warm executor starts no process at all.  Calls from several threads run
    one at a time; in-process calls (one worker, or one payload) take no
    lock.

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
        stalling the sweep.  Replacing a pool that lost a worker while idle
        does not count.
    """

    name = "process"

    def __init__(
        self,
        n_workers: int | None = None,
        *,
        chunk_size: int | None = None,
        mp_context: str | None = None,
        blas_threads_per_worker: int = 1,
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
        self.n_workers = int(n_workers)
        self.chunk_size = chunk_size
        self.mp_context = mp_context
        self.blas_threads_per_worker = int(blas_threads_per_worker)
        self.point_timeout = None if point_timeout is None else float(point_timeout)
        self.max_restarts = int(max_restarts)
        self._lock = threading.Lock()
        self._warm = _WarmPool()
        # Runs at garbage collection or interpreter exit, whichever is first.
        weakref.finalize(self, self._warm.close)

    def _resolve_chunk(self, n_items: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        return max(1, math.ceil(n_items / (4 * self.n_workers)))

    # --------------------------------------------------------------- lifetime

    def close(self) -> None:
        """Shut the pool down and join its workers; idempotent.

        A later :meth:`map_specs` that fans out starts a fresh pool.
        """
        with self._lock:
            self._warm.close()

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ready_pool(self) -> None:
        """Make the warm pool fit for the next pass, replacing it if it is not.

        A pool whose workers copied an older registry or ``REPRO_*``
        environment is closed; one that broke or lost a worker is killed.
        Either way the old pool is gone before the new one forks.  While
        ``REPRO_FAULTS`` is set a pool is never reused: its workers' trigger
        counters (``n=``, ``every=``, ``after=``, ``times=``, ``once``
        without ``state=``) then start afresh with every call, as they did
        when every call started its own pool.
        """
        warm = self._warm
        if warm.pool is not None:
            if warm.dead_worker():
                warm.kill()
            elif warm.stamp != _inherited_state() or FAULTS_ENV in os.environ:
                warm.close()
        if warm.pool is None:
            warm.start(self.n_workers, self.mp_context, self.blas_threads_per_worker)

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
        """Execute canonical RunSpec payloads, plan-batched across the pool.

        Payloads are gathered into plan-batch groups (:func:`group_payloads`),
        the groups are fanned out in group-preserving chunks, and workers run
        :func:`execute_spec_batch` and return their outcomes through the
        pool's result pipe.  Outcomes come back in payload order with the
        exact per-point contract of :func:`execute_spec`.  A lone payload
        runs in-process, and so does every call on a one-worker executor.

        With ``point_timeout`` set, a watchdog tracks per-group completions:
        a pool that stops making progress (hung point) or loses a worker to
        SIGKILL (``BrokenProcessPool``) is killed and the unfinished points
        are re-queued onto a fresh pool, up to ``max_restarts`` times —
        after which the stragglers come back as captured ``TimeoutError``
        outcomes, never a stalled sweep.  Recovery is safe because payloads
        are content-addressed and side-effect-free in the worker.  A call
        that raises (a progress callback that fails, an interrupt) kills the
        pool too, so nothing it left running leaks into the next call.
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
        with self._lock:
            try:
                return self._fan_out(payloads, groups, progress)
            except BaseException:
                self._warm.kill()
                raise

    def _fan_out(self, payloads, groups, progress) -> list[dict]:
        """Every pass of one :meth:`map_specs` call; runs under the lock."""
        chunks = self._chunk_groups(groups, len(payloads))
        results: list = [None] * len(payloads)
        total = len(payloads)
        done = 0

        def drain(channel) -> int:
            """Swallow the counts on ``channel``; report them; return how many."""
            nonlocal done
            counted = 0
            while not channel.empty():
                counted += channel.get()
            if counted:
                done = min(total, done + counted)
                if progress is not None:
                    progress(done, total)
            return counted

        with span("pool.map_specs", points=total, workers=self.n_workers):
            trace = current_trace_context()
            restarts = 0
            while True:
                self._ready_pool()
                self._pool_pass(chunks, payloads, results, trace, drain)
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
            if done < total and progress is not None:
                # Counts lost with a killed pool: report the terminal total.
                progress(total, total)
        return results

    def _pool_pass(self, chunks, payloads, results, trace, drain) -> None:
        """One pass over ``chunks`` on the warm pool, filling ``results`` in place.

        Completed chunks land their outcomes; a broken pool (SIGKILLed
        worker) or a watchdog stall abandons the pass, leaving unfinished
        points ``None`` for the caller to re-queue.  An abandoned pool is
        killed — a hung worker would otherwise block shutdown forever — and
        the next pass starts a fresh one.  A pass that completes drains every
        count its workers sent, because each count is written before its
        chunk's result.
        """
        import concurrent.futures
        from concurrent.futures.process import BrokenProcessPool

        largest_group = max(
            (len(group) for chunk in chunks for group in chunk), default=1
        )
        stall_after = (
            None if self.point_timeout is None
            else self.point_timeout * largest_group
        )
        pool, channel = self._warm.pool, self._warm.channel
        abandoned = False
        futures = {}
        try:
            for chunk in chunks:
                futures[
                    pool.submit(
                        _run_spec_chunk,
                        [[payloads[i] for i in group] for group in chunk],
                        trace,
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
            if drain(channel) or finished:
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
                        results[index] = outcome
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
        if abandoned:
            self._warm.kill()
        else:
            drain(channel)

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
