"""The three workloads: seeded inputs, set-up, timed rounds and oracle checks.

Every workload draws its inputs from ``--seed``: the grids' time values,
initial states, sampling seeds and which points of the half-cached part
were computed before.  Time values are fresh floats on every draw, so a
"cold" key never hits the result cache or the per-process compiled-program
memo left behind by an earlier round of the same run.

One *round* runs every part of a workload once, in order.  A run is a fixed
number of rounds (``--seconds`` divided by the workload's nominal round
time), so the same seed always does the same work.  Only the client calls
are timed; the oracle checks that follow each part are not.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import repro
from repro.applications.chemistry import fermi_hubbard_chain, jordan_wigner_scb
from repro.applications.hubo import random_hubo
from repro.runtime import (
    ProcessExecutor,
    ResultCache,
    RunSpec,
    Session,
    SweepSpec,
    execute_spec,
)
from repro.runtime.results import decode_result
from repro.service import ServiceClient
from repro.service.protocol import ServiceConnection, ServiceConnectionError, request

from common import same_value

HERE = Path(__file__).resolve().parent
CORES = os.cpu_count() or 1
#: Pool and daemon workers: at most the cores, and at most 2, so a bigger
#: machine runs the same work.
WORKERS = max(1, min(CORES, 2))


def oracle(spec: RunSpec):
    """The serial reference: one per-point ``execute_spec`` on the canonical payload."""
    outcome = execute_spec(spec.to_dict(canonical=True))
    if not outcome["ok"]:
        return None, outcome
    return decode_result(outcome["result"], outcome["arrays"]), outcome


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


class _Inputs:
    """A fixed problem plus a seeded stream of fresh time values."""

    problem: "repro.SimulationProblem"

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def times(self, n: int) -> "tuple[float, ...]":
        return tuple(float(t) for t in self.rng.uniform(0.05, 1.0, n))

    def reference(self) -> "repro.SimulationProblem":
        """The problem at one Trotter step, for the gate and rotation counts."""
        return replace(self.problem, steps=1)


class AnnexCInputs(_Inputs):
    """Annex C: the 10-qubit Jordan-Wigner Fermi-Hubbard chain on ``kernel``."""

    STRATEGIES = ("direct", "pauli")
    STEPS = (1, 2, 4)
    BACKEND = "kernel"

    def __init__(self, seed: int):
        super().__init__(seed)
        hamiltonian = jordan_wigner_scb(fermi_hubbard_chain(5, 1.0, 4.0))
        self.problem = repro.SimulationProblem(
            hamiltonian, 0.25, order=2, name="annex-c-hubbard"
        )

    def initial_state(self) -> int:
        return int(self.rng.integers(0, 1 << self.problem.num_qubits))

    def grid(self, times, initial_state: int) -> SweepSpec:
        return SweepSpec(
            problem=self.problem,
            strategies=self.STRATEGIES,
            steps=self.STEPS,
            times=times,
            backend=self.BACKEND,
            run_kwargs={"initial_state": initial_state},
            name="annexc-grid",
        )

    def point(self, index: int, strategy: "str | None" = None) -> RunSpec:
        """A fresh single point (new time value, so a new key)."""
        return RunSpec(
            problem=replace(
                self.problem,
                time=self.times(1)[0],
                steps=self.STEPS[index % len(self.STEPS)],
            ),
            strategy=strategy or self.STRATEGIES[index % len(self.STRATEGIES)],
            backend=self.BACKEND,
            run_kwargs={"initial_state": self.initial_state()},
        )

    def grid_point(self, strategy: str) -> RunSpec:
        """A fresh point of the grid (one Trotter step)."""
        return self.point(0, strategy)

    def batch(self, states: int = 16) -> "list[RunSpec]":
        """Points that share a plan and differ only in their initial state."""
        specs = []
        for strategy in self.STRATEGIES:
            for steps in self.STEPS:
                problem = replace(self.problem, time=self.times(1)[0], steps=steps)
                specs += [
                    RunSpec(problem=problem, strategy=strategy, backend=self.BACKEND,
                            run_kwargs={"initial_state": self.initial_state()})
                    for _ in range(states)
                ]
        return specs


class HuboInputs(_Inputs):
    """A fixed random HUBO problem: 10 variables, 48 monomials, order <= 6.

    The problem itself does not depend on the seed (so gate counts repeat
    exactly); the seed picks the time values and sampling seeds.
    """

    PROBLEM_SEED = 2025
    STRATEGIES = ("direct", "pauli")
    STEPS = (1, 2)
    TIMES = 2  # 2 x 2 x 2 = 8 statevector points per grid, each its own compile
    SAMPLING_STEPS = (1, 2)
    REPEATS = 64  # 2 plan groups x 64 seeded repeats = 128 sampling points
    SHOTS = 4096
    BACKEND = "statevector"

    def __init__(self, seed: int):
        super().__init__(seed)
        hubo = random_hubo(10, 48, 6, rng=self.PROBLEM_SEED)
        self.problem = hubo.to_simulation_problem(0.5, name="hubo-10v-48t")

    def grid(self) -> SweepSpec:
        return SweepSpec(
            problem=self.problem,
            strategies=self.STRATEGIES,
            steps=self.STEPS,
            times=self.times(self.TIMES),
            backend=self.BACKEND,
            name="hubo-grid",
        )

    def repeats(self) -> SweepSpec:
        return SweepSpec(
            problem=replace(self.problem, time=self.times(1)[0]),
            strategies=("direct",),
            steps=self.SAMPLING_STEPS,
            backend="sampling",
            run_kwargs={"shots": self.SHOTS},
            seed=int(self.rng.integers(1 << 31)),
            repeats=self.REPEATS,
            name="hubo-repeats",
        )

    def point(self, index: int, strategy: "str | None" = None) -> RunSpec:
        """A fresh single sampling point (new time value and draw seed)."""
        return RunSpec(
            problem=replace(self.problem, time=self.times(1)[0], steps=1),
            strategy=strategy or "direct",
            backend="sampling",
            run_kwargs={"shots": self.SHOTS, "rng": int(self.rng.integers(1 << 31))},
        )

    def grid_point(self, strategy: str) -> RunSpec:
        """A fresh point of the statevector grid."""
        return RunSpec(
            problem=replace(self.problem, time=self.times(1)[0], steps=1),
            strategy=strategy,
            backend=self.BACKEND,
        )

    def batch(self) -> "list[RunSpec]":
        return [spec for _, spec in self.repeats().expand()]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _setup_child(mode: str, workdir: Path) -> float:
    """Seconds from spawning a fresh interpreter to its first accepted operation."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "setup_child.py"), mode,
         str(workdir / "setup-cache"), str(WORKERS)],
        stdout=subprocess.PIPE,
        text=True,
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.wait(timeout=60)
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe ({mode}) failed with exit code {child.returncode}")
    return elapsed


class Workload:
    """One workload: set-up probes, bring-up, rounds of timed parts, checks.

    Why each workload exists is recorded in ``BENCHMARK.json``.
    """

    name = ""
    #: Nominal seconds per round on a 2-core machine; rounds = seconds / this.
    round_seconds = 1.0
    #: Single-point runs per round in the closed loop.
    loop_points = 10
    #: Whether the timed parts are CPU work in this process or its pool
    #: (reported at reference speed), or mostly waits and another process's
    #: work that the calibration kernel does not track (reported raw).
    rescaled = True

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir

    def setup_once(self) -> float:
        raise NotImplementedError

    def bring_up(self) -> None:
        raise NotImplementedError

    def round(self, rec, phase: int = 0) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def result_cache(self) -> "ResultCache | None":
        """The result cache the workload filled, if it has one."""
        return None

    # ------------------------------------------------------------- checking

    def check_records(self, rec, specs, records, expected=None) -> "list[dict]":
        """Each record must equal the serial oracle (or a known value by key).

        Returns the oracle outcomes computed on the way (the probes reuse
        them as realistic worker outcomes).
        """
        outcomes = []
        for spec, record in zip(specs, records):
            if not record.ok:
                rec.verify(False, f"{self.name}: point failed: {record.error}")
                continue
            want = None if expected is None else expected.get(record.key)
            if want is None:
                want, outcome = oracle(spec)
                if want is None:
                    rec.verify(False, f"{self.name}: oracle failed: {outcome['error']}")
                    continue
                outcomes.append(outcome)
            rec.verify(same_value(record.value, want),
                       f"{self.name}: {spec.describe()} differs from the oracle")
        return outcomes

    def closed_loop(self, rec, session, inputs, phase: int = 0) -> None:
        """Single-point runs, each sent after the previous one returns.

        In a traced run the loop runs twice per round, once with spans and
        once without (order alternating by ``phase``); the per-round
        difference of their median latencies is the tracing overhead.
        """
        plan = [("run", False)]
        if rec.tracer is not None:
            plan.insert(phase % 2, ("run_traced", True))
        medians = {}
        for name, traced in plan:
            specs = [inputs.point(i) for i in range(self.loop_points)]
            records = rec.loop(name, [lambda s=s: session.run(s) for s in specs], traced)
            self.check_records(rec, specs, records)
            medians[name] = float(np.median(rec.times(name)[-len(specs):]))
        if rec.tracer is not None:
            rec.trace_overhead.append((medians["run_traced"] - medians["run"]) / medians["run"])


class AnnexCWorkload(Workload):
    """Cold grid, all-cached replays, half-cached grid, closed loop (cache off)."""

    #: Time values per grid: 2 strategies x 3 step counts x this = grid points.
    grid_times = 16
    #: All-cached replays of the cold grid in one timed ``reuse`` part.
    replays = 1

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.inputs = AnnexCInputs(seed)
        self.session: "Session | None" = None
        self.loop_session: "Session | None" = None
        self.last_job: "tuple[list, list]" = ([], [])

    def _grid_parts(self, rec) -> None:
        inputs = self.inputs
        times = inputs.times(self.grid_times)
        state = inputs.initial_state()

        cold = inputs.grid(times, state)
        cold_specs = [spec for _, spec in cold.expand()]
        cold_results = rec.part("cold", lambda: self.session.sweep(cold), len(cold_specs))
        self.after_cold()
        self.last_job = (cold_specs, self.check_records(rec, cold_specs, cold_results))
        known = {r.key: r.value for r in cold_results if r.ok}

        # The same points in other orders: each replay is a new job id for
        # the daemon, so it takes the cache-first path instead of dedup.
        reverse = times[::-1]
        warm = [inputs.grid(reverse[k:] + reverse[:k], state) for k in range(self.replays)]
        warm_specs = [spec for grid in warm for _, spec in grid.expand()]
        warm_results = rec.part(
            "reuse",
            lambda: [r for grid in warm for r in self.session.sweep(grid)],
            len(warm_specs),
        )
        self.check_records(rec, warm_specs, warm_results, expected=known)

        seen = self.inputs.rng.choice(len(times), len(times) // 2, replace=False)
        mixed_times = [times[i] for i in sorted(seen)] + list(inputs.times(len(times) // 2))
        mixed_times = tuple(inputs.rng.permutation(mixed_times).tolist())
        mixed = inputs.grid(mixed_times, state)
        mixed_specs = [spec for _, spec in mixed.expand()]
        mixed_results = rec.part("mixed", lambda: self.session.sweep(mixed), len(mixed_specs))
        self.check_records(rec, mixed_specs, mixed_results, expected=known)

    def after_cold(self) -> None:
        pass


class AnnexCLocal(AnnexCWorkload):
    name = "annexc-kernel-local"
    round_seconds = 2.75
    loop_points = 50
    grid_times = 16
    replays = 4

    def setup_once(self) -> float:
        return _setup_child("local", self.workdir)

    def bring_up(self) -> None:
        self.session = Session(cache=self.workdir / "cache")
        self.loop_session = Session(cache=False)

    def result_cache(self) -> ResultCache:
        return self.session.cache

    def round(self, rec, phase: int = 0) -> None:
        self._grid_parts(rec)
        self.closed_loop(rec, self.loop_session, self.inputs, phase)


class AnnexCDaemon(AnnexCWorkload):
    name = "annexc-kernel-daemon"
    round_seconds = 9.0
    loop_points = 24
    grid_times = 32
    replays = 2
    #: A single point is ~8 ms of work inside the client's 50 ms poll sleep,
    #: and jobs run on the daemon's threads between the client's polls:
    #: rescaled, the cold and reuse rates spread twice as wide across seeds.
    rescaled = False
    #: ``repro.service top --interval 0.25``: the dashboard's refresh while a
    #: cold job runs.  The poller sends what ``top`` sends per refresh except
    #: ``stats``: at the parent commit a ``stats`` op running beside chunk
    #: completions can lose a computed result (``ResultCache.stats()`` sweeps
    #: as orphans the arrays a concurrent ``put_encoded`` has written but not
    #: yet committed with its sidecar), and the benchmark must not fail.
    TOP_INTERVAL = 0.25

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.daemon_dir = workdir / "daemon"
        # Relative to the checkout root: a Unix socket path must stay short.
        self.socket = os.path.relpath(self.daemon_dir / "d.sock")
        self.proc: "subprocess.Popen | None" = None
        self.client: "ServiceClient | None" = None
        self._poller: "threading.Thread | None" = None
        self._polling = threading.Event()
        self.poll_latencies: "list[float]" = []

    def _spawn(self) -> "subprocess.Popen":
        self.daemon_dir.mkdir(parents=True, exist_ok=True)
        log = open(self.daemon_dir / "serve.log", "ab")
        try:
            return subprocess.Popen(
                [sys.executable, "-m", "repro.service", "serve",
                 "--workers", str(WORKERS), "--socket", self.socket,
                 "--service-dir", str(self.daemon_dir / "svc"),
                 "--cache-dir", str(self.daemon_dir / "cache")],
                stdout=log, stderr=log,
            )
        finally:
            log.close()

    def setup_once(self) -> float:
        self.close()
        start = time.perf_counter()
        self.proc = self._spawn()
        # Poll finely: the client's own connect backoff doubles up to 0.5 s
        # and would quantize the measured start-up time.
        deadline = start + 60.0
        while True:
            try:
                request(self.socket, "ping", timeout=5.0)
                break
            except ServiceConnectionError:
                if time.perf_counter() > deadline or self.proc.poll() is not None:
                    raise
                time.sleep(0.005)
        elapsed = time.perf_counter() - start
        self.client = ServiceClient(self.socket)
        return elapsed

    def bring_up(self) -> None:
        # The last set-up's daemon serves the run.
        self.session = Session(cache=False, executor=self.client)
        self.loop_session = self.session

    def _poll_like_top(self) -> None:
        with ServiceConnection(self.socket) as conn:
            while not self._polling.wait(self.TOP_INTERVAL):
                start = time.perf_counter()
                conn.request("series", last=64)
                conn.request("jobs")
                conn.request("workers")
                self.poll_latencies.append(time.perf_counter() - start)

    def round(self, rec, phase: int = 0) -> None:
        self._polling.clear()
        self._poller = threading.Thread(target=self._poll_like_top, daemon=True)
        self._poller.start()
        try:
            self._grid_parts(rec)
        finally:
            self.after_cold()
        self.closed_loop(rec, self.loop_session, self.inputs, phase)

    def after_cold(self) -> None:
        if self._poller is not None:
            self._polling.set()
            self._poller.join(timeout=30)
            self._poller = None

    def daemon_stats(self) -> dict:
        return self.client.stats()

    def result_cache(self) -> ResultCache:
        return ResultCache(self.daemon_dir / "cache")

    def close(self) -> None:
        self.after_cold()
        if self.proc is None:
            return
        try:
            self.client.shutdown_daemon()
            self.proc.wait(timeout=30)
        except Exception:  # noqa: BLE001 - any failure to stop cleanly ends in a kill
            self.proc.kill()
            self.proc.wait(timeout=30)
        self.proc = None


class HuboPool(Workload):
    name = "hubo-circuit-pool"
    round_seconds = 4.0
    loop_points = 40

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.inputs = HuboInputs(seed)
        self.session: "Session | None" = None
        self.last_job: "tuple[list, list]" = ([], [])

    def setup_once(self) -> float:
        return _setup_child("pool", self.workdir)

    def bring_up(self) -> None:
        self.session = Session(cache=False, executor=ProcessExecutor(WORKERS))

    def round(self, rec, phase: int = 0) -> None:
        grid = self.inputs.grid()
        grid_specs = [spec for _, spec in grid.expand()]
        grid_results = rec.part("cold", lambda: self.session.sweep(grid), len(grid_specs))
        self.last_job = (grid_specs, self.check_records(rec, grid_specs, grid_results))

        repeats = self.inputs.repeats()
        repeat_specs = [spec for _, spec in repeats.expand()]
        repeat_results = rec.part(
            "reuse", lambda: self.session.sweep(repeats), len(repeat_specs)
        )
        self.check_records(rec, repeat_specs, repeat_results)
        self.closed_loop(rec, self.session, self.inputs, phase)


WORKLOADS = {cls.name: cls for cls in (AnnexCLocal, HuboPool, AnnexCDaemon)}
