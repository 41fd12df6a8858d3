"""Shared helpers: machine-speed calibration, statistics, the per-run recorder.

Calibration: on a shared host the CPU speed a run sees drifts by tens of
percent over tens of seconds, far more than the changes the benchmark must
resolve.  A fixed kernel (:func:`calibrate`) is timed right before and after
every timed part, and CPU-bound end-to-end figures are reported at the
reference speed at which that kernel takes :data:`CALIBRATION_REFERENCE_S`:
a rate is multiplied, a duration divided, by ``calibration / reference``.
The raw figures are printed next to them.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import time

import numpy as np

from repro.telemetry import metrics


#: Seconds the calibration kernel takes on the reference machine.
CALIBRATION_REFERENCE_S = 0.010


def _calibration_kernel() -> None:
    """Fixed CPU work shaped like the workloads: hashing canonical JSON,
    small complex array updates, plain interpreter loops."""
    doc = {"terms": [[i, 0.5 * i, "nsZI"] for i in range(64)], "steps": 3}
    for i in range(100):
        hashlib.sha256(json.dumps({**doc, "t": i * 1e-3}, sort_keys=True).encode()).digest()
    state = np.ones(1024, dtype=complex)
    for _ in range(300):
        state = state * (0.6 + 0.8j) + state[::-1].conj()
    total = 0
    for i in range(25000):
        total += i * i % 7


def calibrate() -> float:
    """Seconds the calibration kernel takes now (the fastest of three shots)."""
    shots = []
    for _ in range(3):
        start = time.perf_counter()
        _calibration_kernel()
        shots.append(time.perf_counter() - start)
    return min(shots)


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> "tuple[float, float, int]":
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, sample_count)``: ``value`` is the largest
    sample that still has ten larger samples after it in sorted order, and
    ``percentile`` is its rank as a percentage.  With fewer than eleven
    samples there is no such percentile; the maximum is returned at 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (``RUSAGE_CHILDREN``: the largest reaped child)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


#: ``prctl`` option that makes orphaned descendants children of the caller.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the parent of every orphaned descendant (Linux; elsewhere a no-op).

    A multiprocessing resource tracker outlives the process that started
    it (the set-up probes, the daemon, this process); as our adopted
    children they can be waited for by :func:`stop_descendants`.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _child_pids() -> "list[int]":
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                # The command name may hold spaces; fields resume after ')'.
                ppid = stat.read().rsplit(")", 1)[1].split()[1]
        except (OSError, IndexError):
            continue
        if ppid == me:
            pids.append(int(entry))
    return pids


def stop_descendants(timeout: float = 30.0) -> None:
    """Stop this process's resource tracker and wait until every child has ended.

    Children (adopted orphans too) get ``timeout`` seconds to exit on their
    own; whatever is left then is killed.  Returns once none is left.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except Exception:  # noqa: BLE001 - a tracker that is gone needs no stopping
            pass
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for pid in _child_pids():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def same_value(a, b) -> bool:
    """Bit-identical comparison of two decoded backend results."""
    if type(a) is not type(b):
        return False
    counts = getattr(a, "counts", None)
    if counts is not None:
        return counts == b.counts and a.shots == b.shots
    data_a, data_b = np.asarray(a.data), np.asarray(b.data)
    return data_a.dtype == data_b.dtype and np.array_equal(data_a, data_b)


class Recorder:
    """Everything one run measures: part timings, latencies, correctness, ledger.

    A *part* is one timed client call that completes a known number of
    points (a sweep, a job).  Correctness is tallied per point: every point
    a part produced is checked exactly once, and a failed or mismatched
    point counts into ``failed``.
    """

    def __init__(self, tracer=None):
        #: Spans (see ``tracing.Tracer``) are installed only around timed
        #: client calls, so oracle checks never show up in them.
        self.tracer = tracer
        self.traced_points = 0
        #: Program counters (``metrics.snapshot()``) accumulated over traced calls.
        self.counters: "dict[str, float]" = {}
        #: part -> [(points, seconds, calibration seconds)] per round
        self.parts: "dict[str, list[tuple[int, float, float]]]" = {}
        #: loop -> [(seconds, calibration seconds)] per single-point call
        self.latencies: "dict[str, list[tuple[float, float]]]" = {}
        self.trace_overhead: "list[float]" = []
        self.attempted = 0
        self.failed = 0
        self.failures: "list[str]" = []
        # Client wall time and the per-point ledger's sum over the same calls.
        self.ledger_wall = 0.0
        self.ledger_timed = 0.0

    def _timed(self, fn, points: int, traced: bool):
        traced = traced and self.tracer is not None
        if traced:
            self.tracer.install()
            self.traced_points += points
            before = metrics.snapshot()["counters"]
        try:
            start = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - start
        finally:
            if traced:
                self.tracer.remove()
        if traced:
            for name, value in metrics.snapshot()["counters"].items():
                self.counters[name] = self.counters.get(name, 0) + value - before.get(name, 0)
        self._ledger(result, elapsed)
        return result, elapsed

    def part(self, name: str, fn, points: int):
        """Run ``fn`` (one client call completing ``points`` points), timed."""
        gc.collect()  # the oracle's garbage is not the next part's cost
        before = calibrate()
        result, elapsed = self._timed(fn, points, traced=True)
        speed = (before + calibrate()) / 2
        self.parts.setdefault(name, []).append((points, elapsed, speed))
        return result

    def loop(self, name: str, fns, traced: bool = True) -> list:
        """Single-point calls back to back (a closed loop); each one timed."""
        gc.collect()
        before = calibrate()
        timed = [self._timed(fn, 1, traced) for fn in fns]
        speed = (before + calibrate()) / 2
        self.latencies.setdefault(name, []).extend((t, speed) for _, t in timed)
        return [result for result, _ in timed]

    def _ledger(self, result, elapsed: float) -> None:
        records = [result] if hasattr(result, "timings") else list(result or ())
        self.ledger_wall += elapsed
        self.ledger_timed += sum(
            sum((getattr(r, "timings", None) or {}).values()) for r in records
        )

    def verify(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def rates(self, name: str, normalized: bool = True) -> "list[float]":
        """Points per second in part ``name``, one value per round."""
        return [
            points / seconds * (cal / CALIBRATION_REFERENCE_S if normalized else 1.0)
            for points, seconds, cal in self.parts[name]
        ]

    def times(self, name: str, normalized: bool = True) -> "list[float]":
        """Seconds per single-point call in loop ``name``."""
        return [
            seconds * (CALIBRATION_REFERENCE_S / cal if normalized else 1.0)
            for seconds, cal in self.latencies[name]
        ]

    def calibrations(self) -> "list[float]":
        return [cal for runs in self.parts.values() for *_, cal in runs]
