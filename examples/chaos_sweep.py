"""Chaos engineering for sweeps: inject faults, finish anyway, prove it.

1. run a small sampling sweep fault-free and serially — the reference;
2. arm a deterministic fault plan via ``REPRO_FAULTS``: one pool worker is
   SIGKILLed mid-point (fleet-wide ``@once`` through the shared state
   directory), and every cache write fails as if the disk were full;
3. run the same sweep on the resilient 2-worker :class:`ProcessExecutor` —
   the watchdog restarts the killed pool, cache puts degrade to "computed
   but not stored";
4. verify the chaos run's results are bit-identical to the reference;
5. print the ``resilience.*`` counters that made every absorbed fault
   visible.

Run with ``python examples/chaos_sweep.py``.
"""

import os
import tempfile
from pathlib import Path

import numpy as np

import repro
from repro import resilience
from repro.runtime import ProcessExecutor, SweepSpec
from repro.runtime.executor import execute_spec
from repro.telemetry import metrics
from repro.utils.serialization import canonical_json


def main() -> None:
    # ------------------------------------------------------------------ 1.
    problem = repro.SimulationProblem.from_labels(
        4, {"nsdI": 0.8, "IZZI": 0.3}, time=0.3, name="chaos-demo",
    )
    sweep = SweepSpec(
        problem=problem,
        strategies=("direct", "pauli"),
        steps=(1, 2, 4, 8),
        backend="sampling",
        run_kwargs={"shots": 256},
        seed=11,
        name="chaos-grid",
    )
    payloads = [spec.to_dict() for _, spec in sweep.expand()]
    reference = [execute_spec(payload) for payload in payloads]
    print(f"reference: {len(reference)} points, fault-free and serial")

    # ------------------------------------------------------------------ 2.
    state = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    plan = (
        f"state={state};seed=3;"
        "worker.execute:kill@once;"
        "cache.put:raise=ENOSPC"
    )
    os.environ[resilience.FAULTS_ENV] = plan  # inherited by pool workers
    resilience.reset_process()
    print(f"armed {resilience.FAULTS_ENV}={plan}")

    # ------------------------------------------------------------------ 3.
    try:
        executor = ProcessExecutor(2, point_timeout=60.0, max_restarts=2)
        outcomes = executor.map_specs(payloads)
    finally:
        del os.environ[resilience.FAULTS_ENV]
        resilience.configure_faults(None)

    # ------------------------------------------------------------------ 4.
    assert len(outcomes) == len(reference)
    for got, want in zip(outcomes, reference):
        assert got["ok"], got.get("error")
        assert canonical_json(got["result"]) == canonical_json(want["result"])
        for name in want.get("arrays") or {}:
            np.testing.assert_array_equal(
                np.asarray(got["arrays"][name]), np.asarray(want["arrays"][name])
            )
    print(f"chaos run: all {len(outcomes)} points bit-identical to the reference")
    assert (state / "worker.execute.0.fired").exists()
    print("the SIGKILL really fired (fleet-wide marker claimed) — the pool "
          "was killed and restarted mid-sweep")

    # ------------------------------------------------------------------ 5.
    print("\nresilience counters (what the sweep absorbed):")
    for name in ("resilience.retries", "resilience.timeouts"):
        print(f"  {name:<28} {metrics.counter(name)}")
    print("(workers count their own fallbacks/faults in-process; a service "
          "daemon aggregates them fleet-wide via `repro-service health`)")


if __name__ == "__main__":
    main()
