"""Set-up probe, run as a fresh interpreter: import, bring up, one accepted point.

Usage: ``python3 setup_child.py local|pool CACHE_DIR WORKERS``.  Prints
``ready`` once the first operation has been accepted and answered; the
parent times spawn-to-``ready``.
"""

import sys

import repro
from repro.runtime import ProcessExecutor, Session


def main() -> int:
    mode, cache_dir, workers = sys.argv[1], sys.argv[2], int(sys.argv[3])
    problem = repro.SimulationProblem.from_labels(2, {"XX": 0.5, "ZI": 0.3}, time=0.2)
    if mode == "local":
        record = Session(cache=cache_dir).run(problem, "direct", backend="kernel")
        ok = record.ok
    else:
        # Two points on a pool of ``workers``: the pool really starts.
        results = Session(cache=False, executor=ProcessExecutor(workers)).sweep(
            problem, strategies=("direct", "pauli"), backend="statevector"
        )
        ok = results.ok
    print("ready" if ok else "failed", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
