"""The resilience tax: disabled fault points must cost under 2% of a point.

Two measurements:

1. **The disabled path** (the headline claim): with ``REPRO_FAULTS`` unset,
   every instrumented site pays one :func:`repro.resilience.fault_point`
   call that sees the null plan and returns immediately.  The benchmark
   times that call in a tight loop, multiplies by the sites a grid point
   traverses (worker.execute + cache.get + cache.put, with two sites to
   spare), and asserts the product is ≤ 2% of a measured
   point's wall time.  A regression here means someone put real work on the
   disabled path — the whole design hinges on production sweeps not paying
   for the chaos harness they are not running.

2. **The armed-but-unmatched path** (recorded, not asserted): the same call
   with a plan installed that targets a *different* site, reporting the
   per-call cost of the rule scan so it stays visible in
   ``BENCH_resilience.json``.

Run ``python benchmarks/bench_resilience_overhead.py --quick`` for the
assertion-only CI mode (smaller loops, no JSON rewrite).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _entry in (str(_ROOT), str(_ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

import repro
from repro import resilience
from repro.runtime import RunSpec, execute_spec

RESULT_PATH = Path(__file__).resolve().parent / "BENCH_resilience.json"

#: Fault sites one grid point traverses end to end: worker.execute,
#: cache.get, cache.put.  Kept at two more than that, so the 2% check stays
#: at least as strict as when the pool had a fifth site and the cache a
#: fourth (the two-file entry's ``cache.put.torn``).
SITES_PER_POINT = 5

#: The claim: disabled fault points add at most this fraction of a point.
OVERHEAD_CLAIM = 0.02


def _problem() -> "repro.SimulationProblem":
    return repro.SimulationProblem.from_labels(
        4, {"nsdI": 0.8, "IZZI": 0.3, "XIXI": 0.2}, time=0.3,
        name="resilience-overhead",
    )


def measure_disabled_fault_point_seconds(iterations: int) -> float:
    """Per-call cost of ``fault_point`` with no plan installed (must be tiny)."""
    resilience.configure_faults(None)
    assert not resilience.faults_enabled(), "disabled-path bench needs faults off"
    resilience.fault_point("worker.execute")  # warmup
    start = time.perf_counter()
    for _ in range(iterations):
        resilience.fault_point("worker.execute")
    return (time.perf_counter() - start) / iterations


def measure_unmatched_fault_point_seconds(iterations: int) -> float:
    """Per-call cost with a plan armed for a *different* site (rule scan)."""
    resilience.configure_faults("cache.get:raise=EIO@after=10000000")
    try:
        resilience.fault_point("worker.execute")  # warmup
        start = time.perf_counter()
        for _ in range(iterations):
            resilience.fault_point("worker.execute")
        return (time.perf_counter() - start) / iterations
    finally:
        resilience.configure_faults(None)


def measure_point_seconds(repeats: int) -> float:
    """Wall time of one representative grid point (fresh each repeat)."""
    payload = RunSpec(problem=_problem()).to_dict(canonical=True)
    execute_spec(payload)  # warm the program memo: steady-state cost
    start = time.perf_counter()
    for _ in range(repeats):
        outcome = execute_spec(payload)
        assert outcome["ok"]
    return (time.perf_counter() - start) / repeats


def run_bench(*, quick: bool = False) -> dict:
    iterations = 20_000 if quick else 200_000
    repeats = 5 if quick else 20

    disabled_s = measure_disabled_fault_point_seconds(iterations)
    unmatched_s = measure_unmatched_fault_point_seconds(iterations)
    point_s = measure_point_seconds(repeats)
    overhead_fraction = SITES_PER_POINT * disabled_s / point_s
    assert overhead_fraction <= OVERHEAD_CLAIM, (
        f"disabled fault points cost {overhead_fraction:.2%} of a "
        f"{point_s * 1e3:.2f} ms point ({SITES_PER_POINT} sites at "
        f"{disabled_s * 1e9:.0f} ns each); the claim is <= {OVERHEAD_CLAIM:.0%}"
    )

    import os

    payload = {
        "disabled_fault_point_ns": round(disabled_s * 1e9, 1),
        "unmatched_fault_point_ns": round(unmatched_s * 1e9, 1),
        "point_ms": round(point_s * 1e3, 3),
        "sites_per_point": SITES_PER_POINT,
        "disabled_overhead_fraction": round(overhead_fraction, 6),
        "disabled_overhead_claim": OVERHEAD_CLAIM,
        "machine_cores": os.cpu_count(),
        "quick_mode": quick,
    }

    from benchmarks.conftest import print_table

    print_table(
        "repro.resilience — fault-point overhead",
        ["measurement", "value"],
        [
            ["fault_point (no plan)", f"{disabled_s * 1e9:.0f} ns"],
            ["fault_point (armed, other site)", f"{unmatched_s * 1e9:.0f} ns"],
            ["grid point", f"{point_s * 1e3:.2f} ms"],
            ["disabled overhead / point",
             f"{overhead_fraction:.4%} (claim <= {OVERHEAD_CLAIM:.0%})"],
        ],
    )
    return payload


def test_resilience_overhead(benchmark):
    payload = run_bench(quick=False)
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {RESULT_PATH.name}")
    benchmark(measure_disabled_fault_point_seconds, 10_000)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller loops, assert the claim, do not rewrite the JSON",
    )
    args = parser.parse_args(argv)
    payload = run_bench(quick=args.quick)
    if not args.quick:
        RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {RESULT_PATH.name}")
    else:
        print(
            f"quick mode: disabled fault points cost "
            f"{payload['disabled_overhead_fraction']:.4%} of a point "
            f"(claim <= {payload['disabled_overhead_claim']:.0%}); armed "
            f"plans scan at {payload['unmatched_fault_point_ns']:.0f} ns/site"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
