"""The telemetry tax: disabled tracing must cost under 2% of a sweep point.

Three measurements:

1. **The disabled path** (the headline claim): with ``REPRO_TRACE`` off,
   every instrumented region pays one :func:`repro.telemetry.span` call that
   returns the shared null singleton.  The benchmark times that call in a
   tight loop, multiplies by the spans a grid point traverses (point +
   compile + evolve + encode + cache get/put, with one span to spare), and
   asserts the product is ≤ 2% of a measured point's wall time.  The margin
   is enormous in practice — a null span is tens of nanoseconds against
   millisecond points — so a regression here means someone put real work on
   the disabled path.

2. **The disabled profiler** (asserted with the same budget): with
   ``REPRO_PROFILE`` unset, :func:`repro.telemetry.maybe_start_profiler` —
   called once per pool-worker initializer and worker entry point — must be
   a single raw environment lookup.  Timed per call and folded into the
   per-point overhead assertion (one call per point is already a gross
   overestimate of its real once-per-process cost).

3. **The enabled path** (recorded, not asserted): the same sweep run cold
   with tracing on vs. off, reporting the wall-clock ratio so the cost of
   turning tracing on stays visible in ``BENCH_telemetry.json``.

Run ``python benchmarks/bench_telemetry_overhead.py --quick`` for the
assertion-only CI mode (smaller loops, no JSON rewrite).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _entry in (str(_ROOT), str(_ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

import repro
from repro import telemetry
from repro.runtime import RunSpec, Session, SweepSpec, execute_spec

RESULT_PATH = Path(__file__).resolve().parent / "BENCH_telemetry.json"

#: Spans one grid point traverses end to end: execute.point, execute.compile,
#: execute.evolve, execute.encode, cache.get, cache.put.  Kept at one more
#: than that, so the 2% check stays at least as strict as when the pool
#: opened a seventh span.
SPANS_PER_POINT = 7

#: The claim: disabled tracing adds at most this fraction of a point's time.
OVERHEAD_CLAIM = 0.02


def _problem() -> "repro.SimulationProblem":
    return repro.SimulationProblem.from_labels(
        4, {"nsdI": 0.8, "IZZI": 0.3, "XIXI": 0.2}, time=0.3,
        name="telemetry-overhead",
    )


def measure_null_span_seconds(iterations: int) -> float:
    """Per-call cost of the disabled ``span()`` path (must be tiny)."""
    assert not telemetry.tracing_enabled(), "disabled-path bench needs tracing off"
    with telemetry.span("warmup"):
        pass
    start = time.perf_counter()
    for _ in range(iterations):
        with telemetry.span("execute.point", backend="statevector"):
            pass
    return (time.perf_counter() - start) / iterations


def measure_null_profiler_seconds(iterations: int) -> float:
    """Per-call cost of ``maybe_start_profiler()`` with ``REPRO_PROFILE`` unset."""
    import os

    assert os.environ.get("REPRO_PROFILE") is None, (
        "disabled-path bench needs REPRO_PROFILE unset"
    )
    telemetry.maybe_start_profiler()  # warmup
    start = time.perf_counter()
    for _ in range(iterations):
        telemetry.maybe_start_profiler()
    return (time.perf_counter() - start) / iterations


def measure_point_seconds(repeats: int) -> float:
    """Wall time of one representative grid point (fresh each repeat)."""
    payload = RunSpec(problem=_problem()).to_dict(canonical=True)
    execute_spec(payload)  # warm the program memo: steady-state cost
    start = time.perf_counter()
    for _ in range(repeats):
        outcome = execute_spec(payload)
        assert outcome["ok"]
    return (time.perf_counter() - start) / repeats


def measure_sweep_seconds(*, traced: bool, steps: "tuple[int, ...]") -> float:
    spec = SweepSpec(problem=_problem(), strategies=("direct", "pauli"),
                     steps=steps)
    workdir = Path(tempfile.mkdtemp(prefix="bench-telemetry-"))
    if traced:
        telemetry.configure(enabled=True, directory=workdir / "traces")
    try:
        start = time.perf_counter()
        results = Session(cache=False).sweep(spec)
        elapsed = time.perf_counter() - start
        assert results.ok
    finally:
        telemetry.reset()
    return elapsed


def run_bench(*, quick: bool = False) -> dict:
    iterations = 20_000 if quick else 200_000
    repeats = 5 if quick else 20
    steps = (1, 2) if quick else (1, 2, 4, 8)

    null_span_s = measure_null_span_seconds(iterations)
    null_profiler_s = measure_null_profiler_seconds(iterations)
    point_s = measure_point_seconds(repeats)
    # The profiler check runs once per worker process, but charging one call
    # per point keeps the claim conservative and the arithmetic simple.
    overhead_fraction = (
        SPANS_PER_POINT * null_span_s + null_profiler_s
    ) / point_s
    assert overhead_fraction <= OVERHEAD_CLAIM, (
        f"disabled telemetry costs {overhead_fraction:.2%} of a "
        f"{point_s * 1e3:.2f} ms point ({SPANS_PER_POINT} spans at "
        f"{null_span_s * 1e9:.0f} ns each plus a "
        f"{null_profiler_s * 1e9:.0f} ns profiler check); "
        f"the claim is <= {OVERHEAD_CLAIM:.0%}"
    )

    untraced_s = measure_sweep_seconds(traced=False, steps=steps)
    traced_s = measure_sweep_seconds(traced=True, steps=steps)

    import os

    payload = {
        "null_span_ns": round(null_span_s * 1e9, 1),
        "null_profiler_ns": round(null_profiler_s * 1e9, 1),
        "point_ms": round(point_s * 1e3, 3),
        "spans_per_point": SPANS_PER_POINT,
        "disabled_overhead_fraction": round(overhead_fraction, 6),
        "disabled_overhead_claim": OVERHEAD_CLAIM,
        "sweep_untraced_s": round(untraced_s, 4),
        "sweep_traced_s": round(traced_s, 4),
        "traced_over_untraced": round(traced_s / untraced_s, 3),
        "machine_cores": os.cpu_count(),
        "quick_mode": quick,
    }

    from benchmarks.conftest import print_table

    print_table(
        "repro.telemetry — tracing overhead",
        ["measurement", "value"],
        [
            ["null span (tracing off)", f"{null_span_s * 1e9:.0f} ns"],
            ["null profiler check", f"{null_profiler_s * 1e9:.0f} ns"],
            ["grid point", f"{point_s * 1e3:.2f} ms"],
            ["disabled overhead / point",
             f"{overhead_fraction:.4%} (claim <= {OVERHEAD_CLAIM:.0%})"],
            ["sweep, tracing off", f"{untraced_s:.3f} s"],
            ["sweep, tracing on",
             f"{traced_s:.3f} s ({traced_s / untraced_s:.2f}x)"],
        ],
    )
    return payload


def test_telemetry_overhead(benchmark):
    payload = run_bench(quick=False)
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {RESULT_PATH.name}")
    benchmark(measure_null_span_seconds, 10_000)


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
            f"quick mode: disabled tracing costs "
            f"{payload['disabled_overhead_fraction']:.4%} of a point "
            f"(claim <= {payload['disabled_overhead_claim']:.0%}); "
            f"enabled tracing ran the sweep at "
            f"{payload['traced_over_untraced']:.2f}x"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
