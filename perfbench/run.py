"""Layered benchmark of the sweep stack: compile -> runtime -> pool -> daemon -> client.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``annexc-kernel-local``, ``hubo-circuit-pool``,
``annexc-kernel-daemon`` (see ``perfbench/README.md``).  With ``--trace 0``
the end-to-end metrics are measured with no spans installed; with
``--trace 1`` the same rounds run with spans around each layer's entry
points, followed by the per-layer probes.  Human-readable lines go to
stdout first; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every result is checked against
the serial oracle; the exit code is 1 if any point failed or differed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def _prepare_environment(workdir: Path) -> None:
    """Import the checkout's sources and keep every file the run writes inside it."""
    os.chdir(ROOT)
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "tmp").mkdir(parents=True)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "default-cache")
    os.environ["REPRO_SERVICE_DIR"] = str(workdir / "default-service")
    os.environ["TMPDIR"] = str(workdir / "tmp")


def _rounds(rec, part: str, scaled: bool) -> str:
    raw = " ".join(f"{rate:.1f}" for rate in rec.rates(part, normalized=False))
    head = f"{rec.parts[part][0][0]} pts/round; per round"
    if not scaled:
        return f"{head} (raw, not rescaled): {raw}"
    rescaled = " ".join(f"{rate:.1f}" for rate in rec.rates(part))
    return f"{head}: {rescaled}; raw: {raw}"


def end_to_end(workload, rec, setups) -> "tuple[dict, list[str]]":
    from common import CALIBRATION_REFERENCE_S, median, peak_rss_mb, tail

    scaled = workload.rescaled
    run = rec.times("run", normalized=scaled)
    tail_s, tail_pct, n = tail(run)
    values = {
        "setup_s": median([s * CALIBRATION_REFERENCE_S / cal for s, cal in setups]),
        "cold_pts_per_s": median(rec.rates("cold", normalized=scaled)),
        "reuse_pts_per_s": median(rec.rates("reuse", normalized=scaled)),
        "run_p50_ms": 1e3 * median(run),
        "run_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": peak_rss_mb(),
        "child_peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
    }
    raw_run = rec.times("run", normalized=False)
    notes = {
        "setup_s": "raw: " + " ".join(f"{s:.3f}" for s, _ in setups),
        "cold_pts_per_s": _rounds(rec, "cold", scaled),
        "reuse_pts_per_s": _rounds(rec, "reuse", scaled),
        "run_p50_ms": f"{n} closed-loop runs; raw {1e3 * median(raw_run):.3f}"
                      + ("" if scaled else " (not rescaled)"),
        "run_tail_ms": f"p{tail_pct:.1f} of {n}, 10 beyond it; raw {1e3 * tail(raw_run)[0]:.3f}",
    }
    lines = [f"  {name:20s} {value:12.4f}  {notes.get(name, '')}" for name, value in values.items()]
    # Figures that not every workload has: printed, not bounded.
    if "mixed" in rec.parts:
        mixed = median(rec.rates("mixed", normalized=scaled))
        lines.append(f"  {'mixed_pts_per_s':20s} {mixed:12.4f}  "
                     f"{_rounds(rec, 'mixed', scaled)} (half cached, not bounded)")
    polls = getattr(workload, "poll_latencies", None)
    if polls:
        p_tail, p_pct, p_n = tail(polls)
        lines.append(f"  {'top_poll_p50_ms':20s} {1e3 * median(polls):12.4f}  "
                     f"{p_n} series+jobs+workers refreshes during cold jobs (raw, not bounded)")
        lines.append(f"  {'top_poll_tail_ms':20s} {1e3 * p_tail:12.4f}  "
                     f"p{p_pct:.1f} of {p_n} refreshes (raw, not bounded)")
    cal = rec.calibrations()
    lines.append(f"  {'calibration_ms':20s} {1e3 * median(cal):12.4f}  kernel time, "
                 f"{1e3 * min(cal):.2f}-{1e3 * max(cal):.2f} over the run "
                 f"(reference {1e3 * CALIBRATION_REFERENCE_S:.1f})")
    lines.append(f"  {'failed_frac':20s} {rec.failed / max(rec.attempted, 1):12.4f}  "
                 f"{rec.failed} of {rec.attempted} points failed or differed from the oracle")
    return values, lines


def per_layer(workload, rec, tracer, probed, stats) -> dict:
    from common import median

    values = dict(probed)
    counters = rec.counters
    if hasattr(workload, "daemon_stats"):
        counters = stats["metrics"]["counters"]

    def ratio(num: str, *den: str) -> float:
        total = sum(counters.get(name, 0) for name in den)
        return counters.get(num, 0) / total if total else 0.0

    values["runtime.cache.hit_ratio"] = ratio("cache.hits", "cache.hits", "cache.misses")
    values["compile.memo_hit_ratio"] = ratio(
        "compile.memo_hits", "compile.memo_hits", "compile.memo_misses"
    )
    values["runtime.executor.fused_ratio"] = ratio("batch.points_fused", "batch.points_total")
    values["service.stats.points_executed"] = stats["points"]["executed"]
    values["service.stats.points_from_cache"] = stats["points"]["from_cache"]
    values["service.stats.dedup_hits"] = stats["points"]["dedup_hits"]
    values["service.stats.lease_losses"] = stats["metrics"]["counters"].get(
        "service.lease_losses", 0
    )
    values["ledger.unattributed_frac"] = (rec.ledger_wall - rec.ledger_timed) / rec.ledger_wall
    values["trace.overhead_frac"] = median(rec.trace_overhead)
    values["machine.calibration_ms"] = 1e3 * median(rec.calibrations())
    values["trace.session_self_ms_per_pt"] = (
        1e3 * tracer.self_seconds("session") / rec.traced_points
    )
    return values


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_run" / args.workload
    _prepare_environment(workdir)
    # A terminated run still stops its daemon and pool (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    from catalogue import MOVES
    from common import Recorder, adopt_orphans, calibrate, median, stop_descendants
    from tracing import Tracer
    from workloads import CORES, WORKERS, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}

    workload = WORKLOADS[args.workload](args.seed, workdir)
    tracer = Tracer() if args.trace else None
    rec = Recorder(tracer)
    rounds = max(1, round(args.seconds / workload.round_seconds))
    adopt_orphans()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            before = calibrate()
            seconds = workload.setup_once()
            setups.append((seconds, (before + calibrate()) / 2))
        workload.bring_up()
        start = time.perf_counter()
        for phase in range(rounds):
            workload.round(rec, phase)
        measured = time.perf_counter() - start
        if args.trace:
            from probes import run_probes

            probed, stats = run_probes(workload)
            if hasattr(workload, "daemon_stats"):
                stats = workload.daemon_stats()
    finally:
        try:
            workload.close()
        finally:
            # Every process the run started, and every one they left behind.
            stop_descendants()

    print(f"workload {workload.name}  seed {args.seed}  rounds {rounds} in {measured:.1f} s  "
          f"machine_cores {CORES}  workers {WORKERS}  trace {args.trace}")
    if args.trace:
        values = per_layer(workload, rec, tracer, probed, stats)
        print(f"  {'per-layer metric':40s} {'value':>12s} {'unit':6s}  layer -> should move (workload)")
        for name in units:
            layer, moves, where = MOVES[name]
            print(f"  {name:40s} {values.get(name, float('nan')):12.4f} {units[name]:6s}  "
                  f"{layer} -> {moves} ({where})")
        print(f"  spans over {rec.traced_points} traced points "
              f"(trace overhead, median of rounds: {median(rec.trace_overhead):.4f}):")
        print("\n".join(tracer.table(rec.traced_points)))
    else:
        values, lines = end_to_end(workload, rec, setups)
        print("\n".join(lines))
    for failure in rec.failures:
        print(f"  FAILED: {failure}")
    shutil.rmtree(workdir, ignore_errors=True)

    if set(values) != set(units):
        raise SystemExit(
            f"perfbench: measured {sorted(set(values) ^ set(units))} do not match "
            f"BENCHMARK.json's {kind} list"
        )
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0 if rec.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
