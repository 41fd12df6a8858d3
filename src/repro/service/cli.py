"""``python -m repro.service`` — run the daemon, join the fleet, manage jobs.

Subcommands::

    python -m repro.service serve    [--socket P] [--workers N] [--chunk-size K]
                                     [--metrics-port PORT]
    python -m repro.service worker   [--connect P] [--id ID] [--max-idle S]
    python -m repro.service submit   SPEC.json [--priority P] [--wait] [--out F]
    python -m repro.service status   JOB [--json] [--points]
    python -m repro.service result   JOB [--out F] [--json]
    python -m repro.service cancel   JOB
    python -m repro.service jobs
    python -m repro.service workers
    python -m repro.service stats    [--json]
    python -m repro.service top      [--interval S] [--count N] [--json]
    python -m repro.service health   [--json]
    python -m repro.service shutdown

``SPEC.json`` is a serialized RunSpec, SweepSpec or bare SimulationProblem
(same shapes ``python -m repro.runtime`` accepts).  ``JOB`` is a job id or
any unambiguous prefix of one.  Every subcommand accepts ``--socket`` to
target a non-default daemon — including one forwarded from another machine.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

from repro.exceptions import ReproError


def _client(args: argparse.Namespace):
    from repro.service.client import ServiceClient

    return ServiceClient(args.socket)


def _add_socket_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--socket", default=None, metavar="PATH",
        help="daemon socket (default: $REPRO_SERVICE_DIR/daemon.sock)",
    )


def _load_spec_payload(path: str) -> dict:
    try:
        payload = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ReproError(f"spec file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ReproError(f"spec file {path} is not valid JSON: {exc}") from None
    if payload.get("spec") in ("run", "sweep"):
        return payload
    if "hamiltonian" in payload:  # a bare problem becomes a single run
        return {"spec": "run", "problem": payload}
    raise ReproError(
        "spec JSON must be a RunSpec, a SweepSpec or a bare SimulationProblem"
    )


def _age(seconds: "float | None") -> str:
    if seconds is None:
        return "—"
    return f"{seconds:.1f}s"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.daemon import Daemon

    daemon = Daemon(
        args.socket,
        service_dir=args.service_dir,
        cache=args.cache_dir,
        local_workers=args.workers,
        chunk_size=args.chunk_size,
        lease_seconds=args.lease,
        metrics_port=args.metrics_port,
    )
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: daemon.request_stop())
    print(
        f"repro daemon listening on {daemon.socket_path} "
        f"({args.workers} local worker(s), cache {daemon.cache.directory})",
        file=sys.stderr,
    )
    # start() explicitly (rather than serve_forever) so the metrics port —
    # possibly ephemeral (--metrics-port 0) — can be announced once bound.
    daemon.start()
    if daemon.metrics_server is not None:
        print(f"serving metrics at {daemon.metrics_server.url}", file=sys.stderr)
    try:
        while daemon.running:
            time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        daemon.shutdown()
    print("repro daemon stopped", file=sys.stderr)
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.runtime.shm import pin_blas_threads
    from repro.service.protocol import default_socket_path
    from repro.service.worker import run_worker

    # A fleet of workers parallelizes across processes; each process keeps
    # its BLAS single-threaded so the fleet never oversubscribes the box.
    pin_blas_threads(1)
    socket_path = args.connect or args.socket or default_socket_path()
    return run_worker(
        socket_path,
        worker_id=args.id,
        poll_interval=args.poll,
        max_idle=args.max_idle,
        reconnect_window=args.reconnect,
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    client = _client(args)
    ack = client.submit(_load_spec_payload(args.spec), priority=args.priority)
    origin = "deduplicated against an existing job" if ack["deduped"] else "queued"
    print(f"job {ack['job_id'][:16]}… {origin} "
          f"(state {ack['state']}, {ack['total']} point(s), "
          f"{ack['cached']} from cache)")
    if not args.wait:
        return 0
    status = client.wait(ack["job_id"], progress=_progress_line(args))
    return _emit_result(client, status["job_id"], args)


def _progress_line(args: argparse.Namespace):
    if getattr(args, "quiet", False):
        return None

    def report(done: int, total: int) -> None:
        end = "\n" if done == total else "\r"
        print(f"  [{done}/{total}] points complete", end=end,
              file=sys.stderr, flush=True)

    return report


def _cmd_status(args: argparse.Namespace) -> int:
    status = _client(args).status(args.job, points=args.points)
    if args.json:
        print(json.dumps(status, indent=2))
        return 0
    print(f"job   {status['job_id']}")
    print(f"state {status['state']}  ({status['kind']}, priority {status['priority']})")
    print(f"points {status['done']}/{status['total']} done, "
          f"{status['failed']} failed, {status['cancelled']} cancelled, "
          f"{status['cached']} from cache")
    if status.get("error"):
        print(f"error {status['error']['type']}: {status['error']['message']}")
    if args.points:
        for point in status.get("points", []):
            print(f"  {point['key'][:12]}…  {point['status']:<9} "
                  f"{point.get('label') or ''}")
    return 0 if status["state"] != "failed" else 1


def _emit_result(client, job_id: str, args: argparse.Namespace) -> int:
    from repro.runtime.results import result_to_json

    records = client.records(job_id)
    failed = [r for r in records if not r["ok"]]
    document = {
        "job_id": job_id,
        "num_records": len(records),
        "num_failed": len(failed),
        "records": [
            {
                "key": r["key"],
                "coords": r["coords"],
                "label": r["label"],
                "cached": r["cached"],
                "wall_time": r["wall_time"],
                "error": r["error"],
                **({"value": result_to_json(r["value"])} if r["ok"] else {}),
            }
            for r in records
        ],
    }
    if getattr(args, "out", None):
        Path(args.out).write_text(json.dumps(document, indent=2))
        print(f"wrote {args.out}")
    if getattr(args, "json", False):
        print(json.dumps(document, indent=2))
    else:
        for record in records:
            status = "cached" if record["cached"] else (
                "ok" if record["ok"] else record["error"]["type"])
            label = record["label"] or record["key"][:12] + "…"
            print(f"  {label:<28} {status}")
        print(f"{len(records)} records, {len(failed)} failed")
    return 1 if failed else 0


def _cmd_result(args: argparse.Namespace) -> int:
    return _emit_result(_client(args), args.job, args)


def _cmd_cancel(args: argparse.Namespace) -> int:
    ack = _client(args).cancel(args.job)
    changed = "cancelled" if ack["changed"] else f"already {ack['state']}"
    print(f"job {ack['job_id'][:16]}… {changed}")
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    jobs = _client(args).jobs()
    if not jobs:
        print("no jobs")
        return 0
    now = time.time()
    for job in jobs:
        print(f"{job['job_id'][:16]}…  {job['state']:<9} {job['kind']:<5} "
              f"{job['done']}/{job['total']} done  "
              f"age {_age(now - job['created'])}  {job.get('label') or ''}")
    return 0


def _cmd_workers(args: argparse.Namespace) -> int:
    workers = _client(args).workers()
    if not workers:
        print("no workers have reported yet")
        return 0
    now = time.time()
    for info in workers:
        state = "busy" if info["busy"] else "idle"
        print(f"{info['worker_id']:<24} {info['kind']:<7} {state:<5} "
              f"{info['points_completed']} points, "
              f"{info['chunks_completed']} chunks, "
              f"{info['lost_leases']} lost leases, "
              f"seen {_age(now - info['last_seen'])} ago")
    return 0


def _render_stats(stats: dict) -> None:
    queue, points, workers = stats["queue"], stats["points"], stats["workers"]
    hit_rate = points["hit_rate"]
    print(f"daemon pid {stats['pid']}, up {stats['uptime']:.1f}s")
    print(f"queue   {queue['chunks_pending']} chunks pending "
          f"({queue['points_pending']} points), "
          f"{queue['chunks_leased']} leased")
    print("jobs    " + ", ".join(
        f"{count} {state}" for state, count in stats["jobs"].items() if count))
    print(f"points  {points['executed']} executed, "
          f"{points['from_cache']} from cache "
          f"(hit rate {'—' if hit_rate is None else f'{hit_rate:.0%}'}), "
          f"{points['dedup_hits']} dedup hits")
    print(f"workers {workers['total']} seen, {workers['busy']} busy "
          f"(utilization {workers['utilization']:.0%})")
    print(f"cache   {stats['cache']['entries']} entries, "
          f"{stats['cache']['total_bytes']:,} B at {stats['cache']['directory']}")
    phases = stats.get("phases") or {}
    if phases:
        split = ", ".join(
            f"{name} {seconds:.2f}s" for name, seconds in sorted(phases.items()))
        print(f"phases  {split}")
    counters = (stats.get("metrics") or {}).get("counters") or {}
    if counters:
        line = ", ".join(
            f"{name}={int(value)}" for name, value in sorted(counters.items()))
        print(f"metrics {line}")
    histograms = (stats.get("metrics") or {}).get("histograms") or {}
    for name in sorted(histograms):
        h = histograms[name]
        print(f"timing  {name}: n={h['count']} "
              f"p50={h['p50']:.4g} p90={h.get('p90', h['p95']):.4g} "
              f"p99={h.get('p99', h['max']):.4g} max={h['max']:.4g}")
    resilience = stats.get("resilience")
    if resilience is not None:
        print(f"resilience {int(resilience.get('retries', 0))} retries, "
              f"{int(resilience.get('fallbacks', 0))} fallbacks, "
              f"{int(resilience.get('timeouts', 0))} timeouts, "
              f"{int(resilience.get('faults_injected', 0))} faults injected")


def _cmd_stats(args: argparse.Namespace) -> int:
    stats = _client(args).stats()
    if args.json:
        print(json.dumps(stats, indent=2))
    else:
        _render_stats(stats)
    return 0


# ---------------------------------------------------------------------------
# top — the live fleet dashboard
# ---------------------------------------------------------------------------

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def _sparkline(values: "list[float]", width: int = 32) -> str:
    """The last ``width`` values as a one-line unicode sparkline."""
    values = [max(0.0, float(v)) for v in values][-width:]
    if not values:
        return ""
    peak = max(values)
    if peak <= 0:
        return _SPARK_CHARS[0] * len(values)
    scale = len(_SPARK_CHARS) - 1
    return "".join(
        _SPARK_CHARS[min(scale, int(round(v / peak * scale)))] for v in values
    )


def _progress_bar(done: int, total: int, width: int = 24) -> str:
    total = max(total, 1)
    filled = int(round(width * min(done, total) / total))
    return "[" + "#" * filled + "." * (width - filled) + "]"


def _eta(pending: int, points_per_second: float) -> str:
    if pending <= 0:
        return "done"
    if points_per_second <= 0:
        return "—"
    seconds = pending / points_per_second
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


def _render_top(stats: dict, series: dict, jobs: "list[dict]",
                workers: "list[dict]") -> None:
    samples = series.get("samples", [])
    latest = samples[-1] if samples else {}
    derived = latest.get("derived", {})
    pps = float(derived.get("points_per_second") or 0.0)
    hit_rate = derived.get("cache_hit_rate")
    trend = [s.get("derived", {}).get("points_per_second") or 0.0 for s in samples]

    print(f"repro top — daemon pid {stats['pid']}, up {stats['uptime']:.0f}s, "
          f"{len(samples)} samples @ {series.get('interval', 1.0):g}s")
    hit = "—" if hit_rate is None else f"{hit_rate:.0%}"
    print(f"throughput {pps:8.1f} points/s  {_sparkline(trend)}")
    queue = stats["queue"]
    print(f"queue      {queue['points_pending']} points pending "
          f"({queue['chunks_pending']} chunks), {queue['chunks_leased']} chunks "
          f"leased, cache hit rate {hit}")
    total_workers = len(workers)
    busy = sum(1 for w in workers if w["busy"])
    lost = sum(w["lost_leases"] for w in workers)
    print(f"workers    {busy}/{total_workers} busy "
          f"{_progress_bar(busy, max(total_workers, 1), 16)}  "
          f"{lost} lost lease(s)")

    active = [j for j in jobs if j["state"] in ("queued", "running")]
    recent = [j for j in jobs if j["state"] not in ("queued", "running")][-3:]
    if active or recent:
        print()
        print(f"{'job':<18} {'state':<9} {'points':>11} {'':<26} {'eta':>6}")
        for job in active + recent:
            done, total = job["done"], job["total"]
            pending = total - done - job["failed"] - job["cancelled"]
            eta = _eta(pending, pps) if job["state"] == "running" else ""
            print(f"{job['job_id'][:16] + '…':<18} {job['state']:<9} "
                  f"{done:>5}/{total:<5} {_progress_bar(done, total):<26} "
                  f"{eta:>6}")

    phases = stats.get("phases") or {}
    if phases:
        total_phase = sum(phases.values()) or 1.0
        split = "  ".join(
            f"{name} {seconds / total_phase:.0%}"
            for name, seconds in sorted(phases.items(), key=lambda kv: -kv[1]))
        print()
        print(f"phases     {split}")
    resilience = stats.get("resilience") or {}
    print(f"resilience {int(resilience.get('retries', 0))} retries, "
          f"{int(resilience.get('fallbacks', 0))} fallbacks, "
          f"{int(resilience.get('timeouts', 0))} timeouts, "
          f"{int(resilience.get('faults_injected', 0))} faults injected")


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.service.protocol import ServiceConnection

    iteration = 0
    # One held-open connection: top polls four ops per refresh, so a fresh
    # socket per op would quadruple the daemon's accept load for nothing.
    try:
        with ServiceConnection(args.socket, connect_window=5.0) as conn:
            while True:
                stats = conn.request("stats")
                series = conn.request("series", last=64)
                jobs = conn.request("jobs")["jobs"]
                workers = conn.request("workers")["workers"]
                if args.json:
                    print(json.dumps({
                        "stats": stats, "series": series,
                        "jobs": jobs, "workers": workers,
                    }, indent=2))
                else:
                    if iteration:
                        # Clear and re-home so the dashboard redraws in place.
                        print("\x1b[2J\x1b[H", end="")
                    _render_top(stats, series, jobs, workers)
                iteration += 1
                if args.count is not None and iteration >= args.count:
                    return 0
                time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    except BrokenPipeError:
        # Downstream closed (top | head, a dying pager): exit quietly, and
        # point stdout at devnull so the interpreter's shutdown flush does
        # not raise the same error again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _cmd_health(args: argparse.Namespace) -> int:
    health = _client(args).health()
    if args.json:
        print(json.dumps(health, indent=2))
        return 0 if health["healthy"] else 1
    queue, reaper, cache = health["queue"], health["reaper"], health["cache"]
    verdict = "healthy" if health["healthy"] else "DEGRADED"
    print(f"daemon pid {health['pid']}, up {health['uptime']:.1f}s — {verdict}")
    print(f"queue   {queue['chunks_pending']} chunks pending "
          f"({queue['points_pending']} points), "
          f"{queue['chunks_leased']} leased ({queue['points_leased']} points)")
    print(f"workers {health['workers']['total']} seen, "
          f"{health['workers']['busy']} busy, "
          f"{health['workers']['local']} local")
    reaper_state = "ok" if reaper["ok"] else "LAGGING"
    print(f"reaper  {reaper_state}, last pass {reaper['lag_seconds']:.2f}s ago "
          f"(interval {reaper['interval_seconds']:.2f}s)")
    cache_state = "writable" if cache["writable"] else (
        f"NOT WRITABLE ({cache.get('error')})")
    print(f"cache   {cache_state} at {cache['directory']}")
    print(f"shm     {'enabled' if health['shm']['enabled'] else 'disabled'}")
    resilience = health.get("resilience") or {}
    print(f"resilience {int(resilience.get('retries', 0))} retries, "
          f"{int(resilience.get('fallbacks', 0))} fallbacks, "
          f"{int(resilience.get('timeouts', 0))} timeouts, "
          f"{int(resilience.get('faults_injected', 0))} faults injected")
    return 0 if health["healthy"] else 1


def _cmd_shutdown(args: argparse.Namespace) -> int:
    _client(args).shutdown_daemon()
    print("daemon stopping")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Simulation-as-a-service: job-queue daemon and worker fleet "
        "over the repro runtime.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the daemon in the foreground")
    _add_socket_flag(serve)
    serve.add_argument("--service-dir", default=None, metavar="DIR",
                       help="state directory (default: $REPRO_SERVICE_DIR)")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="shared result cache (default: $REPRO_CACHE_DIR)")
    serve.add_argument("--workers", type=int, default=1,
                       help="in-daemon worker threads (0: external only)")
    serve.add_argument("--chunk-size", type=int, default=2,
                       help="grid points per claimable chunk")
    serve.add_argument("--lease", type=float, default=60.0,
                       help="chunk lease seconds before re-queue")
    serve.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                       help="serve Prometheus text exposition on "
                       "http://127.0.0.1:PORT/metrics (0: ephemeral port)")
    serve.set_defaults(fn=_cmd_serve)

    worker = sub.add_parser("worker", help="join a daemon as an external worker")
    worker.add_argument("--connect", default=None, metavar="PATH",
                        help="daemon socket to drain (alias of --socket)")
    _add_socket_flag(worker)
    worker.add_argument("--id", default=None, help="worker identity "
                        "(default: hostname-pid)")
    worker.add_argument("--poll", type=float, default=0.2,
                        help="seconds between claims while idle")
    worker.add_argument("--max-idle", type=float, default=None,
                        help="exit after this many idle seconds")
    worker.add_argument("--reconnect", type=float, default=5.0,
                        metavar="SECONDS",
                        help="seconds to ride out daemon unreachability "
                        "(with backoff) before exiting; 0 fails fast")
    worker.set_defaults(fn=_cmd_worker)

    submit = sub.add_parser("submit", help="queue a run/sweep spec file")
    submit.add_argument("spec", help="JSON file: RunSpec, SweepSpec or problem")
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument("--wait", action="store_true",
                        help="block until the job finishes and print results")
    submit.add_argument("--out", default=None, metavar="OUT.json",
                        help="with --wait: write the result document here")
    submit.add_argument("--json", action="store_true",
                        help="with --wait: print the result document")
    submit.add_argument("--quiet", action="store_true",
                        help="suppress the progress line")
    _add_socket_flag(submit)
    submit.set_defaults(fn=_cmd_submit)

    status = sub.add_parser("status", help="one job's state and progress")
    status.add_argument("job", help="job id (or unambiguous prefix)")
    status.add_argument("--json", action="store_true")
    status.add_argument("--points", action="store_true",
                        help="also list per-point statuses")
    _add_socket_flag(status)
    status.set_defaults(fn=_cmd_status)

    result = sub.add_parser("result", help="fetch a finished job's results")
    result.add_argument("job", help="job id (or unambiguous prefix)")
    result.add_argument("--out", default=None, metavar="OUT.json")
    result.add_argument("--json", action="store_true")
    _add_socket_flag(result)
    result.set_defaults(fn=_cmd_result)

    cancel = sub.add_parser("cancel", help="cancel a queued/running job")
    cancel.add_argument("job", help="job id (or unambiguous prefix)")
    _add_socket_flag(cancel)
    cancel.set_defaults(fn=_cmd_cancel)

    jobs = sub.add_parser("jobs", help="list every job the daemon knows")
    _add_socket_flag(jobs)
    jobs.set_defaults(fn=_cmd_jobs)

    workers = sub.add_parser("workers", help="list the daemon's worker fleet")
    _add_socket_flag(workers)
    workers.set_defaults(fn=_cmd_workers)

    stats = sub.add_parser("stats", help="queue/jobs/cache/worker metrics")
    stats.add_argument("--json", action="store_true")
    _add_socket_flag(stats)
    stats.set_defaults(fn=_cmd_stats)

    top = sub.add_parser(
        "top", help="live dashboard: throughput trend, job ETAs, workers")
    top.add_argument("--interval", type=float, default=1.0, metavar="SECONDS",
                     help="seconds between refreshes")
    top.add_argument("--count", type=int, default=None, metavar="N",
                     help="stop after N refreshes (non-interactive use)")
    top.add_argument("--json", action="store_true",
                     help="print the raw stats/series/jobs/workers documents")
    _add_socket_flag(top)
    top.set_defaults(fn=_cmd_top)

    health = sub.add_parser(
        "health", help="degradation probe (exit 1 when degraded)")
    health.add_argument("--json", action="store_true")
    _add_socket_flag(health)
    health.set_defaults(fn=_cmd_health)

    shutdown = sub.add_parser("shutdown", help="stop the daemon")
    _add_socket_flag(shutdown)
    shutdown.set_defaults(fn=_cmd_shutdown)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    from repro.telemetry import configure_logging

    configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
