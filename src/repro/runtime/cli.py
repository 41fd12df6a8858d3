"""``python -m repro.runtime`` — run specs, sweep grids, manage the cache.

Three subcommands::

    python -m repro.runtime run SPEC.json [--strategy S] [--backend B] ...
    python -m repro.runtime sweep SPEC.json [--workers N] [--out OUT.json] ...
    python -m repro.runtime cache {ls,stats,clear} [--dir DIR]

``SPEC.json`` is a serialized :class:`~repro.runtime.spec.RunSpec`,
:class:`~repro.runtime.spec.SweepSpec` or bare
:class:`~repro.compile.problem.SimulationProblem` (detected by shape); flags
override or supply the remaining fields.  Results print as a table, and
``--out`` writes the full :meth:`ResultSet.to_json` document.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.exceptions import ReproError


def _load_payload(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ReproError(f"spec file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ReproError(f"spec file {path} is not valid JSON: {exc}") from None


def _load_problem(payload: dict):
    from repro.compile.problem import SimulationProblem

    if "hamiltonian" in payload:
        return SimulationProblem.from_dict(payload)
    if "problem" in payload:
        return SimulationProblem.from_dict(payload["problem"])
    raise ReproError(
        "spec JSON must contain a problem (a SimulationProblem dict or a "
        "run/sweep spec with a 'problem' field)"
    )


def _make_session(args: argparse.Namespace, workers: int | None = None):
    from repro.runtime.session import Session

    cache: "bool | str | None"
    if getattr(args, "no_cache", False):
        cache = False
    else:
        cache = getattr(args, "cache_dir", None)
    return Session(
        cache=cache,
        executor=workers,
        progress=None if getattr(args, "quiet", False) else True,
    )


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the progress line"
    )
    parser.add_argument(
        "--trace", metavar="DIR", default=None,
        help="write span traces to DIR (enables tracing for this invocation; "
             "inspect with 'python -m repro.telemetry report DIR')",
    )


def _apply_trace_flag(args: argparse.Namespace) -> None:
    if getattr(args, "trace", None):
        import os

        from repro import telemetry

        # The env vars travel into pool workers regardless of start method.
        os.environ[telemetry.TRACE_ENV] = "1"
        os.environ[telemetry.TRACE_DIR_ENV] = str(args.trace)
        telemetry.configure(enabled=True, directory=args.trace)


def _csv(text: str) -> list[str]:
    return [item for item in (part.strip() for part in text.split(",")) if item]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.runtime.results import result_to_json
    from repro.runtime.spec import RunSpec

    _apply_trace_flag(args)
    payload = _load_payload(args.spec)
    if payload.get("spec") == "run":
        spec = RunSpec.from_dict(payload)
    else:
        spec = RunSpec(problem=_load_problem(payload))
    overrides = {}
    if args.strategy is not None:
        overrides["strategy"] = args.strategy
    if args.backend is not None:
        overrides["backend"] = args.backend
    run_kwargs = dict(spec.run_kwargs)
    if args.shots is not None:
        run_kwargs["shots"] = args.shots
    if args.seed is not None:
        run_kwargs["rng"] = args.seed
    if run_kwargs != spec.run_kwargs:
        overrides["run_kwargs"] = run_kwargs
    if overrides:
        from dataclasses import replace

        spec = replace(spec, **overrides)

    session = _make_session(args)
    record = session.run(spec)
    if record.error is not None:
        print(f"run FAILED ({record.error['type']}): {record.error['message']}")
        print(record.error["traceback"], file=sys.stderr)
        return 1
    source = "cache" if record.cached else f"computed in {record.wall_time:.3f}s"
    print(f"{spec.describe()}\n  key {record.key[:16]}… ({source})")
    encoded = result_to_json(record.value)
    if args.json:
        print(json.dumps(encoded, indent=2))
    else:
        kind = encoded.pop("kind")
        encoded.pop("arrays", None)
        summary = f"  result: {kind}"
        if kind == "sampling":
            top = sorted(encoded["counts"].items(), key=lambda kv: -kv[1])[:5]
            summary += f", {encoded['shots']} shots, top outcomes {dict(top)}"
        elif encoded:
            summary += f" {json.dumps(encoded)[:200]}"
        else:
            summary += f" ({type(record.value).__name__})"
        print(summary)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.runtime.spec import SweepSpec

    _apply_trace_flag(args)
    payload = _load_payload(args.spec)
    if payload.get("spec") == "sweep":
        spec = SweepSpec.from_dict(payload)
    else:
        axes: dict = {}
        if args.strategies:
            axes["strategies"] = tuple(_csv(args.strategies))
        if args.steps:
            axes["steps"] = tuple(int(s) for s in _csv(args.steps))
        if args.backend:
            axes["backend"] = args.backend
        if args.seed is not None:
            axes["seed"] = args.seed
        spec = SweepSpec(problem=_load_problem(payload), **axes)

    with _make_session(args, workers=args.workers) as session:
        results = session.sweep(spec)
    if args.json:
        # Structured output for scripts: the full ResultSet document on
        # stdout, nothing else.  The exit code still reflects failures.
        print(results.to_json())
    else:
        print(results.table())
        print(f"\n{results.summary()} (sweep key {results.sweep_key[:16]}…)")
    if args.out:
        Path(args.out).write_text(results.to_json())
        if not args.json:
            print(f"wrote {args.out}")
    # Any grid point that recorded a failure makes the whole invocation
    # nonzero, so CI pipelines cannot silently pass over a diverged point.
    return 0 if results.ok else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.runtime.cache import ResultCache

    cache = ResultCache(args.dir)
    if args.action == "stats":
        stats = cache.stats()
        print(f"cache {stats['directory']}")
        print(f"  entries     {stats['entries']}")
        print(f"  total bytes {stats['total_bytes']:,} "
              f"(cap {stats['max_bytes']:,})")
        return 0
    if args.action == "ls":
        entries = cache.entries()
        if not entries:
            print(f"cache {cache.directory} is empty")
            return 0
        for entry in entries:
            label = f"  {entry.label}" if entry.label else ""
            print(
                f"{entry.key[:16]}…  {entry.kind:<17} "
                f"{entry.size_bytes:>10,} B{label}"
            )
        print(f"{len(entries)} entries")
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.directory}")
        return 0
    raise ReproError(f"unknown cache action {args.action!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime",
        description="Run and sweep simulation problems with caching and fan-out.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one run spec (or problem) file")
    run.add_argument("spec", help="JSON file: RunSpec or SimulationProblem")
    run.add_argument("--strategy", default=None)
    run.add_argument("--backend", default=None)
    run.add_argument("--shots", type=int, default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--json", action="store_true", help="print the full result JSON")
    _add_cache_flags(run)
    run.set_defaults(fn=_cmd_run)

    sweep = sub.add_parser("sweep", help="execute a sweep spec (or problem) file")
    sweep.add_argument("spec", help="JSON file: SweepSpec or SimulationProblem")
    sweep.add_argument("--workers", type=int, default=None,
                       help="process-pool size (default: serial)")
    sweep.add_argument("--strategies", default=None, metavar="A,B",
                       help="comma-separated strategy axis (problem files only)")
    sweep.add_argument("--steps", default=None, metavar="1,2,4",
                       help="comma-separated Trotter-step axis (problem files only)")
    sweep.add_argument("--backend", default=None)
    sweep.add_argument("--seed", type=int, default=None,
                       help="root seed for sampling sweeps")
    sweep.add_argument("--out", default=None, metavar="OUT.json",
                       help="write the full ResultSet JSON here")
    sweep.add_argument("--json", action="store_true",
                       help="print the full ResultSet JSON to stdout "
                            "instead of the table")
    _add_cache_flags(sweep)
    sweep.set_defaults(fn=_cmd_sweep)

    cache = sub.add_parser("cache", help="inspect or clear the result cache")
    cache.add_argument("action", choices=("ls", "stats", "clear"))
    cache.add_argument("--dir", default=None,
                       help="cache directory (default: $REPRO_CACHE_DIR)")
    cache.set_defaults(fn=_cmd_cache)
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
