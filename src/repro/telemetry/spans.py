"""Context-var span tracing with per-process JSON-lines trace files.

A *span* is one timed region of the execution stack — a compile, a kernel
evolution, a cache lookup, a shared-memory export.  Spans nest through a
:mod:`contextvars` variable, so every span records its parent and a whole
sweep reconstructs as a tree: ``session.execute`` → ``pool.map_specs`` →
``execute.point`` → ``execute.evolve`` → ``compile.build`` — across process
boundaries, because the ``(trace_id, span_id)`` pair travels into pool
workers as a chunk argument and into service workers inside the claim
response (:func:`current_trace_context` / :func:`trace_context`).

Tracing is **off by default** and compiled to a no-op: :func:`span` returns a
shared :class:`_NullSpan` singleton unless ``REPRO_TRACE`` is truthy (or
:func:`configure` enabled it), so the instrumented hot paths pay one env-check
plus a dict build.  When enabled, every finished span appends one JSON line
to this process's trace file under ``REPRO_TRACE_DIR`` (default
``<cache root>/traces``) through a :class:`TraceWriter` that is

* **process-safe** — one file per pid, reopened after ``fork`` (the writer
  notices the pid change), so concurrent writers never interleave lines;
* **thread-safe** — daemon worker threads share one file under a lock, one
  unbuffered write per line;
* **crash-tolerant** — a SIGKILLed worker leaves at most one torn final
  line, which the reader skips (see :mod:`repro.telemetry.report`).

``python -m repro.telemetry report <dir>`` merges the per-process files back
into the per-phase breakdown.
"""

from __future__ import annotations

import contextvars
import json
import os
import secrets
import threading
import time
from pathlib import Path

#: Truthy values of ``REPRO_TRACE`` switch tracing on.
TRACE_ENV = "REPRO_TRACE"

#: Directory the per-process trace files land in.
TRACE_DIR_ENV = "REPRO_TRACE_DIR"

_TRUTHY = ("1", "true", "on", "yes")

# os.environ.get is a Python-level MutableMapping call (~1 µs) — too slow for
# a check that sits on every instrumented hot path.  On POSIX CPython the
# backing dict is reachable and stays in sync with putenv/monkeypatch, so the
# disabled path costs one plain dict lookup; anywhere else, fall back.
_ENV_KEY = TRACE_ENV.encode() if os.name == "posix" else TRACE_ENV
_ENV_DATA = getattr(os.environ, "_data", None) if os.name == "posix" else None


def _trace_env_value() -> "str | None":
    if _ENV_DATA is not None:
        raw = _ENV_DATA.get(_ENV_KEY)
        return None if raw is None else os.fsdecode(raw)
    return os.environ.get(TRACE_ENV)

#: The active span as a ``(trace_id, span_id)`` pair (``None``: no span).
_current: "contextvars.ContextVar[tuple[str, str] | None]" = contextvars.ContextVar(
    "repro_trace_span", default=None
)

# Programmatic overrides of the environment (None: follow the env).
_enabled_override: "bool | None" = None
_dir_override: "Path | None" = None


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def tracing_enabled() -> bool:
    """Whether spans record anything (``REPRO_TRACE`` or :func:`configure`)."""
    if _enabled_override is not None:
        return _enabled_override
    env = _trace_env_value()
    if not env:  # unset/empty: the hot production path — no string work
        return False
    return env.strip().lower() in _TRUTHY


def trace_dir() -> Path:
    """Where trace files go: the override, ``$REPRO_TRACE_DIR``, or the default."""
    if _dir_override is not None:
        return _dir_override
    env = os.environ.get(TRACE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    from repro.runtime.cache import default_cache_dir

    return default_cache_dir() / "traces"


def configure(
    enabled: "bool | None" = None, directory: "str | Path | None" = None
) -> None:
    """Programmatic override of ``REPRO_TRACE``/``REPRO_TRACE_DIR``.

    Overrides apply to *this* process (and, under ``fork``, to the workers
    of process pools started afterwards: a warm pool keeps the setting its
    workers copied when it started); set the environment variables instead
    when workers may be spawned fresh or a pool is already running, because
    a change to ``REPRO_*`` rebuilds the pool.  ``None`` arguments leave the
    corresponding setting alone.
    """
    global _enabled_override, _dir_override
    if enabled is not None:
        _enabled_override = bool(enabled)
    if directory is not None:
        _dir_override = Path(directory).expanduser()


def reset() -> None:
    """Drop every override, close the writer and return to env-driven config."""
    global _enabled_override, _dir_override
    _enabled_override = None
    _dir_override = None
    _writer.close()
    _current.set(None)


# ---------------------------------------------------------------------------
# The trace writer
# ---------------------------------------------------------------------------


class TraceWriter:
    """Append-only JSONL writer: one file per process, one write per line.

    The file is opened lazily (first span) and unbuffered, so every record is
    a single ``write(2)`` and a crash can tear at most the final line.  After
    a ``fork`` the inherited writer notices the pid change and opens a fresh
    file — two processes never share a descriptor.
    """

    def __init__(self, directory: "str | Path | None" = None):
        self._directory = Path(directory).expanduser() if directory else None
        self._lock = threading.Lock()
        self._file = None
        self._pid: "int | None" = None
        self.path: "Path | None" = None

    def _ensure(self):
        pid = os.getpid()
        if self._file is None or self._pid != pid:
            if self._file is not None:  # forked child: drop the parent's handle
                try:
                    self._file.close()
                except OSError:  # pragma: no cover - close of a dead fd
                    pass
            directory = self._directory if self._directory is not None else trace_dir()
            directory.mkdir(parents=True, exist_ok=True)
            self.path = directory / f"trace-{pid}-{secrets.token_hex(4)}.jsonl"
            self._file = open(self.path, "ab", buffering=0)
            self._pid = pid
        return self._file

    def write(self, record: dict) -> None:
        line = (json.dumps(record, separators=(",", ":")) + "\n").encode()
        with self._lock:
            try:
                self._ensure().write(line)
            except (OSError, ValueError):
                # A full disk or unwritable directory must never take the
                # computation down with it; the trace is best-effort.
                pass

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                try:
                    self._file.close()
                except OSError:  # pragma: no cover - already gone
                    pass
            self._file = None
            self._pid = None


#: The process-wide writer every span records through.
_writer = TraceWriter()


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class _NullSpan:
    """The disabled path: a shared, do-nothing context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class Span:
    """One timed region: name, parent link, wall/CPU time, free-form attrs."""

    __slots__ = (
        "name",
        "attrs",
        "trace_id",
        "span_id",
        "parent_id",
        "_token",
        "_start_wall",
        "_start_perf",
        "_start_cpu",
    )

    def __init__(self, name: str, attrs: dict):
        self.name = name
        self.attrs = attrs
        self.span_id = secrets.token_hex(8)
        self.trace_id: "str | None" = None
        self.parent_id: "str | None" = None
        self._token = None

    def set(self, **attrs) -> "Span":
        """Attach attributes mid-span (e.g. an outcome discovered late)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        parent = _current.get()
        if parent is not None:
            self.trace_id, self.parent_id = parent
        else:
            self.trace_id = secrets.token_hex(16)
        self._token = _current.set((self.trace_id, self.span_id))
        self._start_wall = time.time()
        self._start_cpu = time.process_time()
        self._start_perf = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall = time.perf_counter() - self._start_perf
        cpu = time.process_time() - self._start_cpu
        if self._token is not None:
            _current.reset(self._token)
        record = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "pid": os.getpid(),
            "start": round(self._start_wall, 6),
            "wall": round(wall, 9),
            "cpu": round(cpu, 9),
        }
        if exc_type is not None:
            record["error"] = True
        if self.attrs:
            record["attrs"] = {str(k): _jsonable(v) for k, v in self.attrs.items()}
        _writer.write(record)
        return False


def span(name: str, **attrs):
    """A context manager timing one region — or the no-op when tracing is off.

    ::

        with span("execute.evolve", backend="kernel") as sp:
            value = program.run(...)
            sp.set(dim=value.dim)
    """
    if not tracing_enabled():
        return _NULL_SPAN
    return Span(name, attrs)


# ---------------------------------------------------------------------------
# Cross-process propagation
# ---------------------------------------------------------------------------


def current_trace_context() -> "dict | None":
    """The active ``{"trace_id", "span_id"}`` to ship to a worker, or ``None``."""
    if not tracing_enabled():
        return None
    active = _current.get()
    if active is None:
        return None
    return {"trace_id": active[0], "span_id": active[1]}


class _ContextHandle:
    __slots__ = ("_token",)

    def __init__(self, token):
        self._token = token

    def __enter__(self) -> "_ContextHandle":
        return self

    def __exit__(self, *exc) -> bool:
        if self._token is not None:
            _current.reset(self._token)
        return False


def trace_context(context: "dict | None"):
    """Adopt a remote parent span (worker side of :func:`current_trace_context`).

    Spans opened inside the ``with`` block parent onto the shipped span, so a
    pool or service worker's work attaches to the submitting session's trace.
    A ``None``/empty context (or tracing disabled) is a no-op.
    """
    if not context or not tracing_enabled():
        return _ContextHandle(None)
    trace_id = context.get("trace_id")
    span_id = context.get("span_id")
    if not trace_id or not span_id:
        return _ContextHandle(None)
    return _ContextHandle(_current.set((str(trace_id), str(span_id))))
