"""Wire protocol of the repro service: JSON-lines frames over a Unix socket.

Every exchange between a client (or worker) and the daemon is a sequence of
*frames*: one JSON object per line, UTF-8, newline-terminated.  A connection
may carry any number of request/response pairs; the daemon answers each frame
with exactly one frame.  Requests are ``{"op": <name>, ...fields}``;
responses are ``{"ok": true, ...fields}`` or ``{"ok": false, "error":
{"type", "message"}}``.

A successful outcome's result cannot ride in plain JSON (its arrays are raw
bytes), so :func:`outcome_to_wire` replaces its ``result`` and ``arrays`` with
one ``entry`` field: the base64 of :func:`repro.runtime.results.pack`'s bytes,
the same bytes a cache entry holds on disk, which is why the daemon can serve
a stored entry without decoding it.  :func:`outcome_from_wire` unpacks it into
the outcome dict :func:`repro.runtime.executor.execute_spec` produces.  That
entry codec is ``PROTOCOL_VERSION`` 2.

Daemon, workers and clients agree on filesystem defaults through
:func:`default_service_dir` (``$REPRO_SERVICE_DIR`` or
``<cache root>/service``): the Unix socket, job state files and the shared
result cache namespace all live under it unless overridden.
"""

from __future__ import annotations

import binascii
import json
import os
import socket
import time
from pathlib import Path
from typing import Any, BinaryIO

from repro.exceptions import ReproError
from repro.resilience import fault_point
from repro.runtime.results import pack, unpack

#: Bump when the frame schema changes shape; the daemon refuses mismatches
#: (2: a result travels as one packed ``entry``).
PROTOCOL_VERSION = 2

#: Environment override for the service directory (socket + job state files).
SERVICE_DIR_ENV = "REPRO_SERVICE_DIR"

#: Hard cap on one frame's size (a 24-qubit complex statevector is ~512 MiB
#: of base64; beyond that something is wrong with the request, not the limit).
MAX_FRAME_BYTES = 1024**3


class ServiceError(ReproError):
    """Raised for service-level failures (bad frames, daemon refusals)."""


class ServiceConnectionError(ServiceError):
    """Raised when the daemon socket cannot be reached (or went away)."""


class RemoteError(ServiceError):
    """An error the daemon reported in a response frame.

    Carries the remote exception's type name so callers can branch on it
    without string-matching the message.
    """

    def __init__(self, error: dict):
        self.type = error.get("type", "ServiceError")
        self.message = error.get("message", "")
        super().__init__(f"{self.type}: {self.message}")


# ---------------------------------------------------------------------------
# Filesystem defaults
# ---------------------------------------------------------------------------


def default_service_dir() -> Path:
    """``$REPRO_SERVICE_DIR`` if set, else ``<cache root>/service``."""
    env = os.environ.get(SERVICE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    from repro.runtime.cache import default_cache_dir

    return default_cache_dir() / "service"


def default_socket_path(service_dir: "str | Path | None" = None) -> Path:
    """The daemon's Unix socket inside the service directory."""
    root = Path(service_dir).expanduser() if service_dir else default_service_dir()
    return root / "daemon.sock"


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------


def send_frame(stream: BinaryIO, payload: dict) -> None:
    """Write one newline-terminated JSON frame and flush."""
    line = json.dumps(payload, separators=(",", ":"), ensure_ascii=True)
    stream.write(line.encode("utf-8") + b"\n")
    stream.flush()


def recv_frame(stream: BinaryIO) -> "dict | None":
    """Read one frame; ``None`` on a clean EOF before any bytes."""
    line = stream.readline(MAX_FRAME_BYTES)
    if not line:
        return None
    if not line.endswith(b"\n") and len(line) >= MAX_FRAME_BYTES:
        raise ServiceError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ServiceError(f"malformed frame: {exc}") from exc
    if not isinstance(payload, dict):
        raise ServiceError(f"frame must be a JSON object, got {type(payload).__name__}")
    return payload


def connect(
    socket_path: "str | Path",
    *,
    timeout: "float | None" = 30.0,
    retry_window: float = 0.0,
) -> socket.socket:
    """A connected Unix-domain stream socket, or :class:`ServiceConnectionError`.

    ``retry_window`` covers the daemon-startup race: a socket that does not
    exist yet (``FileNotFoundError``) or is bound but not listening
    (``ECONNREFUSED``) is retried with short doubling backoff for up to that
    many seconds before giving up — so a ``submit`` launched right after
    ``serve`` waits for the daemon instead of flaking.  The default ``0.0``
    keeps single-shot semantics: callers that *want* a fast "daemon gone"
    answer (the worker's idle exit) are unaffected.
    """
    if not hasattr(socket, "AF_UNIX"):  # pragma: no cover - non-POSIX platforms
        raise ServiceError("repro.service requires Unix-domain sockets (AF_UNIX)")
    deadline = time.monotonic() + max(0.0, retry_window)
    backoff = 0.02
    while True:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        try:
            sock.connect(str(socket_path))
            return sock
        except OSError as exc:
            sock.close()
            startup_race = isinstance(exc, (FileNotFoundError, ConnectionRefusedError))
            if not startup_race or time.monotonic() >= deadline:
                raise ServiceConnectionError(
                    f"cannot reach the repro daemon at {socket_path}: {exc}"
                ) from exc
        time.sleep(min(backoff, max(0.0, deadline - time.monotonic())))
        backoff = min(backoff * 2, 0.5)


def request(
    socket_path: "str | Path",
    op: str,
    *,
    timeout: "float | None" = 30.0,
    connect_window: float = 0.0,
    **fields: Any,
) -> dict:
    """One round trip on a fresh connection; raises :class:`RemoteError` on failure.

    A fresh connection per request keeps every caller robust against daemon
    restarts at the cost of one (cheap, local) ``connect`` — the JSON-lines
    protocol itself supports multiplexing many frames per connection, which
    the daemon-side handler honours for clients that want it.
    ``connect_window`` is forwarded to :func:`connect`'s startup-race retry.
    """
    payload = {"op": op, "protocol": PROTOCOL_VERSION, **fields}
    sock = connect(socket_path, timeout=timeout, retry_window=connect_window)
    try:
        with sock.makefile("rwb") as stream:
            fault_point("protocol.send")
            send_frame(stream, payload)
            response = recv_frame(stream)
    except (OSError, ValueError) as exc:
        raise ServiceConnectionError(
            f"request {op!r} to {socket_path} failed mid-flight: {exc}"
        ) from exc
    finally:
        sock.close()
    if response is None:
        raise ServiceConnectionError(
            f"daemon at {socket_path} closed the connection without answering {op!r}"
        )
    if not response.get("ok"):
        raise RemoteError(response.get("error", {}))
    return response


class ServiceConnection:
    """One held-open connection multiplexing many request/response frames.

    :func:`request` opens a fresh socket per op — simple and restart-proof
    for one-shot callers, but a poller like ``repro.service top`` issues
    several ops per refresh several times a second, and the JSON-lines
    protocol explicitly supports many frames per connection.  This class
    keeps a single socket open, sends one frame per :meth:`request`, and
    reconnects lazily on the next call after the daemon drops it — so a
    daemon restart costs the poller one failed refresh, not a crash.

    Not thread-safe by design (frames would interleave); give each polling
    thread its own connection.  Usable as a context manager.
    """

    def __init__(
        self,
        socket_path: "str | Path | None" = None,
        *,
        timeout: "float | None" = 30.0,
        connect_window: float = 0.0,
    ):
        self.socket_path = (
            Path(socket_path).expanduser() if socket_path else default_socket_path()
        )
        self.timeout = timeout
        self.connect_window = float(connect_window)
        self._sock: "socket.socket | None" = None
        self._stream = None

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def _ensure_stream(self):
        if self._stream is None:
            self._sock = connect(
                self.socket_path,
                timeout=self.timeout,
                retry_window=self.connect_window,
            )
            self._stream = self._sock.makefile("rwb")
        return self._stream

    def request(self, op: str, **fields: Any) -> dict:
        """One frame out, one frame back, on the held-open connection."""
        payload = {"op": op, "protocol": PROTOCOL_VERSION, **fields}
        try:
            stream = self._ensure_stream()
            send_frame(stream, payload)
            response = recv_frame(stream)
        except (OSError, ValueError) as exc:
            self.close()
            raise ServiceConnectionError(
                f"request {op!r} on the held connection to "
                f"{self.socket_path} failed: {exc}"
            ) from exc
        if response is None:
            self.close()
            raise ServiceConnectionError(
                f"daemon at {self.socket_path} closed the connection "
                f"without answering {op!r}"
            )
        if not response.get("ok"):
            raise RemoteError(response.get("error", {}))
        return response

    def close(self) -> None:
        """Drop the socket (idempotent); the next request reconnects."""
        stream, self._stream = self._stream, None
        sock, self._sock = self._sock, None
        for closable in (stream, sock):
            if closable is not None:
                try:
                    closable.close()
                except OSError:
                    pass

    def __enter__(self) -> "ServiceConnection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Outcome codec
# ---------------------------------------------------------------------------


def entry_to_wire(entry: bytes) -> str:
    """Packed result bytes as a wire outcome's ``entry`` string (base64)."""
    return binascii.b2a_base64(entry, newline=False).decode("ascii")


def outcome_to_wire(outcome: dict) -> dict:
    """An ``execute_spec`` outcome made JSON-safe: a success's result is one ``entry``."""
    if not outcome.get("ok"):
        return dict(outcome)
    wire = {k: v for k, v in outcome.items() if k not in ("result", "arrays")}
    wire["entry"] = entry_to_wire(pack(outcome["result"], outcome.get("arrays") or {}))
    return wire


def outcome_from_wire(wire: dict) -> dict:
    """Inverse of :func:`outcome_to_wire` (the entry back to ``result``/``arrays``)."""
    outcome = dict(wire)
    if "entry" in outcome:
        header, outcome["arrays"] = unpack(binascii.a2b_base64(outcome.pop("entry")))
        outcome["result"] = header["result"]
    return outcome
