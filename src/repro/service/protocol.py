"""Wire protocol of the repro service: binary frames over a Unix socket.

Every exchange between a client (or worker) and the daemon is a sequence of
*frames*.  A connection may carry any number of request/response pairs; the
daemon answers each frame with exactly one frame.  Requests are
``{"op": <name>, ...fields}``; responses are ``{"ok": true, ...fields}`` or
``{"ok": false, "error": {"type", "message"}}``.

A frame is a JSON header plus raw *attachments*, laid out as

* an 8-byte prefix: the header's length and the attachment count, each a
  big-endian unsigned 32-bit integer;
* the header, the frame's dict as UTF-8 JSON;
* one big-endian unsigned 64-bit length per attachment;
* the attachments' bytes, back to back.

Any ``bytes``, ``bytearray`` or ``memoryview`` value in a frame travels as
an attachment: the header holds ``{"$attachment": i}`` in its place, and
:func:`recv_frame` puts a writable ``memoryview`` of the received bytes back
there.  A frame without attachments is just its header.

A successful outcome's result travels as one such value: :func:`outcome_to_wire`
replaces its ``result`` and ``arrays`` with an ``entry`` holding
:func:`repro.runtime.results.pack`'s bytes, the same bytes a cache entry
holds on disk, which is why the daemon serves a stored entry as it is.
:func:`outcome_from_wire` unpacks it into the outcome dict
:func:`repro.runtime.executor.execute_spec` produces; a received entry is
writable, so its arrays are views into the frame, not copies.  This framing
is ``PROTOCOL_VERSION`` 3.

Daemon, workers and clients agree on filesystem defaults through
:func:`default_service_dir` (``$REPRO_SERVICE_DIR`` or
``<cache root>/service``): the Unix socket, job state files and the shared
result cache namespace all live under it unless overridden.
"""

from __future__ import annotations

import json
import os
import socket
import struct
import time
from pathlib import Path
from typing import Any, BinaryIO

from repro.exceptions import ReproError
from repro.resilience import fault_point
from repro.runtime.results import pack, unpack

#: Bump when the frame schema changes shape; the daemon refuses mismatches
#: (2: a result travels as one packed ``entry``; 3: binary frames, the entry
#: an attachment).
PROTOCOL_VERSION = 3

#: Environment override for the service directory (socket + job state files).
SERVICE_DIR_ENV = "REPRO_SERVICE_DIR"

#: Hard cap on one frame's size, prefix and lengths included (a 24-qubit
#: complex statevector is 256 MiB; beyond that something is wrong with the
#: request, not the limit).  Every length a frame declares is checked
#: against it before anything is allocated.  A JSON-lines peer's first
#: bytes (``{"…``) read as a header of at least 0x7b000000 bytes, past it.
MAX_FRAME_BYTES = 1024**3

#: A frame's prefix (header length, attachment count) and one attachment's
#: length; see the module docstring.
_PREFIX, _LENGTH = struct.Struct(">II"), struct.Struct(">Q")

#: The header key that stands for an attachment.
_ATTACHMENT = "$attachment"


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
    """Write one frame and flush; every bytes-like value becomes an attachment.

    The prefix, header and lengths go out in one write, then each
    attachment as it is: a buffered stream passes a write larger than its
    buffer straight through, so no attachment is copied into a joined string.
    """
    attachments: "list[memoryview]" = []

    def attach(value):
        if not isinstance(value, (bytes, bytearray, memoryview)):
            raise TypeError(f"a {type(value).__name__} cannot travel in a frame")
        attachments.append(memoryview(value).cast("B"))
        return {_ATTACHMENT: len(attachments) - 1}

    header = json.dumps(
        payload, separators=(",", ":"), ensure_ascii=True, default=attach
    ).encode("ascii")
    stream.write(b"".join([
        _PREFIX.pack(len(header), len(attachments)),
        header,
        struct.pack(f">{len(attachments)}Q", *map(len, attachments)),
    ]))
    for attachment in attachments:
        stream.write(attachment)
    stream.flush()


def _fill(stream: BinaryIO, buffer, what: str, *, eof_ok: bool = False) -> bool:
    """Fill ``buffer`` from ``stream``; ``False`` only on a clean EOF when allowed.

    A stream that ends part way raises :class:`ServiceConnectionError`: the
    peer went away mid-frame.
    """
    view, got = memoryview(buffer), 0
    while got < len(view):
        count = stream.readinto(view[got:])
        if not count:
            if got == 0 and eof_ok:
                return False
            raise ServiceConnectionError(
                f"frame truncated in its {what}: {got} of {len(view)} bytes"
            )
        got += count
    return True


def recv_frame(stream: BinaryIO) -> "dict | None":
    """Read one frame; ``None`` on a clean EOF before any bytes.

    A frame that declares more than :data:`MAX_FRAME_BYTES` raises
    :class:`ServiceError` before anything is allocated for it, and so does
    a header that is not a JSON object with one placeholder per attachment.
    A frame cut short raises :class:`ServiceConnectionError`.
    """
    prefix = bytearray(_PREFIX.size)
    if not _fill(stream, prefix, "prefix", eof_ok=True):
        return None
    size, count = _PREFIX.unpack(prefix)
    if size + count * _LENGTH.size > MAX_FRAME_BYTES - _PREFIX.size:
        raise ServiceError(
            f"malformed frame: a {size}-byte header and {count} attachments "
            f"exceed {MAX_FRAME_BYTES} bytes"
        )
    header = bytearray(size)
    _fill(stream, header, "header")
    packed = bytearray(count * _LENGTH.size)
    _fill(stream, packed, "attachment lengths")
    lengths = struct.unpack(f">{count}Q", packed)
    if sum(lengths) > MAX_FRAME_BYTES - _PREFIX.size - size - len(packed):
        raise ServiceError(
            f"malformed frame: {count} attachments of {sum(lengths)} bytes "
            f"exceed {MAX_FRAME_BYTES} bytes"
        )
    body = memoryview(bytearray(sum(lengths)))
    _fill(stream, body, "attachments")
    views, offset = [], 0
    for length in lengths:
        views.append(body[offset:offset + length])
        offset += length
    return _decode_header(header, views)


def _decode_header(header: bytearray, views: "list[memoryview]") -> dict:
    """The frame's dict, each ``{"$attachment": i}`` replaced by ``views[i]``.

    A placeholder takes its view out of ``views``, so an index out of range,
    one named twice or an attachment named by none makes the frame malformed.
    """

    def placeholder(obj: dict):
        if _ATTACHMENT not in obj:
            return obj
        index = obj[_ATTACHMENT]
        if (
            len(obj) != 1
            or type(index) is not int
            or not 0 <= index < len(views)
            or views[index] is None
        ):
            raise ServiceError(f"malformed frame: bad attachment placeholder {obj!r}")
        view, views[index] = views[index], None
        return view

    try:
        payload = json.loads(header, object_hook=placeholder) if views else json.loads(header)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ServiceError(f"malformed frame: {exc}") from exc
    unnamed = sum(view is not None for view in views)
    if unnamed:
        raise ServiceError(
            f"malformed frame: {unnamed} of {len(views)} attachments named by no placeholder"
        )
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
    restarts at the cost of one (cheap, local) ``connect`` — the protocol
    itself supports multiplexing many frames per connection, which the
    daemon-side handler honours for clients that want it.  A response cut
    short mid-frame is a :class:`ServiceConnectionError`, like a dropped
    connection.
    ``connect_window`` is forwarded to :func:`connect`'s startup-race retry.
    """
    payload = {"op": op, "protocol": PROTOCOL_VERSION, **fields}
    sock = connect(socket_path, timeout=timeout, retry_window=connect_window)
    try:
        with sock.makefile("rwb") as stream:
            fault_point("protocol.send")
            send_frame(stream, payload)
            response = recv_frame(stream)
    except (OSError, ValueError, ServiceConnectionError) as exc:
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
    several ops per refresh several times a second, and the protocol
    explicitly supports many frames per connection.  This class
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
        except (OSError, ValueError, ServiceConnectionError) as exc:
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


def outcome_to_wire(outcome: dict) -> dict:
    """An ``execute_spec`` outcome for a frame: a success's result is one packed ``entry``."""
    if not outcome.get("ok"):
        return dict(outcome)
    wire = {k: v for k, v in outcome.items() if k not in ("result", "arrays")}
    wire["entry"] = pack(outcome["result"], outcome.get("arrays") or {})
    return wire


def outcome_from_wire(wire: dict) -> dict:
    """Inverse of :func:`outcome_to_wire` (the entry back to ``result``/``arrays``).

    A received entry is a writable view, so the arrays share its buffer.
    """
    outcome = dict(wire)
    if "entry" in outcome:
        header, outcome["arrays"] = unpack(outcome.pop("entry"))
        outcome["result"] = header["result"]
    return outcome
