"""Wire protocol: frames, the entry codec and outcome round-trips."""

from __future__ import annotations

import io
import logging
import socket
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from repro.runtime.results import pack
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    ServiceConnectionError,
    ServiceError,
    default_service_dir,
    default_socket_path,
    outcome_from_wire,
    outcome_to_wire,
    recv_frame,
    request,
    send_frame,
)

from _service_helpers import wait_until


def frame(header: bytes, *attachments: bytes, lengths=None) -> bytes:
    """A frame's bytes, laid out by hand: prefix, header, lengths, attachments."""
    lengths = [len(a) for a in attachments] if lengths is None else lengths
    return b"".join([
        struct.pack(">II", len(header), len(lengths)),
        header,
        struct.pack(f">{len(lengths)}Q", *lengths),
        *attachments,
    ])


def sent(payload: dict) -> bytes:
    buffer = io.BytesIO()
    send_frame(buffer, payload)
    return buffer.getvalue()


#: A payload with attachments nested in lists and dicts, one of them empty,
#: given as bytes, bytearray and memoryview (of a float array).
NESTED = {
    "op": "complete",
    "outcomes": [
        {"ok": True, "entry": b"\x00\x01\x02", "coords": {"t": 0.5}},
        {"ok": True, "entry": bytearray(b"")},
        {"ok": False, "error": {"type": "X", "message": "m"}},
    ],
    "extra": {"nested": [memoryview(np.arange(4.0)), b"tail"]},
}


def plain(value):
    """``value`` with every attachment view as ``bytes``, for comparison."""
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, list):
        return [plain(item) for item in value]
    if isinstance(value, (bytes, bytearray, memoryview)):
        return bytes(value)
    return value


def views(value):
    """Every attachment view in ``value``, in order."""
    if isinstance(value, dict):
        return [view for item in value.values() for view in views(item)]
    if isinstance(value, list):
        return [view for item in value for view in views(item)]
    return [value] if isinstance(value, memoryview) else []


class TestFrames:
    def test_round_trip_over_a_stream(self):
        buffer = io.BytesIO()
        send_frame(buffer, {"op": "ping", "n": 3})
        send_frame(buffer, NESTED)
        send_frame(buffer, {"op": "claim", "worker": "w-1"})
        buffer.seek(0)
        assert recv_frame(buffer) == {"op": "ping", "n": 3}
        assert plain(recv_frame(buffer)) == plain(NESTED)
        assert recv_frame(buffer) == {"op": "claim", "worker": "w-1"}
        assert recv_frame(buffer) is None  # clean EOF

    def test_round_trip_over_a_socketpair(self):
        left, right = socket.socketpair()
        with left, right:
            with left.makefile("rwb") as out, right.makefile("rwb") as inp:
                send_frame(out, {"op": "status", "job_id": "abc"})
                assert recv_frame(inp) == {"op": "status", "job_id": "abc"}
                send_frame(out, NESTED)
                assert plain(recv_frame(inp)) == plain(NESTED)

    def test_large_attachments_over_a_socketpair(self):
        blobs = [np.random.default_rng(seed).bytes(300_000) for seed in range(3)]
        left, right = socket.socketpair()
        with left, right:
            with left.makefile("rwb") as out, right.makefile("rwb") as inp:
                writer = threading.Thread(
                    target=send_frame, args=(out, {"blobs": blobs})
                )
                writer.start()
                received = recv_frame(inp)
                writer.join(timeout=10.0)
        assert not writer.is_alive()
        assert [bytes(view) for view in received["blobs"]] == blobs

    def test_a_frame_without_attachments_is_its_header(self):
        data = sent({"op": "ping"})
        assert data == frame(b'{"op":"ping"}')

    def test_each_attachment_travels_raw_in_order(self):
        data = sent({"a": [b"xy", {"b": bytearray(b"")}], "c": memoryview(b"z")})
        header = b'{"a":[{"$attachment":0},{"b":{"$attachment":1}}],"c":{"$attachment":2}}'
        assert data == frame(header, b"xy", b"", b"z")

    def test_received_attachments_are_writable_views_of_one_buffer(self):
        received = recv_frame(io.BytesIO(sent(NESTED)))
        found = views(received)
        assert [bytes(view) for view in found] == [
            b"\x00\x01\x02", b"", np.arange(4.0).tobytes(), b"tail"
        ]
        assert all(not view.readonly for view in found)
        assert len({id(view.obj) for view in found}) == 1

    def test_other_values_still_refuse_to_travel(self):
        with pytest.raises(TypeError, match="set"):
            send_frame(io.BytesIO(), {"op": "x", "value": {1, 2}})

    def test_malformed_frame_is_a_service_error(self):
        with pytest.raises(ServiceError, match="malformed"):
            recv_frame(io.BytesIO(frame(b"{not json}")))

    def test_non_object_frame_is_rejected(self):
        with pytest.raises(ServiceError, match="JSON object"):
            recv_frame(io.BytesIO(frame(b"[1,2,3]")))

    @pytest.mark.parametrize(
        "header, attachments",
        [
            (b'{"a":{"$attachment":1}}', [b"x"]),  # index out of range
            (b'{"a":{"$attachment":-1}}', [b"x"]),
            (b'{"a":{"$attachment":true}}', [b"x"]),
            (b'{"a":{"$attachment":0},"b":{"$attachment":0}}', [b"x"]),  # twice
            (b'{"a":{"$attachment":0}}', [b"x", b"y"]),  # one named by none
            (b'{"a":1}', [b"x"]),
        ],
    )
    def test_a_bad_placeholder_is_a_service_error(self, header, attachments):
        with pytest.raises(ServiceError, match="malformed frame"):
            recv_frame(io.BytesIO(frame(header, *attachments)))

    def test_a_placeholder_is_plain_data_in_a_frame_without_attachments(self):
        payload = {"a": {"$attachment": 0}}
        assert recv_frame(io.BytesIO(sent(payload))) == payload

    @pytest.mark.parametrize("cut", ["prefix", "header", "lengths", "attachments"])
    def test_a_truncated_frame_is_a_service_error(self, cut):
        data = sent({"op": "x", "blob": b"0123456789"})
        header_end = 8 + struct.unpack(">I", data[:4])[0]
        keep = {"prefix": 5, "header": header_end - 1, "lengths": header_end + 3,
                "attachments": len(data) - 1}[cut]
        with pytest.raises(ServiceError, match="truncated") as info:
            recv_frame(io.BytesIO(data[:keep]))
        assert isinstance(info.value, ServiceConnectionError)

    @pytest.mark.parametrize(
        "data",
        [
            struct.pack(">II", MAX_FRAME_BYTES, 0),
            struct.pack(">II", 2, (MAX_FRAME_BYTES // 8) + 1),
            frame(b"{}", lengths=[MAX_FRAME_BYTES]),
            frame(b"{}", lengths=[MAX_FRAME_BYTES // 2, MAX_FRAME_BYTES // 2]),
        ],
        ids=["header", "count", "attachment", "attachments"],
    )
    def test_an_oversized_declaration_is_refused_before_allocating(self, data):
        tracemalloc.start()
        try:
            with pytest.raises(ServiceError, match="exceed"):
                recv_frame(io.BytesIO(data))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_a_json_line_reads_as_an_impossible_header(self):
        line = io.BytesIO(b'{"op":"ping","protocol":2}\n')
        with pytest.raises(ServiceError, match="exceed"):
            recv_frame(line)
        assert line.tell() == 8  # nothing past the prefix was read


class TestOverTheSocket:
    def test_a_truncated_response_is_a_connection_error(self, tmp_path):
        path = str(tmp_path / "half.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
        listener.listen(1)

        def answer_half():
            conn, _ = listener.accept()
            with conn, conn.makefile("rwb") as stream:
                recv_frame(stream)
                stream.write(sent({"ok": True, "blob": b"0123456789"})[:-4])

        server = threading.Thread(target=answer_half)
        server.start()
        try:
            with pytest.raises(ServiceConnectionError, match="truncated"):
                request(path, "ping", timeout=10.0)
        finally:
            server.join(timeout=10.0)
            listener.close()
        assert not server.is_alive()

    def test_a_json_lines_peer_is_dropped_and_others_served(self, make_daemon, caplog):
        daemon = make_daemon(local_workers=0)

        def dropped():
            return [r for r in caplog.records if "dropping a connection" in r.getMessage()]

        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as peer:
            peer.settimeout(10.0)
            peer.connect(str(daemon.socket_path))
            peer.sendall(b'{"op":"ping","protocol":2}\n')
            assert peer.recv(64) == b""  # closed, not answered
        wait_until(dropped)
        assert request(daemon.socket_path, "ping", timeout=10.0)["pong"]
        [warning] = dropped()
        assert warning.levelno == logging.WARNING and "exceed" in warning.getMessage()


class TestArrayCodec:
    def test_complex_and_real_arrays_round_trip_bitwise(self):
        arrays = {
            "state": (np.arange(8) + 1j * np.arange(8)).astype(complex) / 3.0,
            "counts": np.array([1, 2, 3], dtype=np.int64),
            "empty": np.zeros((0, 2)),
        }
        outcome = {"ok": True, "result": {"kind": "ndarray"}, "arrays": arrays}
        decoded = outcome_from_wire(outcome_to_wire(outcome))["arrays"]
        assert set(decoded) == set(arrays)
        for name in arrays:
            assert decoded[name].dtype == arrays[name].dtype
            assert decoded[name].shape == arrays[name].shape
            assert decoded[name].tobytes() == arrays[name].tobytes()

    def test_outcome_round_trip(self):
        outcome = {
            "ok": True,
            "result": {"kind": "statevector"},
            "arrays": {"data": np.array([1 + 2j, 3 - 4j])},
            "wall_time": 0.25,
        }
        wire = outcome_to_wire(outcome)
        # The packed entry replaces result and arrays, and rides as an attachment.
        assert wire["entry"] == pack(outcome["result"], outcome["arrays"])
        assert "arrays" not in wire and "result" not in wire
        received = recv_frame(io.BytesIO(sent({"outcome": wire})))["outcome"]
        entry = received["entry"]
        assert isinstance(entry, memoryview) and not entry.readonly
        back = outcome_from_wire(received)
        data = back["arrays"]["data"]
        assert data.tobytes() == outcome["arrays"]["data"].tobytes()
        assert data.flags.writeable
        assert np.shares_memory(data, np.frombuffer(entry, np.uint8))  # not copied
        assert back["result"] == outcome["result"] and back["wall_time"] == 0.25

    def test_failure_outcome_passes_through(self):
        outcome = {"ok": False, "error": {"type": "X", "message": "m"}, "wall_time": 0.1}
        assert outcome_from_wire(outcome_to_wire(outcome)) == outcome


class TestDefaults:
    def test_service_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_DIR", str(tmp_path / "svc"))
        assert default_service_dir() == tmp_path / "svc"
        assert default_socket_path() == tmp_path / "svc" / "daemon.sock"

    def test_service_dir_defaults_under_cache_root(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_SERVICE_DIR", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert default_service_dir() == tmp_path / "cache" / "service"

    def test_request_against_no_daemon_is_a_connection_error(self, tmp_path):
        with pytest.raises(ServiceConnectionError, match="cannot reach"):
            request(tmp_path / "nowhere.sock", "ping")
