"""Wire protocol: frames, the entry codec and outcome round-trips."""

from __future__ import annotations

import io
import json
import socket

import numpy as np
import pytest

from repro.service.protocol import (
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


class TestFrames:
    def test_round_trip_over_a_stream(self):
        buffer = io.BytesIO()
        send_frame(buffer, {"op": "ping", "n": 3})
        send_frame(buffer, {"op": "claim", "worker": "w-1"})
        buffer.seek(0)
        assert recv_frame(buffer) == {"op": "ping", "n": 3}
        assert recv_frame(buffer) == {"op": "claim", "worker": "w-1"}
        assert recv_frame(buffer) is None  # clean EOF

    def test_round_trip_over_a_socketpair(self):
        left, right = socket.socketpair()
        with left, right:
            with left.makefile("rwb") as out, right.makefile("rwb") as inp:
                send_frame(out, {"op": "status", "job_id": "abc"})
                assert recv_frame(inp) == {"op": "status", "job_id": "abc"}

    def test_malformed_frame_is_a_service_error(self):
        buffer = io.BytesIO(b"{not json}\n")
        with pytest.raises(ServiceError, match="malformed"):
            recv_frame(buffer)

    def test_non_object_frame_is_rejected(self):
        buffer = io.BytesIO(b"[1,2,3]\n")
        with pytest.raises(ServiceError, match="JSON object"):
            recv_frame(buffer)


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
        assert isinstance(wire["entry"], str) and "arrays" not in wire
        assert json.loads(json.dumps(wire)) == wire  # JSON-safe
        back = outcome_from_wire(wire)
        assert back["arrays"]["data"].tobytes() == outcome["arrays"]["data"].tobytes()
        assert back["arrays"]["data"].flags.writeable
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
