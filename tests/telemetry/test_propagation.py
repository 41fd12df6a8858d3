"""Trace propagation: pool workers, service workers, fallbacks, crashes."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro import telemetry
from repro.runtime import ProcessExecutor, RunSpec, execute_spec_batch
from repro.telemetry.report import load_trace_dir

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def problem(**kwargs):
    kwargs.setdefault("time", 0.3)
    return repro.SimulationProblem.from_labels(
        4, {"nsdI": 0.8, "IZZI": 0.3}, **kwargs
    )


def payloads_for(count: int, **kwargs) -> "list[dict]":
    return [
        RunSpec(problem=problem(steps=k + 1), **kwargs).to_dict(canonical=True)
        for k in range(count)
    ]


class TestPoolPropagation:
    def test_pool_worker_spans_join_the_parent_trace(self, traced):
        ProcessExecutor(2, chunk_size=1).map_specs(payloads_for(4))
        spans = load_trace_dir(traced)
        (root,) = [s for s in spans if s["name"] == "pool.map_specs"]
        points = [s for s in spans if s["name"] == "execute.point"]
        assert len(points) == 4
        assert all(p["trace_id"] == root["trace_id"] for p in points)
        assert all(p["parent_id"] == root["span_id"] for p in points)
        worker_pids = {p["pid"] for p in points}
        assert root["pid"] not in worker_pids  # work really ran out-of-process

    def test_pool_results_need_no_transport_spans(self, traced):
        from repro.telemetry import metrics

        # Outcomes ride the pool's result pipe: no export/resolve step to
        # trace in the worker or the parent, and no shm.* bookkeeping.
        outcomes = ProcessExecutor(2, chunk_size=1).map_specs(payloads_for(4))
        assert all(o["ok"] for o in outcomes)
        names = {s["name"] for s in load_trace_dir(traced)}
        assert {"pool.map_specs", "execute.point"} <= names
        assert not [name for name in names if name.startswith("transport.")]
        counters = metrics.snapshot()["counters"]
        assert not [name for name in counters if name.startswith("shm.")]

    def test_untraced_pool_run_stays_silent(self, tmp_path, monkeypatch):
        monkeypatch.setenv(telemetry.TRACE_DIR_ENV, str(tmp_path))
        outcomes = ProcessExecutor(2, chunk_size=1).map_specs(payloads_for(2))
        assert all(o["ok"] for o in outcomes)
        assert list(tmp_path.glob("trace-*.jsonl")) == []


class TestServicePropagation:
    @pytest.fixture
    def service_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_SERVICE_DIR", str(tmp_path / "service"))
        return tmp_path

    def submit_and_wait(self, client, spec):
        ack = client.submit(spec)
        return ack, client.wait(ack["job_id"], timeout=60)

    def test_local_worker_adopts_the_client_trace(self, traced, service_env):
        from repro.service.client import ServiceClient
        from repro.service.daemon import Daemon

        daemon = Daemon(local_workers=1)
        daemon.start()
        try:
            client = ServiceClient(daemon.socket_path)
            spec = RunSpec(problem=problem(), backend="resource")
            with telemetry.span("session.execute") as root:
                _, status = self.submit_and_wait(client, spec)
                root_trace = telemetry.current_trace_context()["trace_id"]
            assert status["state"] == "done"

            stats = daemon.handle({"op": "stats"})
            assert "evolve" in stats["phases"]
            assert "counters" in stats["metrics"]
        finally:
            daemon.shutdown()
        chunks = [
            s for s in load_trace_dir(traced) if s["name"] == "service.chunk"
        ]
        assert chunks and all(c["trace_id"] == root_trace for c in chunks)
        assert all(c["parent_id"] is not None for c in chunks)

    def test_external_worker_adopts_the_client_trace(self, traced, service_env):
        from repro.service.client import ServiceClient
        from repro.service.daemon import Daemon
        from repro.service.worker import run_worker

        daemon = Daemon(local_workers=0, chunk_size=4)
        daemon.start()
        try:
            client = ServiceClient(daemon.socket_path)
            spec = RunSpec(problem=problem(), backend="resource")
            with telemetry.span("session.execute"):
                ack = client.submit(spec)
                shipped = telemetry.current_trace_context()
            assert run_worker(
                daemon.socket_path, worker_id="traced-worker",
                poll_interval=0.02, max_chunks=1,
            ) == 0
            status = client.wait(ack["job_id"], timeout=60)
            assert status["state"] == "done"

            # The daemon's service-path outcomes carry the phase timings.
            (outcome,) = client.result(ack["job_id"])
            assert outcome["ok"] and "evolve" in outcome["timings"]
        finally:
            daemon.shutdown()
        chunks = [
            s for s in load_trace_dir(traced) if s["name"] == "service.chunk"
        ]
        assert chunks
        assert all(c["trace_id"] == shipped["trace_id"] for c in chunks)
        assert all(c["parent_id"] == shipped["span_id"] for c in chunks)


class TestFusedBatchFallback:
    def test_failed_fusion_traces_the_error_and_per_point_retries(
        self, traced, monkeypatch
    ):
        from repro.runtime import executor as executor_module

        def exploding(*args, **kwargs):
            raise RuntimeError("fused path down for maintenance")

        monkeypatch.setattr(executor_module, "_batched_sampling", exploding)
        payloads = [
            RunSpec(
                problem=problem(), backend="sampling",
                run_kwargs={"shots": 64, "rng": index},
            ).to_dict(canonical=True)
            for index in range(3)
        ]
        outcomes = execute_spec_batch(payloads)
        assert all(o["ok"] for o in outcomes)
        assert all("batched" not in o for o in outcomes)  # per-point fallback

        spans = load_trace_dir(traced)
        (batch,) = [s for s in spans if s["name"] == "execute.batch"]
        assert batch["error"] is True
        points = [s for s in spans if s["name"] == "execute.point"]
        assert len(points) == 3 and all("error" not in p for p in points)


class TestCrashTolerance:
    def test_sigkilled_worker_leaves_a_parseable_trace(self, traced, tmp_path):
        script = textwrap.dedent(
            """
            import os, signal
            from repro.telemetry import span
            for index in range(5):
                with span("execute.point", index=index):
                    pass
            os.kill(os.getpid(), signal.SIGKILL)
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        process = subprocess.run(
            [sys.executable, "-c", script], env=env, timeout=60
        )
        assert process.returncode == -signal.SIGKILL

        spans = load_trace_dir(traced)
        assert len(spans) == 5  # every completed span survived the kill

        # And a genuinely torn final write (kill mid-`write(2)`) still parses.
        (trace_file,) = traced.glob("trace-*.jsonl")
        with open(trace_file, "ab") as handle:
            handle.write(b'{"trace_id": "x", "span_id": "y", "na')
        assert len(load_trace_dir(traced)) == 5
