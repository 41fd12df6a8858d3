"""Service CLI: the full submit/status/result/cancel/shutdown surface."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.runtime import RunSpec, SweepSpec
from repro.service.cli import main

from _service_helpers import make_problem, wait_until

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def write_spec(tmp_path, payload) -> str:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def served(make_daemon):
    daemon = make_daemon(local_workers=1, chunk_size=2)
    return daemon, ["--socket", str(daemon.socket_path)]


class TestSubmitStatusResult:
    def test_submit_wait_writes_results(self, served, service_env, capsys):
        daemon, socket_args = served
        spec = SweepSpec(
            problem=make_problem(), strategies=("direct", "pauli"), steps=(1, 2),
            backend="sampling", run_kwargs={"shots": 64}, seed=3,
        )
        out_path = service_env / "results.json"
        code = main(["submit", write_spec(service_env, spec.to_dict()),
                     "--wait", "--quiet", "--out", str(out_path), *socket_args])
        assert code == 0
        document = json.loads(out_path.read_text())
        assert document["num_records"] == 4 and document["num_failed"] == 0
        assert all("value" in r for r in document["records"])

    def test_bare_problem_becomes_a_run_job(self, served, service_env, capsys):
        daemon, socket_args = served
        code = main(["submit", write_spec(service_env, make_problem().to_dict()),
                     "--wait", "--quiet", *socket_args])
        assert code == 0
        assert "1 records, 0 failed" in capsys.readouterr().out

    def test_status_and_result_by_prefix(self, served, service_env, capsys):
        daemon, socket_args = served
        spec = RunSpec(problem=make_problem(), backend="resource")
        assert main(["submit", write_spec(service_env, spec.to_dict()),
                     "--wait", "--quiet", *socket_args]) == 0
        capsys.readouterr()
        prefix = spec.content_key()[:12]
        assert main(["status", prefix, *socket_args]) == 0
        out = capsys.readouterr().out
        assert "state done" in out and "1/1 done" in out
        assert main(["status", prefix, "--json", *socket_args]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["state"] == "done"
        assert main(["result", prefix, "--json", *socket_args]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["records"][0]["value"]["kind"] == "resource_estimate"

    def test_resubmit_reports_dedup(self, served, service_env, capsys):
        daemon, socket_args = served
        spec_file = write_spec(
            service_env, RunSpec(problem=make_problem(), backend="resource").to_dict()
        )
        assert main(["submit", spec_file, "--wait", "--quiet", *socket_args]) == 0
        capsys.readouterr()
        assert main(["submit", spec_file, *socket_args]) == 0
        assert "deduplicated" in capsys.readouterr().out

    def test_missing_spec_file_is_a_clean_error(self, served, service_env, capsys):
        daemon, socket_args = served
        assert main(["submit", str(service_env / "nope.json"), *socket_args]) == 2
        assert "not found" in capsys.readouterr().err


class TestFleetOps:
    def test_cancel_jobs_workers_stats(self, make_daemon, service_env, capsys):
        daemon = make_daemon(local_workers=0)  # nothing drains: jobs stay queued
        socket_args = ["--socket", str(daemon.socket_path)]
        spec_file = write_spec(
            service_env,
            SweepSpec(problem=make_problem(), steps=(1, 2, 3)).to_dict(),
        )
        assert main(["submit", spec_file, *socket_args]) == 0
        capsys.readouterr()
        assert main(["jobs", *socket_args]) == 0
        assert "queued" in capsys.readouterr().out
        job_id = json.loads(
            subprocess_free_status(daemon, socket_args, capsys)
        )["jobs"][0]["job_id"]
        assert main(["cancel", job_id[:12], *socket_args]) == 0
        assert "cancelled" in capsys.readouterr().out
        assert main(["stats", *socket_args]) == 0
        out = capsys.readouterr().out
        assert "1 cancelled" in out and "workers" in out
        assert main(["stats", "--json", *socket_args]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["jobs"]["cancelled"] == 1

    def test_worker_subcommand_drains_and_exits_on_max_idle(
        self, make_daemon, service_env, capsys
    ):
        daemon = make_daemon(local_workers=0, chunk_size=2)
        socket_args = ["--socket", str(daemon.socket_path)]
        spec_file = write_spec(
            service_env,
            SweepSpec(problem=make_problem(), steps=(1, 2),
                      backend="resource").to_dict(),
        )
        assert main(["submit", spec_file, *socket_args]) == 0
        capsys.readouterr()
        code = main(["worker", "--connect", str(daemon.socket_path),
                     "--id", "cli-worker", "--poll", "0.02", "--max-idle", "0.3"])
        assert code == 0
        assert main(["workers", *socket_args]) == 0
        out = capsys.readouterr().out
        assert "cli-worker" in out and "2 points" in out

    def test_stats_includes_phase_split_after_work(self, served, service_env,
                                                   capsys):
        daemon, socket_args = served
        spec = RunSpec(problem=make_problem(), backend="resource")
        assert main(["submit", write_spec(service_env, spec.to_dict()),
                     "--wait", "--quiet", *socket_args]) == 0
        capsys.readouterr()
        assert main(["stats", *socket_args]) == 0
        assert "phases" in capsys.readouterr().out
        assert main(["stats", "--json", *socket_args]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert "evolve" in stats["phases"]
        assert "counters" in stats["metrics"]

    def test_shutdown_subcommand(self, make_daemon, capsys):
        daemon = make_daemon(local_workers=0)
        assert main(["shutdown", "--socket", str(daemon.socket_path)]) == 0
        wait_until(lambda: not daemon.running)


def subprocess_free_status(daemon, socket_args, capsys):
    """The jobs listing as JSON via the daemon's own op (helper, not a test)."""
    response = daemon.handle({"op": "jobs"})
    return json.dumps(response)


@pytest.mark.slow
class TestSubprocessEndToEnd:
    def test_serve_two_workers_submit_shutdown(self, service_env, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        socket_path = service_env / "service" / "daemon.sock"
        serve = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve",
             "--workers", "0", "--chunk-size", "2"],
            env=env, cwd=REPO_ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        workers = []
        try:
            deadline = time.monotonic() + 30
            while not socket_path.exists():
                assert serve.poll() is None, serve.stderr.read()
                assert time.monotonic() < deadline, "daemon never bound its socket"
                time.sleep(0.05)
            workers = [
                subprocess.Popen(
                    [sys.executable, "-m", "repro.service", "worker",
                     "--connect", str(socket_path), "--poll", "0.05"],
                    env=env, cwd=REPO_ROOT,
                )
                for _ in range(2)
            ]
            spec = SweepSpec(
                problem=make_problem(), strategies=("direct", "pauli"),
                steps=(1, 2, 4, 8), backend="sampling",
                run_kwargs={"shots": 64}, seed=5, repeats=2,
            )
            spec_file = tmp_path / "sweep.json"
            spec_file.write_text(json.dumps(spec.to_dict()))
            submit = subprocess.run(
                [sys.executable, "-m", "repro.service", "submit", str(spec_file),
                 "--wait", "--quiet", "--socket", str(socket_path)],
                env=env, cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
            )
            assert submit.returncode == 0, submit.stderr
            assert "16 records, 0 failed" in submit.stdout
            shutdown = subprocess.run(
                [sys.executable, "-m", "repro.service", "shutdown",
                 "--socket", str(socket_path)],
                env=env, cwd=REPO_ROOT, capture_output=True, text=True, timeout=60,
            )
            assert shutdown.returncode == 0
            assert serve.wait(timeout=60) == 0
            for worker in workers:
                assert worker.wait(timeout=60) == 0
            assert not socket_path.exists(), "socket file leaked"
        finally:
            for proc in [serve, *workers]:
                if proc.poll() is None:
                    proc.send_signal(signal.SIGTERM)
                    try:
                        proc.wait(timeout=10)
                    except subprocess.TimeoutExpired:
                        proc.kill()
