"""Shared-memory transport: round trips, thresholds, and the reaper.

The lifecycle contract under test: after any pooled fan-out — clean
completion, a failing grid point, or a worker SIGKILLed mid-export — no
``repro_shm_*`` segment may remain in ``/dev/shm``.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

import repro
from repro.runtime import ProcessExecutor, RunSpec
from repro.runtime import shm


def problem(**kwargs):
    kwargs.setdefault("time", 0.3)
    return repro.SimulationProblem.from_labels(
        4, {"nsdI": 0.8, "IZZI": 0.3, "XIXI": 0.2}, **kwargs
    )


def repro_segments() -> list[str]:
    try:
        return [n for n in os.listdir("/dev/shm") if n.startswith("repro_shm_")]
    except OSError:  # pragma: no cover - non-POSIX
        return []


@pytest.fixture(autouse=True)
def _no_preexisting_segments():
    shm.reap_orphans()
    before = repro_segments()
    yield
    assert repro_segments() == before


class TestRoundTrip:
    def test_export_attach_preserves_bytes_and_unlinks(self):
        array = (np.arange(4096) + 1j * np.arange(4096)).astype(complex)
        name = f"{shm.make_prefix()}_{os.getpid()}_1"
        ref = shm.export_array(array, name)
        assert ref[shm.SHM_REF_KEY] == name and shm.is_ref(ref)
        assert name in repro_segments()
        back = shm.attach_array(ref)
        assert np.array_equal(back, array)
        # The name disappears on attach; the mapping lives with the array.
        assert name not in repro_segments()

    def test_outcome_seam_respects_threshold(self, monkeypatch):
        monkeypatch.setattr(shm, "_worker_prefix", shm.make_prefix())
        big = np.zeros(1 << 12, dtype=complex)  # 64 KiB
        small = np.zeros(4, dtype=complex)
        outcome = {
            "ok": True,
            "result": {"kind": "x"},
            "arrays": {"big": big, "small": small},
            "wall_time": 0.0,
        }
        exported = shm.export_outcome(outcome)
        assert shm.is_ref(exported["arrays"]["big"])
        assert isinstance(exported["arrays"]["small"], np.ndarray)
        resolved = shm.resolve_outcome(exported)
        assert np.array_equal(resolved["arrays"]["big"], big)
        assert np.array_equal(resolved["arrays"]["small"], small)

    def test_no_namespace_means_no_refs(self):
        shm.activate_worker(None)
        outcome = {"ok": True, "arrays": {"a": np.zeros(1 << 12, dtype=complex)}}
        assert shm.export_outcome(outcome) is outcome

    def test_shm_enabled_env_gate(self, monkeypatch):
        monkeypatch.setenv(shm.SHM_ENV, "0")
        assert not shm.shm_enabled()
        monkeypatch.setenv(shm.SHM_ENV, "1")
        assert shm.shm_enabled()
        monkeypatch.setenv(shm.SHM_MIN_BYTES_ENV, "7")
        assert shm.min_shm_bytes() == 7


class TestReaper:
    def test_reap_prefix_unlinks_strays(self):
        prefix = shm.make_prefix()
        shm.export_array(np.zeros(64, dtype=complex), f"{prefix}_{os.getpid()}_1")
        shm.export_array(np.zeros(64, dtype=complex), f"{prefix}_{os.getpid()}_2")
        assert len([n for n in repro_segments() if n.startswith(prefix)]) == 2
        assert shm.reap_prefix(prefix) == 2
        assert not [n for n in repro_segments() if n.startswith(prefix)]

    def test_reap_orphans_only_touches_dead_owners(self):
        import multiprocessing

        worker = multiprocessing.Process(target=lambda: None)
        worker.start()
        worker.join()
        dead_pid = worker.pid
        dead = f"repro_shm_{dead_pid}_deadbeef_{dead_pid}_1"
        live = f"repro_shm_{os.getpid()}_cafecafe_{os.getpid()}_1"
        shm.export_array(np.zeros(64, dtype=complex), dead)
        shm.export_array(np.zeros(64, dtype=complex), live)
        assert shm.reap_orphans() >= 1
        segments = repro_segments()
        assert dead not in segments and live in segments
        shm.reap_prefix(live)


def _export_and_die(groups, trace=None, progress_queue=None):
    """Worker body for the SIGKILL test: leak a segment, then die."""
    shm.export_outcome(
        {
            "ok": True,
            "result": {"kind": "x"},
            "arrays": {"data": np.zeros(1 << 12, dtype=complex)},
            "wall_time": 0.0,
        }
    )
    os.kill(os.getpid(), signal.SIGKILL)


class TestPoolLifecycle:
    def payloads(self, n=4, bad=()):
        return [
            RunSpec(
                problem=problem(),
                backend="sampling",
                run_kwargs=(
                    {"shots": -1} if index in bad else {"shots": 64, "rng": index}
                ),
            ).to_dict(canonical=True)
            for index in range(n)
        ]

    def test_clean_sweep_leaves_no_segments(self):
        outcomes = ProcessExecutor(2, chunk_size=1).map_specs(self.payloads())
        assert all(outcome["ok"] for outcome in outcomes)

    def test_failing_point_leaves_no_segments(self):
        outcomes = ProcessExecutor(2, chunk_size=1).map_specs(
            self.payloads(bad={1})
        )
        assert outcomes[1]["ok"] is False and outcomes[0]["ok"]

    @pytest.mark.slow
    def test_sigkilled_worker_is_reaped(self, monkeypatch):
        from repro.runtime import executor as executor_module

        # The forked worker inherits this patch: it exports a segment into
        # the sweep's namespace and dies before returning anything.  Every
        # pass loses its pool, so after the one restart map_specs records
        # each point as a captured TimeoutError instead of raising.
        monkeypatch.setattr(executor_module, "_run_spec_chunk", _export_and_die)
        pool = ProcessExecutor(2, chunk_size=2, use_shm=True)
        outcomes = pool.map_specs(self.payloads())
        assert len(outcomes) == 4
        for outcome in outcomes:
            assert outcome["ok"] is False
            assert outcome["error"]["type"] == "TimeoutError"
        # map_specs' finally-reaper ran: the dead workers' exports are gone
        # (asserted by the autouse fixture's exit check as well).
        assert not repro_segments()
