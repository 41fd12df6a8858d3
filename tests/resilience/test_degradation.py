"""Graceful degradation: cache failures recompute or stay uncached."""

from __future__ import annotations

import errno
import os
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest

import repro
from repro.resilience import configure_faults
from repro.runtime import Session
from repro.runtime.cache import MISS, ResultCache
from repro.runtime.results import encode_result
from repro.telemetry import metrics

from _chaos_helpers import REPO_ROOT, assert_outcomes_identical, make_problem

KEY = "ab" + "0" * 62


class TestCachePutDegradation:
    def test_enospc_put_is_swallowed(self, tmp_path):
        cache = ResultCache(tmp_path)
        configure_faults("cache.put:raise=ENOSPC")
        cache.put(KEY, 1.5)
        assert KEY not in cache
        assert cache.get(KEY, MISS) is MISS
        assert metrics.counter("cache.put_failures") == 1
        assert metrics.counter("resilience.fallbacks") == 1
        assert metrics.counter("cache.puts") == 0
        # The disk recovers: the same put now lands and serves.
        configure_faults(None)
        cache.put(KEY, 1.5)
        assert cache.get(KEY) == 1.5
        assert metrics.counter("cache.puts") == 1

    def test_writer_killed_before_its_rename_leaves_a_miss(self, tmp_path):
        # A writer SIGKILLed between its temp write and its os.replace: the
        # entry does not exist, so readers miss (never a partial entry), and
        # the dead writer's temp file is gone after the next clear().
        child = (
            "import os, signal, sys\n"
            "import numpy as np\n"
            "from repro.runtime import ResultCache\n"
            "os.replace = lambda src, dst: os.kill(os.getpid(), signal.SIGKILL)\n"
            "ResultCache(sys.argv[1]).put(sys.argv[2], np.arange(4096.0))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        writer = subprocess.run(
            [sys.executable, "-c", child, str(tmp_path), KEY], env=env, timeout=60
        )
        assert writer.returncode == -signal.SIGKILL
        cache = ResultCache(tmp_path)
        [leftover] = cache.directory.rglob("*.tmp")  # written whole, never renamed
        assert leftover.stat().st_size > 4096 * 8
        assert KEY not in cache and cache.get(KEY, MISS) is MISS
        assert cache.stats()["entries"] == 0 and cache.entries() == []
        assert cache.clear() == 0
        assert all(path.is_dir() for path in cache.directory.rglob("*"))

    def test_stats_during_a_put_never_loses_the_entry(self, tmp_path, monkeypatch):
        # ``stats`` runs while a put sits between its temp write and its
        # rename: it neither counts nor disturbs the in-flight entry.
        cache = ResultCache(tmp_path)
        meta, arrays = encode_result(np.arange(8.0))
        held, release = threading.Event(), threading.Event()
        real_replace = os.replace

        def held_replace(src, dst):
            held.set()
            assert release.wait(timeout=10.0)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", held_replace)
        writer = threading.Thread(
            target=cache.put_encoded, args=(KEY, meta, arrays), daemon=True
        )
        writer.start()
        try:
            assert held.wait(timeout=10.0) and writer.is_alive()  # mid-put
            assert cache.stats()["entries"] == 0 and KEY not in cache
        finally:
            release.set()
            writer.join(timeout=10.0)
        assert not writer.is_alive()
        assert KEY in cache and cache.stats()["entries"] == 1
        np.testing.assert_array_equal(cache.get(KEY), np.arange(8.0))

    def test_failed_put_cleans_its_temp_files(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        meta, arrays = encode_result(np.arange(8.0))

        def full_disk(src, dst):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "replace", full_disk)
        cache.put_encoded(KEY, meta, arrays)
        assert metrics.counter("cache.put_failures") == 1
        assert KEY not in cache
        assert list(cache.directory.rglob("*.tmp")) == []


class TestCacheGetDegradation:
    def test_injected_read_failure_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, 2.5)
        configure_faults("cache.get:raise=EIO@n=1")
        assert cache.get(KEY, MISS) is MISS
        assert metrics.counter("cache.get_failures") == 1
        assert metrics.counter("resilience.fallbacks") == 1
        assert cache.get(KEY) == 2.5  # the next read serves normally

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, 3.5)
        cache._path(KEY).write_text("{definitely not an entry")
        assert cache.get(KEY, MISS) is MISS

    def test_corrupt_array_bytes_are_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        meta, arrays = encode_result(np.arange(8.0))
        cache.put_encoded(KEY, meta, arrays)
        path = cache._path(KEY)
        path.write_bytes(path.read_bytes()[:-64] + b"truncated garbage")
        assert cache.get(KEY, MISS) is MISS
        assert metrics.counter("resilience.fallbacks") == 1

    @pytest.mark.parametrize(
        "damage", ["empty", "7 bytes", "mid-header", "mid-array", "last byte cut", "trailing byte"]
    )
    def test_damaged_entry_is_a_miss(self, tmp_path, damage):
        cache = ResultCache(tmp_path)
        state = repro.Statevector(np.exp(1j * np.arange(16)) / 4.0)
        cache.put(KEY, state)
        path = cache._path(KEY)
        data = path.read_bytes()
        header_end = 8 + int.from_bytes(data[:8], "little")
        damaged = {
            "empty": b"",
            "7 bytes": data[:7],
            "mid-header": data[: header_end // 2],
            "mid-array": data[: (header_end + len(data)) // 2],
            "last byte cut": data[:-1],
            "trailing byte": data + b"\0",
        }[damage]
        path.write_bytes(damaged)
        assert cache.get(KEY, MISS) is MISS
        assert metrics.counter("resilience.fallbacks") == 1
        assert metrics.counter("cache.get_failures") == 1
        cache.put(KEY, state)  # a fresh put replaces the damaged entry
        assert cache.get(KEY).data.tobytes() == state.data.tobytes()


class TestRemovedShmSite:
    @pytest.mark.parametrize("site", ["shm.export", "cache.put.torn"])
    def test_a_stale_rule_never_fires(self, tmp_path, monkeypatch, site):
        from repro.runtime import ProcessExecutor, RunSpec
        from repro.runtime.executor import execute_spec

        # A chaos plan written for a removed site (the shared-memory
        # transport, the two-file cache entry) still parses, but its site is
        # gone: the large results come back untouched, they store cleanly,
        # and the fleet-wide @once marker is never claimed.
        labels = {"ZZIIIIIIII": 0.5, "IXXIIIIIII": 0.3, "IIIIIIIIZY": 0.2}
        payloads = [
            RunSpec(
                problem=repro.SimulationProblem.from_labels(10, labels, time=0.1 * k),
                backend="kernel",
            ).to_dict(canonical=True)
            for k in range(1, 5)
        ]
        expected = [execute_spec(payload) for payload in payloads]
        state = tmp_path / "chaos-state"
        monkeypatch.setenv("REPRO_FAULTS", f"state={state};{site}:raise=ENOSPC@once")
        outcomes = ProcessExecutor(2, chunk_size=1).map_specs(payloads)
        assert_outcomes_identical(outcomes, expected)
        cache = ResultCache(tmp_path / "cache")
        for index, outcome in enumerate(outcomes):
            cache.put_encoded(f"{index:02x}" + KEY[2:], outcome["result"], outcome["arrays"])
        assert cache.stats()["entries"] == len(outcomes)
        assert metrics.counter("cache.put_failures") == 0
        assert not (state / f"{site}.0.fired").exists()


class TestSessionDegradation:
    def test_sweep_survives_an_uncachable_store(self, tmp_path):
        configure_faults("cache.put:raise=ENOSPC")
        session = Session(cache=ResultCache(tmp_path / "cache"))
        results = session.sweep(make_problem(), strategies=("direct",), steps=(1, 2))
        assert results.ok
        assert all(not record.cached for record in results)
        assert metrics.counter("cache.put_failures") == 2
        # Nothing was stored, so a clean re-run recomputes (still no failure).
        configure_faults(None)
        again = session.sweep(make_problem(), strategies=("direct",), steps=(1, 2))
        assert again.ok
        assert all(not record.cached for record in again)
        third = session.sweep(make_problem(), strategies=("direct",), steps=(1, 2))
        assert all(record.cached for record in third)
