"""Graceful degradation: cache failures recompute or stay uncached."""

from __future__ import annotations

import json
import threading
import time

import numpy as np

from repro.resilience import configure_faults
from repro.runtime import Session
from repro.runtime.cache import MISS, ResultCache
from repro.runtime.results import encode_result
from repro.telemetry import metrics

from _chaos_helpers import assert_outcomes_identical, make_problem

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

    def test_torn_write_reads_as_miss_and_is_swept(self, tmp_path):
        cache = ResultCache(tmp_path)
        meta, arrays = encode_result(np.arange(8.0))
        configure_faults("cache.put.torn:raise=EIO@n=1")
        cache.put_encoded(KEY, meta, arrays)
        sidecar, npz = cache._paths(KEY)
        # A genuine torn entry: the arrays landed, the existence marker (the
        # sidecar) did not — readers must see a recoverable miss.
        assert npz.exists() and not sidecar.exists()
        assert cache.get(KEY, MISS) is MISS
        assert cache.clear() == 1
        assert not npz.exists()
        cache.put_encoded(KEY, meta, arrays)
        np.testing.assert_array_equal(cache.get(KEY), np.arange(8.0))

    def test_stats_during_a_put_never_loses_the_entry(self, tmp_path):
        # ``stats`` runs while a put sits between its array write and its
        # sidecar write: it must not unlink the in-flight npz as an orphan.
        cache = ResultCache(tmp_path)
        meta, arrays = encode_result(np.arange(8.0))
        configure_faults("cache.put.torn:delay=0.3@n=1")
        writer = threading.Thread(
            target=cache.put_encoded, args=(KEY, meta, arrays), daemon=True
        )
        writer.start()
        _, npz = cache._paths(KEY)
        deadline = time.monotonic() + 5.0
        while not npz.exists() and time.monotonic() < deadline:
            time.sleep(0.005)
        assert npz.exists() and writer.is_alive()  # mid-put
        cache.stats()
        writer.join(timeout=5.0)
        assert not writer.is_alive()
        assert KEY in cache
        np.testing.assert_array_equal(cache.get(KEY), np.arange(8.0))

    def test_failed_put_cleans_its_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        meta, arrays = encode_result(np.arange(8.0))
        configure_faults("cache.put.torn:raise=ENOSPC")
        cache.put_encoded(KEY, meta, arrays)
        leftovers = [p for p in cache.directory.rglob("*.tmp")]
        assert leftovers == []


class TestCacheGetDegradation:
    def test_injected_read_failure_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, 2.5)
        configure_faults("cache.get:raise=EIO@n=1")
        assert cache.get(KEY, MISS) is MISS
        assert metrics.counter("cache.get_failures") == 1
        assert metrics.counter("resilience.fallbacks") == 1
        assert cache.get(KEY) == 2.5  # the next read serves normally

    def test_corrupt_sidecar_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, 3.5)
        sidecar, _ = cache._paths(KEY)
        sidecar.write_text("{definitely not json")
        assert cache.get(KEY, MISS) is MISS

    def test_corrupt_array_file_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        meta, arrays = encode_result(np.arange(8.0))
        cache.put_encoded(KEY, meta, arrays)
        _, npz = cache._paths(KEY)
        npz.write_bytes(b"truncated garbage")
        assert cache.get(KEY, MISS) is MISS
        assert metrics.counter("resilience.fallbacks") == 1


class TestRemovedShmSite:
    def test_a_stale_shm_export_rule_never_fires(self, tmp_path, monkeypatch):
        import repro
        from repro.runtime import ProcessExecutor, RunSpec
        from repro.runtime.executor import execute_spec

        # A chaos plan written for the removed transport still parses, but
        # its site is gone: the large results come back untouched and the
        # fleet-wide @once marker is never claimed.
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
        monkeypatch.setenv(
            "REPRO_FAULTS", f"state={state};shm.export:raise=ENOSPC@once"
        )
        outcomes = ProcessExecutor(2, chunk_size=1).map_specs(payloads)
        assert_outcomes_identical(outcomes, expected)
        assert not (state / "shm.export.0.fired").exists()


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
