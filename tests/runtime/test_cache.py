"""ResultCache: round-trips of every result kind, LRU eviction, env overrides."""

from __future__ import annotations

import json
import os
import sys
import threading

import numpy as np
import pytest

import repro
from repro.noise.sampling import SamplingResult
from repro.runtime import ResultCache, decode_result, encode_result
from repro.runtime.cache import CACHE_DIR_ENV, CACHE_MAX_BYTES_ENV, MISS
from repro.utils.serialization import SerializationError


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path)


def key_of(i: int) -> str:
    return f"{i:02x}" + "ab" * 31


# ---------------------------------------------------------------------------
# Codec round-trips
# ---------------------------------------------------------------------------


class TestCodec:
    def test_statevector(self, cache):
        state = repro.Statevector(np.arange(8, dtype=complex) / np.linalg.norm(np.arange(8)))
        cache.put(key_of(1), state)
        back = cache.get(key_of(1))
        assert isinstance(back, repro.Statevector)
        np.testing.assert_array_equal(back.data, state.data)

    def test_density_matrix(self, cache):
        rho = repro.DensityMatrix(repro.Statevector(3, 2))
        cache.put(key_of(2), rho)
        back = cache.get(key_of(2))
        assert isinstance(back, repro.DensityMatrix)
        np.testing.assert_array_equal(back.data, rho.data)

    def test_ndarray_and_scalars(self, cache):
        arr = np.linspace(0, 1, 7).reshape(7, 1) * (1 + 2j)
        cache.put(key_of(3), arr)
        np.testing.assert_array_equal(cache.get(key_of(3)), arr)
        for i, value in enumerate([1.5, 42, True, "tag", 1 + 2j, None], start=4):
            cache.put(key_of(i), value)
            assert cache.get(key_of(i)) == value or (
                value is None and cache.get(key_of(i)) is None
            )

    def test_sampling_result(self, cache):
        result = SamplingResult(
            counts={"0000": 500, "1111": 524},
            shots=1024,
            num_qubits=4,
            metadata={"noisy": False},
        )
        cache.put(key_of(10), result)
        back = cache.get(key_of(10))
        assert back.counts == dict(result.counts)
        assert back.shots == result.shots and back.num_qubits == 4
        assert back.metadata == {"noisy": False}

    def test_resource_estimate(self, cache):
        problem = repro.SimulationProblem.from_labels(4, {"nsdI": 0.8}, time=0.2)
        estimate = repro.compile(problem, "direct").run(backend="resource")
        cache.put(key_of(11), estimate)
        back = cache.get(key_of(11))
        assert back.as_dict() == estimate.as_dict()

    def test_json_kind(self, cache):
        payload = {"curve": [[1, 0.5], [2, 0.25]], "label": "direct"}
        cache.put(key_of(12), payload)
        assert cache.get(key_of(12)) == payload

    def test_unsupported_type_raises(self):
        with pytest.raises(SerializationError):
            encode_result(object())

    def test_decode_unknown_kind_raises(self):
        with pytest.raises(SerializationError):
            decode_result({"kind": "mystery"}, {})


# ---------------------------------------------------------------------------
# Store behavior
# ---------------------------------------------------------------------------


class TestStore:
    def test_miss_returns_default(self, cache):
        assert cache.get(key_of(0)) is MISS
        assert cache.get(key_of(0), default=None) is None
        assert cache.misses == 2 and cache.hits == 0

    def test_contains_and_stats(self, cache):
        cache.put(key_of(1), 1.0)
        assert key_of(1) in cache and key_of(2) not in cache
        cache.get(key_of(1))
        stats = cache.stats()
        assert stats["entries"] == 1 and stats["hits"] == 1
        assert stats["total_bytes"] > 0

    def test_clear(self, cache):
        for i in range(3):
            cache.put(key_of(i), float(i))
        assert cache.clear() == 3
        assert cache.stats()["entries"] == 0

    def test_entries_listing(self, cache):
        cache.put(key_of(1), 1.0, label="first")
        cache.put(key_of(2), np.zeros(4), label="second")
        entries = cache.entries()
        assert {e.label for e in entries} == {"first", "second"}
        kinds = {e.label: e.kind for e in entries}
        assert kinds == {"first": "scalar", "second": "ndarray"}

    def test_lru_eviction_prefers_recently_used(self, cache, tmp_path):
        big = np.zeros(4096, dtype=complex)  # ~64 KiB per entry
        small = ResultCache(tmp_path / "lru", max_bytes=200_000)
        for i in range(3):
            small.put(key_of(i), big)
            os.utime(
                small._paths(key_of(i))[0], (1_000_000 + i, 1_000_000 + i)
            )  # deterministic recency order: 0 oldest
        # Touch entry 0 so entry 1 becomes the LRU victim.
        assert small.get(key_of(0)) is not MISS
        small.put(key_of(3), big)  # pushes total over the cap
        assert key_of(1) not in small
        assert key_of(0) in small and key_of(3) in small

    def test_zero_cap_disables_eviction(self, tmp_path):
        unbounded = ResultCache(tmp_path, max_bytes=0)
        for i in range(4):
            unbounded.put(key_of(i), np.zeros(2048, dtype=complex))
        assert unbounded.stats()["entries"] == 4

    def test_env_overrides(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env-cache"))
        monkeypatch.setenv(CACHE_MAX_BYTES_ENV, "12345")
        cache = ResultCache()
        assert str(tmp_path / "env-cache") in str(cache.directory)
        assert cache.max_bytes == 12345

    def test_versioned_namespace(self, tmp_path):
        from repro.utils.serialization import SPEC_VERSION

        cache = ResultCache(tmp_path)
        assert cache.directory.name == f"v{SPEC_VERSION}"

    def test_clear_removes_only_older_namespaces(self, tmp_path):
        # A SPEC_VERSION bump strands the previous namespace where no
        # listing or eviction looks; clear() is the one place it goes.
        from repro.utils.serialization import SPEC_VERSION

        stale_shard = tmp_path / "v1" / "ab"
        stale_shard.mkdir(parents=True)
        stale_key = "ab" * 32
        (stale_shard / f"{stale_key}.json").write_text("{}")
        (stale_shard / f"{stale_key}.npz").write_bytes(b"\0")
        newer = tmp_path / f"v{SPEC_VERSION + 1}"
        (newer / "cd").mkdir(parents=True)
        (newer / "cd" / "entry.json").write_text("{}")
        notes = tmp_path / "notes"
        notes.mkdir()
        (notes / "readme.json").write_text("{}")
        cache = ResultCache(tmp_path)
        cache.put(key_of(1), 1.0)

        assert cache.clear() == 2  # the live entry + the stale one
        assert not (tmp_path / "v1").exists()
        assert (newer / "cd" / "entry.json").exists()
        assert (notes / "readme.json").exists()
        assert cache.directory.exists() and cache.stats()["entries"] == 0
        assert cache.clear() == 0

    def test_torn_entry_is_a_miss(self, cache):
        cache.put(key_of(1), np.zeros(8))
        sidecar, npz = cache._paths(key_of(1))
        npz.unlink()
        assert cache.get(key_of(1)) is MISS

    def test_corrupt_sidecar_is_a_miss(self, cache):
        cache.put(key_of(1), 1.0)
        sidecar, _ = cache._paths(key_of(1))
        sidecar.write_text("{not json")
        assert cache.get(key_of(1)) is MISS

    def test_atomic_sidecar_format(self, cache):
        cache.put(key_of(1), 2.5, label="x")
        sidecar, _ = cache._paths(key_of(1))
        payload = json.loads(sidecar.read_text())
        assert payload["key"] == key_of(1)
        assert payload["result"] == {"kind": "scalar", "value": 2.5}
        assert payload["label"] == "x" and not payload["has_arrays"]


class TestRemovalHygiene:
    def test_remove_unlinks_npz_before_sidecar(self, cache, monkeypatch):
        # If removal dies between the two unlinks, the survivor must be the
        # sidecar (a clean miss), never a keyless orphan npz.
        cache.put(key_of(1), np.zeros(8))
        sidecar, npz = cache._paths(key_of(1))
        order = []
        original = type(npz).unlink

        def spy(self, *args, **kwargs):
            order.append(self.suffix)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(type(npz), "unlink", spy)
        cache._remove(sidecar)
        assert order == [".npz", ".json"]
        assert not npz.exists() and not sidecar.exists()

    def test_clear_sweeps_orphan_npz_that_stats_leaves(self, cache):
        cache.put(key_of(1), np.zeros(8))
        sidecar, npz = cache._paths(key_of(1))
        sidecar.unlink()  # simulate a crash that left a keyless npz behind
        stats = cache.stats()
        assert stats["entries"] == 0 and stats["total_bytes"] == 0
        assert npz.exists()  # stats is read-only
        assert cache.clear() == 1
        assert not npz.exists()

    def test_stats_leaves_paired_entries_alone(self, cache):
        cache.put(key_of(1), np.zeros(8))
        before = sorted(cache.directory.rglob("*"))
        assert cache.stats()["entries"] == 1
        assert sorted(cache.directory.rglob("*")) == before
        assert key_of(1) in cache

    def test_clear_counts_orphans(self, cache):
        cache.put(key_of(1), np.zeros(8))
        cache.put(key_of(2), np.ones(8))
        sidecar, _ = cache._paths(key_of(2))
        sidecar.unlink()
        assert cache.clear() == 2  # one live entry + one orphan npz
        assert cache.stats()["entries"] == 0
        assert not list(cache.directory.glob("*.npz"))


class TestConcurrentWriters:
    def test_same_key_writers_use_separate_temp_files(self, cache):
        # Two writers of one key: two sessions sharing a directory, or two
        # daemon threads writing outside the daemon's lock.  Neither may
        # truncate or rename the other's temp file, and a reader beside them
        # sees either a miss or the whole entry.
        from repro.telemetry import metrics

        data = np.exp(1j * np.linspace(0.0, 3.0, 256)) / 16.0
        meta, arrays = encode_result(repro.Statevector(data))
        failures = metrics.counter("cache.put_failures")
        stop = threading.Event()
        torn_reads = []

        def write():
            for _ in range(250):
                cache.put_encoded(key_of(1), meta, arrays)

        def read():
            while not stop.is_set():
                value = cache.get(key_of(1))
                if value is not MISS and not np.array_equal(value.data, data):
                    torn_reads.append(value)

        reader = threading.Thread(target=read, daemon=True)
        writers = [threading.Thread(target=write, daemon=True) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the writers' steps finely
        try:
            reader.start()
            for thread in writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60.0)
            stop.set()
            reader.join(timeout=10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in (reader, *writers))
        assert metrics.counter("cache.put_failures") == failures
        assert torn_reads == []
        back = cache.get(key_of(1))
        assert back.data.tobytes() == data.tobytes()
        assert list(cache.directory.rglob("*.tmp")) == []
