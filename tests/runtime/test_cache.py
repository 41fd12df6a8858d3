"""ResultCache: round-trips of every result kind, LRU eviction, env overrides."""

from __future__ import annotations

import builtins
import io
import os
import sys
import threading

import numpy as np
import pytest

import repro
from repro.noise.sampling import SamplingResult
from repro.runtime import ResultCache, decode_result, encode_result
from repro.runtime.cache import CACHE_DIR_ENV, CACHE_MAX_BYTES_ENV, MISS
from repro.runtime.results import pack, read_header, unpack
from repro.utils.serialization import SerializationError, canonical_json


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
                small._path(key_of(i)), (1_000_000 + i, 1_000_000 + i)
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

    def test_corrupt_entry_is_a_miss(self, cache):
        cache.put(key_of(1), 1.0)
        cache._path(key_of(1)).write_text("{not an entry")
        assert cache.get(key_of(1)) is MISS

    def test_entry_header_format(self, cache):
        cache.put(key_of(1), 2.5, label="x")
        path = cache._path(key_of(1))
        assert [p.name for p in path.parent.iterdir()] == [f"{key_of(1)}.entry"]
        header = read_header(path)
        assert header["key"] == key_of(1)
        assert header["result"] == {"kind": "scalar", "value": 2.5}
        assert header["label"] == "x" and header["arrays"] == []
        assert header["created"] <= path.stat().st_mtime

    def test_served_arrays_are_writable(self, cache):
        cache.put(key_of(1), np.arange(4.0))
        cache.put(key_of(2), repro.Statevector(1, 2))
        array = cache.get(key_of(1))
        array[0] = 7.0
        assert array.tolist() == [7.0, 1.0, 2.0, 3.0]
        assert cache.get(key_of(2)).data.flags.writeable

    def test_stats_opens_no_entry(self, cache, monkeypatch):
        for i in range(3):
            cache.put(key_of(i), np.full(4 + i, float(i)), label=f"p{i}")
        opened = []
        real_open = builtins.open

        def spy(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spy)
        monkeypatch.setattr(io, "open", spy)
        stats = cache.stats()
        assert not [name for name in opened if name.endswith(".entry")]
        entries = cache.entries()  # the listing reads each header
        assert sum(name.endswith(".entry") for name in opened) == 3
        assert stats["entries"] == len(entries) == 3
        assert stats["total_bytes"] == sum(e.size_bytes for e in entries)


class TestPackedEntry:
    VALUES = {
        "none": None,
        "statevector": repro.Statevector(np.exp(1j * np.arange(8)) / np.sqrt(8)),
        "density_matrix": repro.DensityMatrix(repro.Statevector(3, 2)),
        "complex128": np.linspace(0, 1, 6).reshape(2, 3) * (1 + 2j),
        "complex64": (np.arange(5) * (1 - 1j)).astype(np.complex64),
        "0-d": np.array(2.5),
        "empty": np.zeros((0, 3)),
        "fortran": np.asfortranarray(np.arange(12.0).reshape(3, 4)),
        "non-contiguous": np.arange(20.0)[::3],
        "big-endian": np.arange(4, dtype=">i8"),
        "sampling": SamplingResult(
            counts={"00": 3, "11": 5}, shots=8, num_qubits=2, metadata={"seed": 1}
        ),
        "float": 1.5,
        "int": 42,
        "bool": True,
        "str": "tag",
        "complex": 1 + 2j,
        "json": {"curve": [[1, 0.5], [2, 0.25]]},
    }

    @pytest.mark.parametrize("name", list(VALUES))
    def test_every_kind_round_trips_bit_identically(self, name):
        value = self.VALUES[name]
        meta, arrays = encode_result(value)
        header, back = unpack(pack(meta, arrays, key="k"))
        assert header["key"] == "k"
        assert canonical_json(header["result"]) == canonical_json(meta)
        assert back.keys() == arrays.keys()
        for field, array in arrays.items():
            array = np.asarray(array)
            assert back[field].dtype == array.dtype
            assert back[field].shape == array.shape
            assert back[field].tobytes() == array.tobytes()
            assert back[field].flags.writeable
        again = encode_result(decode_result(header["result"], back))
        assert canonical_json(again[0]) == canonical_json(meta)

    def test_resource_estimate_round_trips(self):
        problem = repro.SimulationProblem.from_labels(4, {"nsdI": 0.8}, time=0.2)
        estimate = repro.compile(problem, "direct").run(backend="resource")
        header, arrays = unpack(pack(*encode_result(estimate)))
        assert decode_result(header["result"], arrays).as_dict() == estimate.as_dict()

    @pytest.mark.parametrize(
        "header",
        [
            b"[1, 2]",
            b'{"arrays": []}',
            b'{"result": {}, "arrays": 3}',
            b'{"result": {}, "arrays": [["a", "<08", [1]]]}',
            b'{"result": {}, "arrays": [["a", "<f8", [-1]]]}',
            b'{"result": {}, "arrays": [["a", "<f8", "ab"]]}',
            b'{"result": {}, "arrays": [["a", "<f8"]]}',
            b"\xff\xfe{",
        ],
    )
    def test_malformed_header_raises_value_error(self, header):
        with pytest.raises(ValueError):
            unpack(len(header).to_bytes(8, "little") + header + b"\0" * 8)

    def test_object_dtype_is_refused(self, cache):
        objects = np.array([1, None], dtype=object)
        with pytest.raises(SerializationError):
            encode_result(objects)
        with pytest.raises(ValueError, match="object"):
            pack({"kind": "ndarray"}, {"data": objects})
        # A stored header that claims an object dtype never unpacks.
        forged = pack({"kind": "ndarray"}, {"data": np.zeros(2, dtype=np.int64)})
        forged = forged.replace(b'"<i8"', b'"|O8"')
        with pytest.raises(ValueError):
            unpack(forged)
        cache._path(key_of(1)).parent.mkdir(parents=True)
        cache._path(key_of(1)).write_bytes(forged)
        assert cache.get(key_of(1)) is MISS


class TestRemovalHygiene:
    def test_stats_leaves_entries_alone(self, cache):
        cache.put(key_of(1), np.zeros(8))
        before = sorted(cache.directory.rglob("*"))
        assert cache.stats()["entries"] == 1
        assert sorted(cache.directory.rglob("*")) == before
        assert key_of(1) in cache

    def test_clear_removes_dead_writers_temp_files(self, cache):
        cache.put(key_of(1), np.zeros(8))
        shard = cache._path(key_of(1)).parent
        (shard / f"{key_of(2)}.entry.999999.1.tmp").write_bytes(b"partial")
        assert cache.stats()["entries"] == 1
        assert cache.clear() == 1  # temp files are not entries
        assert all(path.is_dir() for path in cache.directory.rglob("*"))


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
