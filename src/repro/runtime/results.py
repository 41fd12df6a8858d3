"""Result transport: encode/decode backend outputs, records, result tables.

Backends return heterogeneous objects — :class:`Statevector`,
:class:`DensityMatrix`, :class:`SamplingResult`, :class:`ResourceEstimate`,
bare arrays, scalars.  The runtime layer needs every one of them to cross two
boundaries: a process boundary (worker → parent) and a persistence boundary
(parent → on-disk cache).  :func:`encode_result` maps any supported value to
``(meta, arrays)`` — a JSON-able metadata dict plus a name → ndarray mapping —
and :func:`decode_result` reconstructs the original object, so both boundaries
share one codec and a cache hit is indistinguishable from a fresh run.

:func:`pack`/:func:`unpack` turn ``(meta, arrays)`` into one byte string and
back; a cache entry is one such string on disk, and the service sends the
same bytes on the wire.

:class:`RunRecord` is one executed (or cache-served, or failed) grid point;
:class:`ResultSet` is the ordered collection a sweep returns, with filtering
and JSON export.
"""

from __future__ import annotations

import json
import math
import os
import struct
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np
from numpy.lib.format import descr_to_dtype, dtype_to_descr

from repro.exceptions import ExecutionError
from repro.utils.serialization import SerializationError, canonical_json

from repro.runtime.spec import RunSpec


# ---------------------------------------------------------------------------
# Result codec
# ---------------------------------------------------------------------------


def encode_result(value: Any) -> tuple[dict, dict[str, np.ndarray]]:
    """Any supported backend result → ``(meta, arrays)``.

    ``meta`` is canonically JSON-able (its ``"kind"`` field drives decoding);
    ``arrays`` holds the numeric payloads.  Raises
    :class:`~repro.utils.serialization.SerializationError` for unsupported
    types.

    Executors carry the pair as it is: the process pool returns it through
    its result pipe and the service sends it :func:`pack`-ed on the wire,
    so :func:`decode_result` always sees real ndarrays.
    """
    from repro.circuits.density_matrix import DensityMatrix
    from repro.circuits.statevector import Statevector
    from repro.compile.strategies import ResourceEstimate
    from repro.noise.sampling import SamplingResult

    if value is None:
        return {"kind": "none"}, {}
    if isinstance(value, Statevector):
        return {"kind": "statevector"}, {"data": np.asarray(value.data)}
    if isinstance(value, DensityMatrix):
        return {"kind": "density_matrix"}, {"data": np.asarray(value.data)}
    if isinstance(value, np.ndarray):
        if value.dtype.hasobject:
            raise SerializationError("cannot encode an object-dtype ndarray result")
        return {"kind": "ndarray"}, {"data": value}
    if isinstance(value, SamplingResult):
        meta = {
            "kind": "sampling",
            "counts": dict(value.counts),
            "shots": int(value.shots),
            "num_qubits": int(value.num_qubits),
            "metadata": dict(value.metadata),
        }
        canonical_json(meta)  # reject non-JSON-able backend metadata loudly
        return meta, {}
    if isinstance(value, ResourceEstimate):
        return {
            "kind": "resource_estimate",
            "strategy": value.strategy,
            "fragments": int(value.fragments),
            "rotations": int(value.rotations),
            "two_qubit_gates": int(value.two_qubit_gates),
            "formula_passes": int(value.formula_passes),
            "per_term": [dict(entry) for entry in value.per_term],
        }, {}
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, (bool, int, float, complex, str)):
        meta = {"kind": "scalar", "value": value}
        canonical_json(meta)
        return meta, {}
    if isinstance(value, (dict, list, tuple)):
        meta = {"kind": "json", "value": value}
        canonical_json(meta)
        return meta, {}
    raise SerializationError(
        f"cannot encode a {type(value).__name__} result for caching/transport"
    )


def decode_result(meta: dict, arrays: dict[str, np.ndarray]) -> Any:
    """Inverse of :func:`encode_result`."""
    from repro.circuits.density_matrix import DensityMatrix
    from repro.circuits.statevector import Statevector
    from repro.compile.strategies import ResourceEstimate

    kind = meta["kind"]
    if kind == "none":
        return None
    if kind == "statevector":
        return Statevector(np.asarray(arrays["data"], dtype=complex))
    if kind == "density_matrix":
        return DensityMatrix(np.asarray(arrays["data"], dtype=complex))
    if kind == "ndarray":
        return np.asarray(arrays["data"])
    if kind == "sampling":
        from repro.noise.sampling import SamplingResult

        return SamplingResult(
            counts={k: int(v) for k, v in meta["counts"].items()},
            shots=meta["shots"],
            num_qubits=meta["num_qubits"],
            metadata=dict(meta.get("metadata", {})),
        )
    if kind == "resource_estimate":
        return ResourceEstimate(
            strategy=meta["strategy"],
            fragments=meta["fragments"],
            rotations=meta["rotations"],
            two_qubit_gates=meta["two_qubit_gates"],
            formula_passes=meta["formula_passes"],
            per_term=tuple(meta.get("per_term", ())),
        )
    if kind == "scalar":
        value = meta["value"]
        if isinstance(value, list):  # complex round-trips as [re, im]
            return complex(value[0], value[1])
        return value
    if kind == "json":
        return meta["value"]
    raise SerializationError(f"unknown encoded-result kind {kind!r}")


#: A packed result's header-length prefix; the header is space-padded so the
#: array bytes start 64-byte aligned, as in ``.npy`` files.
_LENGTH, _ALIGN = struct.Struct("<Q"), 64


def pack(meta: dict, arrays: "dict[str, np.ndarray]", **fields: Any) -> bytes:
    """``(meta, arrays)`` as one byte string; :func:`unpack` inverts it.

    The string is an 8-byte little-endian header length, the canonical JSON
    of ``fields`` plus ``"result": meta`` and ``"arrays"`` (``[name, dtype
    descr, shape]`` per array), then each array's raw C-order bytes in that
    order.  Object arrays raise :class:`ValueError`, as ``np.save`` does
    without pickling.
    """
    arrays = {name: np.asarray(array) for name, array in arrays.items()}
    if any(array.dtype.hasobject for array in arrays.values()):
        raise ValueError("arrays with an object dtype cannot be packed")
    layout = [[name, dtype_to_descr(a.dtype), list(a.shape)] for name, a in arrays.items()]
    header = canonical_json({**fields, "result": meta, "arrays": layout}).encode("ascii")
    header += b" " * (-(_LENGTH.size + len(header)) % _ALIGN)
    return b"".join([_LENGTH.pack(len(header)), header, *(a.tobytes() for a in arrays.values())])


def _split(view: memoryview) -> "tuple[dict, int]":
    """A packed buffer's header and the offset its array bytes start at."""
    if len(view) < _LENGTH.size:
        raise ValueError(f"a packed result of {len(view)} bytes has no header length")
    end = _LENGTH.size + _LENGTH.unpack_from(view)[0]
    if end > len(view):
        raise ValueError(f"a packed header runs past the {len(view)} bytes given")
    header = json.loads(bytes(view[_LENGTH.size:end]))
    if not isinstance(header, dict) or not isinstance(header.get("result"), dict):
        raise ValueError("a packed header must be a JSON object holding a result")
    return header, end


def unpack(buffer) -> "tuple[dict, dict[str, np.ndarray]]":
    """Inverse of :func:`pack`: ``(header, arrays)``, the meta at ``header["result"]``.

    The arrays are writable views into ``buffer`` (a read-only buffer is
    copied first).  A short, long or malformed buffer, or an object dtype,
    raises :class:`ValueError`.
    """
    view = memoryview(buffer).cast("B")
    if view.readonly:
        view = memoryview(bytearray(view))
    header, offset = _split(view)
    arrays = {}
    try:
        for name, descr, shape in header["arrays"]:
            dtype = descr_to_dtype(descr)
            if dtype.hasobject or min(shape, default=0) < 0:
                raise ValueError(f"cannot unpack array {name!r} ({descr!r}, {shape!r})")
            count = math.prod(shape)
            arrays[name] = np.frombuffer(view, dtype, count, offset).reshape(shape)
            offset += count * dtype.itemsize
    except (KeyError, TypeError, SyntaxError) as exc:  # np.dtype parses some strings
        raise ValueError(f"malformed packed header: {exc!r}") from exc
    if offset != len(view):
        raise ValueError(f"{len(view) - offset} bytes follow the packed arrays")
    return header, arrays


def read_header(path: "str | Path") -> dict:
    """The header of the packed file at ``path``, read without its array bytes."""
    with open(path, "rb") as handle:
        prefix = handle.read(_LENGTH.size)
        length = _LENGTH.unpack(prefix)[0] if len(prefix) == _LENGTH.size else 0
        length = min(length, os.fstat(handle.fileno()).st_size)
        return _split(memoryview(prefix + handle.read(length)))[0]


def _array_to_json(array: np.ndarray) -> dict:
    """Lossless JSON form of an ndarray (complex split into re/im planes)."""
    array = np.asarray(array)
    if np.iscomplexobj(array):
        return {
            "shape": list(array.shape),
            "real": array.real.tolist(),
            "imag": array.imag.tolist(),
        }
    return {"shape": list(array.shape), "real": array.tolist()}


def result_to_json(value: Any) -> dict:
    """One JSON-able dict for any supported result (used by ``to_json``/CLI)."""
    meta, arrays = encode_result(value)
    payload = dict(meta)
    if arrays:
        payload["arrays"] = {name: _array_to_json(a) for name, a in arrays.items()}
    return payload


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


@dataclass
class RunRecord:
    """One grid point: its spec, coordinates, outcome and provenance.

    A failed point records its exception (type, message, full traceback)
    instead of killing the sweep; :meth:`require` re-raises it as an
    :class:`~repro.exceptions.ExecutionError`.
    """

    spec: RunSpec
    key: str
    coords: dict = field(default_factory=dict)
    value: Any = None
    error: dict | None = None
    wall_time: float = 0.0
    cached: bool = False
    #: Per-phase seconds of a freshly-executed point (``compile``/``plan``/
    #: ``evolve``/``encode``, from the worker's own clocks); empty for cached
    #: or failed points.
    timings: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None

    def require(self) -> Any:
        """The value, or an :class:`ExecutionError` carrying the task traceback."""
        if self.error is not None:
            raise ExecutionError(
                f"run {self.spec.label or self.key[:12]} failed with "
                f"{self.error.get('type', 'Exception')}: "
                f"{self.error.get('message', '')}\n"
                f"{self.error.get('traceback', '')}"
            )
        return self.value

    def to_json(self, *, include_value: bool = True) -> dict:
        payload = {
            "key": self.key,
            "label": self.spec.label,
            "coords": dict(self.coords),
            "backend": self.spec.backend,
            "ok": self.ok,
            "cached": self.cached,
            "wall_time": round(self.wall_time, 6),
            "error": self.error,
        }
        if self.timings:
            payload["timings"] = {
                phase: round(seconds, 6) for phase, seconds in self.timings.items()
            }
        if include_value and self.error is None:
            payload["value"] = result_to_json(self.value)
        return payload


class ResultSet:
    """Ordered collection of :class:`RunRecord` with filtering and export."""

    def __init__(self, records: list[RunRecord], *, sweep_key: str | None = None):
        self._records = list(records)
        self.sweep_key = sweep_key

    # --------------------------------------------------------------- protocol

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> RunRecord:
        return self._records[index]

    @property
    def records(self) -> tuple[RunRecord, ...]:
        return tuple(self._records)

    # ---------------------------------------------------------------- queries

    @property
    def ok(self) -> bool:
        """Whether every point succeeded."""
        return all(record.ok for record in self._records)

    def failures(self) -> "ResultSet":
        return ResultSet(
            [r for r in self._records if not r.ok], sweep_key=self.sweep_key
        )

    @property
    def num_cached(self) -> int:
        return sum(1 for r in self._records if r.cached)

    def filter(self, **coords) -> "ResultSet":
        """Records whose coordinates match every given ``axis=value`` pair."""
        kept = [
            r
            for r in self._records
            if all(r.coords.get(axis) == value for axis, value in coords.items())
        ]
        return ResultSet(kept, sweep_key=self.sweep_key)

    def values(self) -> list:
        """The values of the successful records, in grid order."""
        return [r.value for r in self._records if r.ok]

    def value(self, **coords) -> Any:
        """The single value matching the coordinates (raises unless exactly one)."""
        matches = self.filter(**coords)
        if len(matches) != 1:
            raise ExecutionError(
                f"{len(matches)} records match {coords!r} (need exactly 1)"
            )
        return matches[0].require()

    # ----------------------------------------------------------------- export

    def to_json(self, *, include_values: bool = True) -> str:
        """The whole set as a JSON document (arrays as re/im nested lists)."""
        import json

        return json.dumps(
            {
                "sweep_key": self.sweep_key,
                "num_records": len(self._records),
                "num_failed": len(self.failures()),
                "num_cached": self.num_cached,
                "records": [
                    r.to_json(include_value=include_values) for r in self._records
                ],
            },
            indent=2,
        )

    def table(self) -> str:
        """Plain-text table of coordinates, status, provenance and timing.

        When any record carries a per-phase split (fresh executions under
        the instrumented runtime), a ``phases`` column summarises it as
        ``compile/plan/evolve/encode`` milliseconds.
        """
        if not self._records:
            return "(empty result set)"
        axes = sorted({axis for r in self._records for axis in r.coords})
        with_phases = any(r.timings for r in self._records)
        header = [*axes, "backend", "status", "time (s)"]
        if with_phases:
            header.append("phases (ms c/p/e/e)")
        rows = []
        for record in self._records:
            status = "cached" if record.cached else ("ok" if record.ok else "FAILED")
            row = [
                *(str(record.coords.get(a, "—")) for a in axes),
                record.spec.backend,
                status,
                f"{record.wall_time:.4f}",
            ]
            if with_phases:
                if record.timings:
                    row.append(
                        "/".join(
                            f"{record.timings.get(phase, 0.0) * 1e3:.1f}"
                            for phase in ("compile", "plan", "evolve", "encode")
                        )
                    )
                else:
                    row.append("—")
            rows.append(row)
        widths = [
            max(len(header[i]), *(len(row[i]) for row in rows))
            for i in range(len(header))
        ]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(header, widths)),
            "  ".join("-" * w for w in widths),
        ]
        lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in rows]
        return "\n".join(lines)

    def summary(self) -> str:
        failed = len(self._records) - sum(r.ok for r in self._records)
        parts = [
            f"{len(self._records)} runs",
            f"{self.num_cached} cached",
        ]
        if failed:
            parts.append(f"{failed} FAILED")
        return ", ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ResultSet({self.summary()})"
