"""Canonical JSON serialization and content hashing.

The :mod:`repro.runtime` layer addresses results by *content*: two runs with
the same problem, options and run arguments must map to the same cache key on
any machine, in any process, regardless of dict insertion order.  This module
provides the two primitives that make that possible:

* :func:`canonical_json` — a deterministic JSON encoding (sorted keys, no
  whitespace, shortest-round-trip floats, NaN/Inf rejected);
* :func:`content_hash` — the SHA-256 of a canonical encoding, prefixed with a
  format-version tag so a change to the serialization scheme invalidates old
  cache entries instead of silently colliding with them.

Plus small helpers for the payloads the core datatypes need: complex scalars
and complex matrices as nested ``[re, im]`` lists.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np

from repro.exceptions import ReproError

#: Bump when the canonical encoding of any core datatype changes shape, when
#: the way content keys are composed changes (3: problem, run, sweep and
#: plan-group keys hash the Hamiltonian's digest and the problem's key
#: instead of the nested payloads), or when the value computed for an
#: unchanged key changes (numerics that move results, even by rounding; 4:
#: circuits run by gate structure, so diagonal gates multiply elementwise
#: where a BLAS contraction rounded before) — every content key (and with it
#: every cache entry) is versioned by this tag, so old results are never
#: served beside new ones.
SPEC_VERSION = 4


class SerializationError(ReproError):
    """Raised when an object cannot be canonically serialized."""


def _coerce_jsonable(value: Any) -> Any:
    """Normalize numpy scalars and tuples into plain JSON-able Python values."""
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if value != value or value in (float("inf"), float("-inf")):
            raise SerializationError("NaN/Inf cannot appear in a canonical payload")
        return value
    if isinstance(value, (complex, np.complexfloating)):
        return complex_to_json(complex(value))
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise SerializationError(
                    f"canonical payload keys must be strings, got {key!r}"
                )
            out[key] = _coerce_jsonable(item)
        return out
    if isinstance(value, (list, tuple)):
        return [_coerce_jsonable(item) for item in value]
    raise SerializationError(
        f"cannot canonically serialize a {type(value).__name__}: {value!r}"
    )


def canonical_json(payload: Any) -> str:
    """Deterministic JSON encoding of a JSON-able payload.

    Keys are sorted, separators are minimal and floats use Python's
    shortest-round-trip ``repr`` — the same payload always yields the same
    byte string.  Tuples are accepted and encoded as lists; numpy scalars are
    coerced; NaN and infinities are rejected (they do not round-trip).
    """
    return json.dumps(
        _coerce_jsonable(payload),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
    )


def content_hash(payload: Any, *, tag: str = "repro") -> str:
    """SHA-256 hex digest of the canonical encoding, version-tagged."""
    body = f"{tag}-v{SPEC_VERSION}:{canonical_json(payload)}"
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Complex payload helpers
# ---------------------------------------------------------------------------


def complex_to_json(value: complex) -> list[float]:
    """``a + bj`` as the two-element list ``[a, b]``."""
    value = complex(value)
    return [float(value.real), float(value.imag)]


def complex_from_json(value: "list[float] | float | int") -> complex:
    """Inverse of :func:`complex_to_json` (bare reals accepted)."""
    if isinstance(value, (int, float)):
        return complex(value)
    real, imag = value
    return complex(float(real), float(imag))


def matrix_to_json(matrix: np.ndarray) -> list[list[list[float]]]:
    """A complex matrix as nested rows of ``[re, im]`` pairs."""
    matrix = np.asarray(matrix, dtype=complex)
    return [[complex_to_json(entry) for entry in row] for row in matrix]


def matrix_from_json(rows: list) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`."""
    return np.array(
        [[complex_from_json(entry) for entry in row] for row in rows], dtype=complex
    )
