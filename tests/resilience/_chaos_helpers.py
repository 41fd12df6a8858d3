"""Shared helpers for the resilience suite."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import repro
from repro.utils.serialization import canonical_json

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def make_problem(**kwargs):
    kwargs.setdefault("time", 0.3)
    kwargs.setdefault("name", "resilience-test")
    return repro.SimulationProblem.from_labels(
        4, {"nsdI": 0.8, "IZZI": 0.3}, **kwargs
    )


def sweep_payloads(**kwargs) -> "list[dict]":
    """Canonical RunSpec payloads for a small deterministic sampling sweep.

    The defaults give the 8-point certification grid (2 strategies × 4 step
    counts, seeded sampling); ``repeats=2`` doubles it to the 16-point one.
    """
    from repro.runtime import SweepSpec

    kwargs.setdefault("strategies", ("direct", "pauli"))
    kwargs.setdefault("steps", (1, 2, 4, 8))
    kwargs.setdefault("backend", "sampling")
    kwargs.setdefault("run_kwargs", {"shots": 256})
    kwargs.setdefault("seed", 11)
    sweep = SweepSpec(problem=make_problem(), **kwargs)
    return [spec.to_dict() for _, spec in sweep.expand()]


def clean_serial(payloads: "list[dict]") -> "list[dict]":
    """The fault-free reference: every payload through ``execute_spec``."""
    from repro.runtime.executor import execute_spec

    return [execute_spec(payload) for payload in payloads]


def assert_outcomes_identical(outcomes, expected) -> None:
    """Bit-identical comparison robust to one JSON round trip on the wire."""
    assert len(outcomes) == len(expected)
    for got, want in zip(outcomes, expected):
        assert want["ok"], want.get("error")
        assert got["ok"], got.get("error")
        assert canonical_json(got["result"]) == canonical_json(want["result"])
        got_arrays = got.get("arrays") or {}
        want_arrays = want.get("arrays") or {}
        assert set(got_arrays) == set(want_arrays)
        for name in want_arrays:
            np.testing.assert_array_equal(
                np.asarray(got_arrays[name]), np.asarray(want_arrays[name])
            )
