"""Differential harness, kernel and sampling slice: every execution path is per-point ``execute_spec``.

A hypothesis draw is a small sweep of RunSpec payloads on the ``kernel`` or
the ``sampling`` backend: one random SCB Hamiltonian (the statevector
slice's :func:`hamiltonians` strategy) written in two term orders, basis
states, seeds and shots, int and float spellings of one value (``1`` and
``1.0``, ``64`` and ``64.0``), and repeated payloads.  The oracle runs each
payload alone through :func:`execute_spec` on a cold program memo, so what
it returns cannot depend on which term order a process compiled first.
The same payloads then run through ``SerialExecutor.map_specs``, plan-batched
groups of ``execute_spec_batch``, one warm ``ProcessExecutor(2)``, an
in-process daemon with one worker thread behind a ``ServiceClient``, a daemon
whose only worker is ``run_worker`` over its socket (so completions and
results both cross the wire), and a ``Session`` whose cache a fresh session
replays.  Every outcome must match
the oracle's: the same ``result`` and, array by array, the same dtype, shape
and bytes — or the same error type and message.
"""

from __future__ import annotations

import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compile.problem import SimulationProblem
from repro.operators.hamiltonian import Hamiltonian
from repro.runtime import (
    ProcessExecutor,
    RunSpec,
    SerialExecutor,
    Session,
    execute_spec,
    execute_spec_batch,
    group_payloads,
)
from repro.runtime import executor as executor_module
from repro.runtime.results import encode_result
from repro.service import ServiceClient
from repro.service.daemon import Daemon
from repro.service.worker import run_worker
from test_bound_steps import hamiltonians


@st.composite
def sweeps(draw) -> "list[dict]":
    """Runs of payloads that differ only along the backend's batch axis.

    Consecutive payloads of one run share a plan-batch group, unless one of
    them spells a run argument as a float: ``64.0`` shots run as 64, but a
    float basis state or seed fails the point.
    """
    hamiltonian = draw(hamiltonians())
    n, terms = hamiltonian.num_qubits, hamiltonian.terms
    shuffled = tuple(draw(st.permutations(terms)))
    if shuffled == terms:
        shuffled = terms[::-1]
    written = [hamiltonian, Hamiltonian(n, shuffled)]
    backend = draw(st.sampled_from(("kernel", "sampling")))
    strategy = draw(st.sampled_from(("direct", "pauli")))
    time = draw(st.floats(0.05, 2.0))
    steps = draw(st.integers(1, 3))
    order = draw(st.sampled_from((1, 2, 4)))
    states = st.integers(0, (1 << n) - 1)
    payloads = []
    for run in range(draw(st.integers(2, 3))):  # the two term orders take turns
        problem = SimulationProblem(written[run % 2], time, steps=steps, order=order)
        shared = {} if backend == "kernel" else {"shots": 64, "initial_state": draw(states)}
        for _ in range(draw(st.integers(2, 3))):
            run_kwargs = dict(shared)
            if backend == "kernel":
                run_kwargs["initial_state"] = draw(states)
            else:
                run_kwargs["rng"] = draw(st.integers(0, 3))
            respelled = draw(st.sampled_from((None, None, None, *sorted(run_kwargs))))
            if respelled is not None:
                run_kwargs[respelled] = float(run_kwargs[respelled])
            payloads.append(
                RunSpec(problem, strategy, backend, run_kwargs=run_kwargs).to_dict()
            )
    payloads += draw(st.lists(st.sampled_from(payloads), max_size=2))
    return payloads


def assert_same(path: str, outcome: dict, reference: dict) -> None:
    assert outcome["ok"] == reference["ok"], (path, outcome.get("error"), reference.get("error"))
    if not reference["ok"]:
        for field in ("type", "message"):
            assert outcome["error"][field] == reference["error"][field], path
        return
    assert outcome["result"] == reference["result"], path
    arrays, expected = outcome["arrays"], reference["arrays"]
    assert arrays.keys() == expected.keys(), path
    for name, array in expected.items():
        got = arrays[name]
        assert (got.dtype, got.shape) == (array.dtype, array.shape), path
        assert got.tobytes() == array.tobytes(), path


def cold(payload: dict) -> dict:
    executor_module._PROGRAM_MEMO.clear()
    return execute_spec(payload)


def batched(payloads: "list[dict]") -> "list[dict]":
    return [
        outcome
        for group in group_payloads(payloads)
        for outcome in execute_spec_batch([payloads[index] for index in group])
    ]


def replayed(payloads: "list[dict]") -> "list[dict]":
    """Each payload through a session's cache, then a fresh session's replay."""
    specs = [RunSpec.from_dict(payload) for payload in payloads]
    with tempfile.TemporaryDirectory() as directory:
        for spec in specs:
            Session(cache=directory).run(spec)
        records = [Session(cache=directory).run(spec) for spec in specs]
    outcomes = []
    for record in records:
        if record.ok:
            assert record.cached
            meta, arrays = encode_result(record.value)
            outcomes.append({"ok": True, "result": meta, "arrays": arrays})
        else:
            outcomes.append({"ok": False, "error": record.error})
    return outcomes


@pytest.fixture(scope="module")
def pool():
    with ProcessExecutor(2) as executor:
        yield executor


@pytest.fixture(scope="module")
def client(tmp_path_factory):
    root = tmp_path_factory.mktemp("service")
    daemon = Daemon(service_dir=root / "service", cache=root / "cache", local_workers=1)
    daemon.start()
    try:
        yield ServiceClient(daemon.socket_path)
    finally:
        daemon.shutdown()


@pytest.fixture(scope="module")
def remote(tmp_path_factory):
    """A daemon without worker threads, served by one worker over its socket."""
    root = tmp_path_factory.mktemp("remote")
    daemon = Daemon(service_dir=root / "service", cache=root / "cache", local_workers=0)
    daemon.start()
    worker = threading.Thread(
        target=run_worker,
        args=(daemon.socket_path,),
        kwargs={"reconnect_window": 0, "poll_interval": 0.01},
        daemon=True,
    )
    worker.start()
    try:
        yield ServiceClient(daemon.socket_path)
    finally:
        daemon.shutdown()  # the worker hears ``shutdown`` on its next claim
        worker.join(timeout=10.0)
    assert not worker.is_alive()


@settings(max_examples=40, deadline=None)
@given(payloads=sweeps())
def test_every_path_gives_the_oracle_bytes(pool, client, remote, payloads):
    oracle = [cold(payload) for payload in payloads]
    paths = {
        "serial": SerialExecutor().map_specs(payloads),
        "batched": batched(payloads),
        "pool": pool.map_specs(payloads),
        "daemon": client.map_specs(payloads),
        "remote": remote.map_specs(payloads),
        "session": replayed(payloads),
    }
    for path, outcomes in paths.items():
        assert len(outcomes) == len(oracle), path
        for outcome, reference in zip(outcomes, oracle):
            assert_same(path, outcome, reference)
