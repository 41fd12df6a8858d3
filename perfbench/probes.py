"""Per-layer probes for the traced run.

Each probe times calls into one layer's public functions on the workload's
own inputs, from outside the program: fresh grid points, the last round's
cold job (its payloads and the serial oracle's outcomes), the workload's
result cache.  Every probe runs on every workload, so each per-layer metric
has a value everywhere; the mapping in ``catalogue.py`` says on which
workload a change to it should show end to end.
"""

from __future__ import annotations

import os
import time
import uuid

import numpy as np

from repro.compile.backends import SamplingBackend
from repro.compile.pipeline import compile_problem
from repro.runtime import (
    ProcessExecutor,
    ResultCache,
    RunSpec,
    SerialExecutor,
    Session,
    execute_spec,
    execute_spec_batch,
)
from repro.runtime.results import decode_result, encode_result
from repro.service import ServiceClient
from repro.service.daemon import Daemon
from repro.service.jobs import JobStore, job_from_batch
from repro.service.protocol import outcome_from_wire, outcome_to_wire, request
from repro.telemetry import metrics

from common import median
from workloads import WORKERS

SHOTS = 4096


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


def clock(fn, *args, **kwargs) -> float:
    return timed(fn, *args, **kwargs)[1]


def per_call(fn, batches) -> float:
    """Median over batches of the mean seconds per ``fn(item)`` in a batch."""
    means = []
    for items in batches:
        start = time.perf_counter()
        for item in items:
            fn(item)
        means.append((time.perf_counter() - start) / len(items))
    return median(means)


def probe_compile(inputs, out: dict) -> None:
    """Compile, plan, circuit and backend calls on fresh grid problems.

    Each figure is the median over repetitions per strategy, averaged over
    the workload's strategies.
    """
    samples: "dict[str, dict[str, list]]" = {}
    for strategy in inputs.STRATEGIES:
        mine = samples[strategy] = {}

        def add(name, seconds):
            mine.setdefault(name, []).append(seconds * 1e3)

        for _ in range(2):
            problem = inputs.grid_point(strategy).problem
            program, seconds = timed(compile_problem, problem, strategy)
            add("compile.compile_problem_ms", seconds)
            plan, seconds = timed(program.evolution_plan)
            add("compile.lower_plan_ms", seconds)
            add("compile.build_circuit_ms", clock(lambda: program.execution_circuit))
            state = np.zeros(1 << problem.num_qubits, dtype=complex)
            state[0] = 1.0
            backend = SamplingBackend()
            # One untimed call each first: lazy baking belongs to the build.
            plan.evolve(state)
            program.run("kernel")
            program.run("statevector")
            for rng in range(3):
                add("compile.plan_evolve_ms", clock(plan.evolve, state))
                add("compile.program_run_ms.kernel", clock(program.run, "kernel"))
                add("compile.program_run_ms.statevector",
                    clock(program.run, "statevector"))
                prepared, seconds = timed(backend.prepare, program)
                add("compile.sampling_prepare_ms", seconds)
                add("compile.sample_ms", clock(prepared.sample, shots=SHOTS, rng=rng))
    for name in samples[inputs.STRATEGIES[0]]:
        out[name] = float(np.mean([median(s[name]) for s in samples.values()]))

    reference = inputs.reference()
    for strategy in ("direct", "pauli"):
        circuit = compile_problem(reference, strategy).circuit
        out[f"circuits.two_qubit_gates.{strategy}"] = circuit.num_two_qubit_gates()
    plan = compile_problem(reference, "direct").evolution_plan()
    out["compile.plan_rotations"] = plan.num_rotations


def probe_spec_and_results(inputs, outcomes, out: dict) -> None:
    spec_batches = [
        [inputs.grid_point(s) for s in inputs.STRATEGIES for _ in range(16)]
        for _ in range(5)
    ]
    out["runtime.spec.content_key_us"] = 1e6 * per_call(
        lambda spec: spec.content_key(), spec_batches
    )
    payload_batches = [[s.to_dict(canonical=True) for s in b] for b in spec_batches]
    out["runtime.spec.from_dict_us"] = 1e6 * per_call(RunSpec.from_dict, payload_batches)
    values = [decode_result(o["result"], o["arrays"]) for o in outcomes[:32]]
    encoded = [encode_result(v) for v in values]
    out["runtime.results.encode_us"] = 1e6 * per_call(encode_result, [values] * 5)
    out["runtime.results.decode_us"] = 1e6 * per_call(
        lambda e: decode_result(*e), [encoded] * 5
    )


def probe_executor(inputs, out: dict) -> None:
    """execute_spec and Session overheads over the program, batching, fan-out."""
    strategy = inputs.STRATEGIES[0]  # the cheapest points: overheads stand out
    spec = inputs.grid_point(strategy)
    payload = spec.to_dict(canonical=True)
    session = Session(cache=False)
    program = session.compile(spec.problem, strategy)  # the executor's memo entry
    execute_spec(payload)
    executed, ran, sessioned = [], [], []
    for _ in range(15):
        executed.append(clock(execute_spec, payload))
        ran.append(clock(program.run, spec.backend, **spec.run_kwargs))
        sessioned.append(clock(session.run, spec))
    out["runtime.executor.execute_spec_overhead_ms"] = 1e3 * (median(executed) - median(ran))
    out["runtime.session.overhead_ms"] = 1e3 * (median(sessioned) - median(executed))

    payloads = [s.to_dict(canonical=True) for s in inputs.batch()]
    serial = SerialExecutor()
    serial.map(execute_spec, payloads)  # compile every group into the memo
    group = [p for p in payloads if p["problem"] == payloads[0]["problem"]
             and p["strategy"] == payloads[0]["strategy"]]
    out["runtime.executor.batch_ms_per_pt"] = 1e3 * median(
        [clock(execute_spec_batch, group) / len(group) for _ in range(5)]
    )
    # Forked pool workers inherit the warm memo, so all three are warm.
    serial_s = median([clock(serial.map, execute_spec, payloads) for _ in range(3)])
    one = ProcessExecutor(1)
    w1_s = median([clock(one.map_specs, payloads) for _ in range(3)])
    pool = ProcessExecutor(WORKERS)
    wn_s = median([clock(pool.map_specs, payloads) for _ in range(3)])
    attached = metrics.counter("shm.bytes_attached")
    pooled = pool.map_specs(payloads)
    attached = metrics.counter("shm.bytes_attached") - attached
    array_bytes = sum(
        np.asarray(a).nbytes for o in pooled for a in (o.get("arrays") or {}).values()
    )
    out["runtime.executor.map_specs_s.serial"] = serial_s
    out["runtime.executor.map_specs_s.w1"] = w1_s
    out["runtime.executor.map_specs_s.wN"] = wn_s
    out["runtime.executor.batch_gain"] = serial_s / w1_s
    out["runtime.executor.process_scaling"] = w1_s / wn_s
    out["runtime.shm.bytes_share"] = attached / array_bytes if array_bytes else 0.0
    out["machine_cores"] = os.cpu_count() or 1


def probe_cache(workload, specs, outcomes, out: dict) -> None:
    keys = [spec.content_key() for spec in specs]
    probe = ResultCache(workload.workdir / "probe-cache")
    out["runtime.cache.put_ms"] = 1e3 * median(
        [clock(probe.put_encoded, key, o["result"], o["arrays"])
         for key, o in zip(keys, outcomes)]
    )
    cache = workload.result_cache() or probe
    hits = [key for key in keys if key in cache][:64]
    out["runtime.cache.get_hit_ms"] = 1e3 * median([clock(cache.get, k) for k in hits])
    misses = [uuid.uuid4().hex * 2 for _ in range(64)]
    out["runtime.cache.get_miss_ms"] = 1e3 * median([clock(cache.get, k) for k in misses])
    out["runtime.cache.stats_entries"] = cache.stats()["entries"]
    out["runtime.cache.stats_ms"] = 1e3 * median([clock(cache.stats) for _ in range(3)])


def _job_lifecycle(daemon: Daemon, payloads, wires: dict, *, persist: bool):
    """Submit, then claim and complete every chunk through ``Daemon.handle``.

    Counts the job-state saves the daemon triggers; with ``persist=False``
    the saves are counted but not written (a 4x job would otherwise spend
    most of the probe rewriting its own state file).
    """
    saves = 0
    real_save = daemon.store.save

    def counted(job):
        nonlocal saves
        saves += 1
        if persist:
            real_save(job)

    daemon.store.save = counted
    claims, completes = [], []
    try:
        ack, submit_s = timed(daemon.handle, {"op": "submit", "payloads": payloads})
        while True:
            chunk, seconds = timed(daemon.handle, {"op": "claim", "worker": "probe"})
            if "chunk_id" not in chunk:
                break
            claims.append(seconds)
            outcomes = [wires[RunSpec.from_dict(p).content_key()] for p in chunk["payloads"]]
            completes.append(clock(daemon.handle, {
                "op": "complete", "worker": "probe",
                "chunk_id": chunk["chunk_id"], "outcomes": outcomes,
            }))
    finally:
        del daemon.store.save
    return ack, submit_s, claims, completes, saves


def probe_service(workload, specs, outcomes, out: dict) -> dict:
    """Protocol, job persistence and daemon ops; returns the probe daemon's stats."""
    wire_list = [outcome_to_wire(o) for o in outcomes]
    out["service.protocol.wire_us_per_pt"] = 1e6 * median([
        per_call(outcome_to_wire, [outcomes]) + per_call(outcome_from_wire, [wire_list])
        for _ in range(5)
    ])
    payloads = [spec.to_dict(canonical=True) for spec in specs]
    out["service.jobs.from_batch_ms"] = 1e3 * median(
        [clock(job_from_batch, payloads) for _ in range(3)]
    )
    for factor, suffix in ((1, ""), (4, ".x4")):
        store = JobStore(workload.workdir / f"probe-store{factor}")
        job = job_from_batch(payloads * factor)
        out[f"service.jobs.save_ms{suffix}"] = 1e3 * median(
            [clock(store.save, job) for _ in range(5)]
        )
        out[f"service.jobs.state_bytes{suffix}"] = sum(
            p.stat().st_size for p in store.directory.glob("*.json")
        )
    out["service.jobs.save_growth.x4"] = (
        out["service.jobs.save_ms.x4"] / out["service.jobs.save_ms"]
    )

    root = workload.workdir / "probe-daemon"
    socket_path = os.path.relpath(root / "p.sock")
    daemon = Daemon(socket_path, service_dir=root / "svc", cache=root / "cache",
                    local_workers=1)
    wires = {spec.content_key(): wire for spec, wire in zip(specs, wire_list)}
    ack, submit_s, claims, completes, saves = _job_lifecycle(
        daemon, payloads, wires, persist=True
    )
    out["service.daemon.submit_ms"] = 1e3 * submit_s
    out["service.daemon.claim_ms"] = 1e3 * median(claims)
    out["service.daemon.complete_ms"] = 1e3 * median(completes)
    out["service.jobs.saves_per_job"] = saves
    result = {"op": "result", "job_id": ack["job_id"]}
    out["service.daemon.result_ms"] = 1e3 * median(
        [clock(daemon.handle, result) for _ in range(3)]
    )
    out["service.daemon.stats_ms"] = 1e3 * median(
        [clock(daemon.handle, {"op": "stats"}) for _ in range(5)]
    )
    daemon.cache.clear()
    *_, saves = _job_lifecycle(daemon, payloads * 4, wires, persist=False)
    out["service.jobs.saves_per_job.x4"] = saves

    daemon.start()
    try:
        out["service.protocol.ping_ms"] = 1e3 * median(
            [clock(request, socket_path, "ping") for _ in range(20)]
        )
        client = ServiceClient(socket_path)
        inputs = workload.inputs
        quanta = []
        for _ in range(5):
            fresh = [inputs.grid_point(inputs.STRATEGIES[0]).to_dict(canonical=True)
                     for _ in range(2)]
            job_id = client.submit_payloads(fresh)["job_id"]
            status = client.wait(job_id)
            quanta.append(time.time() - status["finished"])
        out["service.client.wait_quantum_ms"] = 1e3 * median(quanta)
        stats = client.stats()
    finally:
        daemon.shutdown()
    return stats


def run_probes(workload) -> "tuple[dict, dict]":
    """Every probe on ``workload``'s inputs: ``(metrics, probe daemon stats)``."""
    specs, outcomes = workload.last_job
    out: dict = {}
    probe_compile(workload.inputs, out)
    probe_spec_and_results(workload.inputs, outcomes, out)
    probe_executor(workload.inputs, out)
    probe_cache(workload, specs, outcomes, out)
    stats = probe_service(workload, specs, outcomes, out)
    return out, stats
