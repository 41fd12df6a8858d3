"""The sweep service end to end: daemon, workers, client — in one process.

1. start a ``Daemon`` on a throwaway socket, plus two external workers (the
   same loop ``python -m repro.service worker`` runs, here thread-hosted so
   the example is hermetic);
2. submit the paper's 16-point sampling sweep (2 strategies × 4 step counts
   × 2 seeded repeats) through a ``ServiceClient`` and block in the
   daemon's ``wait`` op until it finishes, printing each progress change;
3. fetch the decoded records and check them bit-for-bit against an
   in-process ``SerialExecutor`` run — deterministic seeding makes the
   answer worker-count independent;
4. resubmit the identical spec: the daemon dedups on the content key and the
   job is served entirely from cache, nothing re-enters the queue;
5. ``Session(executor=ServiceClient(...))`` — the service as a drop-in
   executor behind the ordinary Session API.

Against a long-lived daemon you would skip step 1 and run instead::

    python -m repro.service serve --workers 2          # terminal 1
    python -m repro.service worker --connect <socket>  # more machines/terms
    python -m repro.service submit sweep.json --wait   # terminal 3

Run with ``python examples/service_sweep.py``.
"""

import tempfile
import threading
from pathlib import Path

import repro
from repro.runtime import ResultCache, SerialExecutor, Session, SweepSpec
from repro.service import Daemon, ServiceClient, run_worker


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-service-"))

    # ------------------------------------------------------------------ 1.
    daemon = Daemon(
        workdir / "daemon.sock",
        service_dir=workdir / "service",
        cache=ResultCache(workdir / "cache"),  # hermetic: nothing in ~/.cache
        local_workers=0,  # external workers only, like a real deployment
        chunk_size=2,
    )
    daemon.start()
    workers = [
        threading.Thread(
            target=run_worker,
            args=(daemon.socket_path,),
            kwargs={"worker_id": f"worker-{i}", "poll_interval": 0.02},
            daemon=True,
        )
        for i in range(2)
    ]
    for thread in workers:
        thread.start()
    print(f"daemon on {daemon.socket_path} with {len(workers)} workers")

    # ------------------------------------------------------------------ 2.
    problem = repro.SimulationProblem.from_labels(
        4, {"nsdI": 0.8, "IZZI": 0.3}, time=0.3, name="service-demo"
    )
    spec = SweepSpec(
        problem=problem,
        strategies=("direct", "pauli"),
        steps=(1, 2, 4, 8),
        backend="sampling",
        run_kwargs={"shots": 512},
        seed=7,
        repeats=2,  # 2 × 4 × 2 = 16 points
    )
    client = ServiceClient(daemon.socket_path)
    ack = client.submit(spec)
    print(f"submitted job {ack['job_id'][:12]}… ({ack['total']} points)")
    status = client.wait(
        ack["job_id"],
        progress=lambda done, total: print(f"  progress {done}/{total}"),
    )
    print(f"job finished: state={status['state']}")

    # ------------------------------------------------------------------ 3.
    records = client.records(ack["job_id"])
    serial = Session(cache=False, executor=SerialExecutor()).sweep(spec)
    assert all(r["ok"] for r in records)
    assert [r["key"] for r in records] == [r.key for r in serial]
    assert all(
        ours["value"].counts == theirs.value.counts
        for ours, theirs in zip(records, serial)
    )
    print("16 records, bit-identical to a serial in-process run")

    # ------------------------------------------------------------------ 4.
    again = client.submit(spec)
    print(
        f"resubmit: deduped={again.get('deduped', False)}, "
        f"state={again['state']} — same content key, nothing re-entered the queue"
    )
    stats = client.stats()
    print(
        f"stats: {stats['points']['executed']} points executed, "
        f"{stats['points']['dedup_hits']} dedup hit(s), "
        f"{stats['points']['from_cache']} points served straight from cache"
    )

    # ------------------------------------------------------------------ 5.
    session = Session(cache=False, executor=client)
    results = session.sweep(problem, strategies=("direct",), steps=(1, 2, 4))
    print(f"Session(executor=client): {results.summary()}")

    # The drain answers each idle worker's next claim with "shutdown", so
    # the joins below return at once.
    daemon.shutdown()
    for thread in workers:
        thread.join(timeout=10.0)
    print("daemon and workers shut down cleanly")


if __name__ == "__main__":
    main()
