"""Thread-stress scaffolding shared by the tests of the process-wide memos.

The daemon's worker and handler threads share every memo of the process, so
each memo has a test that calls it from more threads than there are cores,
with the interpreter switching threads every microsecond, and checks what
each call returned and the memo's bound.
"""

from __future__ import annotations

import os
import random
import sys
import threading
import time
from collections.abc import Callable

#: More threads than cores, so threads are preempted inside the memos.
THREADS = 2 * (os.cpu_count() or 1) + 2


def hammer(
    step: Callable[[random.Random], None],
    *,
    seconds: float,
    threads: int = THREADS,
    watch: "Callable[[], None] | None" = None,
) -> None:
    """Call ``step(rng)`` in a loop on ``threads`` threads for ``seconds``.

    Each thread passes its own ``random.Random``, seeded with the thread's
    index.  ``watch()``, when given, runs in a loop on the calling thread
    until the threads end.  Fails if a thread is still running 30 s past
    the deadline, or if any step raised.
    """
    errors: list = []
    deadline = time.monotonic() + seconds

    def run(seed: int) -> None:
        rng = random.Random(seed)
        try:
            while time.monotonic() < deadline:
                step(rng)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    workers = [threading.Thread(target=run, args=(seed,)) for seed in range(threads)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so races show up
    try:
        for worker in workers:
            worker.start()
        while (
            watch is not None
            and time.monotonic() < deadline + 30
            and any(worker.is_alive() for worker in workers)
        ):
            watch()
        for worker in workers:
            worker.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(worker.is_alive() for worker in workers), "a thread never ended"
    assert not errors, f"{len(errors)} of {threads} threads raised: {errors!r}"
