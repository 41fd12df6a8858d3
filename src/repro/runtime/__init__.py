"""repro.runtime — parallel sweep execution with content-addressed caching.

The execution layer the compile pipeline was built to receive: declarative
:class:`RunSpec`/:class:`SweepSpec` grids, a persistent
:class:`ResultCache` addressed by canonical content hashes, pluggable
:class:`SerialExecutor`/:class:`ProcessExecutor` fan-out with deterministic
per-task seeding and failure capture, and the :class:`Session` facade that
composes them.  The process pool additionally plan-batches grid points that
share a compiled program (one vectorized ``(dim, B)`` evolution instead of
``B`` scalar ones) and pins worker BLAS pools to one thread::

    import repro
    from repro.runtime import Session

    session = Session(executor=4)           # 4 workers, standard cache
    results = session.sweep(
        problem,
        strategies=("direct", "pauli"),
        steps=(1, 2, 4, 8),
        backend="statevector",
    )

Also available from the command line: ``python -m repro.runtime
{run,sweep,cache}``.
"""

from repro.runtime.cache import (
    CACHE_DIR_ENV,
    CACHE_MAX_BYTES_ENV,
    CacheEntry,
    ResultCache,
    default_cache_dir,
)
from repro.runtime.executor import (
    BATCH_AXES,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    batch_key,
    execute_spec,
    execute_spec_batch,
    group_payloads,
    pin_blas_threads,
    resolve_executor,
)
from repro.runtime.results import (
    ResultSet,
    RunRecord,
    decode_result,
    encode_result,
    result_to_json,
)
from repro.runtime.session import (
    Session,
    get_default_session,
    set_default_session,
)
from repro.runtime.spec import SEEDED_BACKENDS, RunSpec, SweepSpec

__all__ = [
    "BATCH_AXES",
    "CACHE_DIR_ENV",
    "CACHE_MAX_BYTES_ENV",
    "CacheEntry",
    "Executor",
    "ProcessExecutor",
    "ResultCache",
    "ResultSet",
    "RunRecord",
    "RunSpec",
    "SEEDED_BACKENDS",
    "SerialExecutor",
    "Session",
    "SweepSpec",
    "batch_key",
    "decode_result",
    "default_cache_dir",
    "encode_result",
    "execute_spec",
    "execute_spec_batch",
    "get_default_session",
    "group_payloads",
    "pin_blas_threads",
    "resolve_executor",
    "result_to_json",
    "set_default_session",
]
