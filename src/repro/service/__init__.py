"""repro.service — simulation-as-a-service over the runtime executor seam.

PR 5's :mod:`repro.runtime` gave every *process* content-addressed caching
and a compile memo; this package promotes that to every *client*.  A daemon
(``python -m repro.service serve``) owns one shared
:class:`~repro.runtime.cache.ResultCache` and compile memo, accepts
run/sweep/batch jobs over a Unix socket (binary frames) into a priority
queue with per-job state files, and fans chunks of grid points out to an
in-daemon worker threads plus any number of external ``repro.service worker``
processes — other containers or machines joining through a forwarded
socket.  :class:`ServiceClient` implements the
:class:`~repro.runtime.executor.Executor` protocol, so::

    from repro.runtime import Session
    from repro.service import ServiceClient

    session = Session(executor=ServiceClient())
    results = session.sweep(problem, strategies=("direct", "pauli"),
                            steps=(1, 2, 4, 8))

transparently executes on the daemon: sweeps from many clients — CLIs,
notebooks, CI benches — share one warm compile memo and one result-cache
namespace, and a resubmitted spec is served from cache without re-entering
the queue.
"""

from repro.service.client import ServiceClient
from repro.service.daemon import Daemon
from repro.service.jobs import Job, JobStore, job_from_batch, job_from_spec
from repro.service.protocol import (
    PROTOCOL_VERSION,
    SERVICE_DIR_ENV,
    RemoteError,
    ServiceConnectionError,
    ServiceError,
    default_service_dir,
    default_socket_path,
)
from repro.service.worker import run_worker

__all__ = [
    "Daemon",
    "Job",
    "JobStore",
    "PROTOCOL_VERSION",
    "RemoteError",
    "SERVICE_DIR_ENV",
    "ServiceClient",
    "ServiceConnectionError",
    "ServiceError",
    "default_service_dir",
    "default_socket_path",
    "job_from_batch",
    "job_from_spec",
    "run_worker",
]
