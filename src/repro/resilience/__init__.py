"""Fault injection, retry/timeout policies, and graceful degradation.

The resilience layer has two halves that certify each other:

- :mod:`repro.resilience.faults` *produces* failures deterministically — a
  seeded :class:`FaultPlan` (from the ``REPRO_FAULTS`` environment variable
  or built in tests) fires raises/delays/SIGKILLs at named
  :func:`fault_point` sites across the cache, executor, and service
  protocol.
- :mod:`repro.resilience.policy` *absorbs* them — :class:`RetryPolicy`
  (jittered exponential backoff over classified transients) and
  :class:`Deadline` budgets back the client reconnect loop, the worker
  claim loop, and the executor's hung-point watchdog.

Degraded operation is always visible: every injection, retry, fallback,
and timeout counts into the ``resilience.*`` telemetry metrics surfaced by
daemon ``stats`` and ``health``.
"""

from repro.resilience.faults import (
    FAULTS_ENV,
    FaultInjected,
    FaultPlan,
    FaultPlanError,
    FaultRule,
    active_plan,
    configure_faults,
    fault_point,
    faults_enabled,
    reset_process,
)
from repro.resilience.policy import Deadline, RetryPolicy

__all__ = [
    "FAULTS_ENV",
    "FaultInjected",
    "FaultPlan",
    "FaultPlanError",
    "FaultRule",
    "Deadline",
    "RetryPolicy",
    "active_plan",
    "configure_faults",
    "fault_point",
    "faults_enabled",
    "reset_process",
]
