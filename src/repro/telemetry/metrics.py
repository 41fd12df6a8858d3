"""Process-local counter/gauge/histogram registry with a snapshot API.

Complements :mod:`repro.telemetry.spans`: spans answer *where did the time
go*, metrics answer *how often did the interesting thing happen* — cache
hits vs. misses, points fused into batched evolutions, compile-memo reuse,
lease renewals and losses.

The registry is always on (an atomic dict update under a lock is cheap
enough to not need the ``REPRO_TRACE`` gate), process-local, and reset
per-process.  The daemon exposes :func:`snapshot` through its ``stats`` op;
:class:`repro.runtime.session.Session` users can call it directly::

    from repro.telemetry import metrics
    metrics.snapshot()
    # {"counters": {"cache.hits": 12, ...},
    #  "gauges": {...},
    #  "histograms": {"cache.get_seconds": {"count": 14, "p50": ..., ...}}}

Histograms keep a bounded reservoir (the most recent 1024 observations), so
long-running daemons report recent percentiles, not all-time ones.

The :data:`RESILIENCE_COUNTERS` names are the degraded-operation vocabulary
shared by :mod:`repro.resilience` and the service ``stats``/``health`` ops:
they count retried transients, degraded fallbacks (unreadable cache entries
recomputed, results left uncached), hung-point timeouts, and deliberately
injected faults.
"""

from __future__ import annotations

import threading
from collections import deque

#: Reservoir size for histogram percentiles.
HISTOGRAM_WINDOW = 1024

#: Degraded-operation counters surfaced in daemon ``stats`` and ``health``
#: output even when zero, so "no degradation" is an explicit reading.
RESILIENCE_COUNTERS = (
    "resilience.retries",
    "resilience.fallbacks",
    "resilience.timeouts",
    "resilience.faults_injected",
)

_lock = threading.Lock()
_counters: "dict[str, float]" = {}
_gauges: "dict[str, float]" = {}
_histograms: "dict[str, deque]" = {}


def incr(name: str, value: float = 1) -> None:
    """Add ``value`` (default 1) to the counter ``name``."""
    with _lock:
        _counters[name] = _counters.get(name, 0) + value


def counter(name: str) -> float:
    """Current value of the counter ``name`` (0 when never incremented)."""
    with _lock:
        return _counters.get(name, 0)


def gauge(name: str, value: float) -> None:
    """Set the gauge ``name`` to its latest ``value``."""
    with _lock:
        _gauges[name] = value


def observe(name: str, value: float) -> None:
    """Record one observation into the histogram ``name``."""
    with _lock:
        series = _histograms.get(name)
        if series is None:
            series = _histograms[name] = deque(maxlen=HISTOGRAM_WINDOW)
        series.append(float(value))


def _percentile(ordered: "list[float]", q: float) -> float:
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def snapshot() -> dict:
    """A point-in-time copy: counters, gauges, histogram summaries."""
    with _lock:
        counters = dict(_counters)
        gauges = dict(_gauges)
        series = {name: list(values) for name, values in _histograms.items()}
    histograms = {}
    for name, values in series.items():
        ordered = sorted(values)
        histograms[name] = {
            "count": len(ordered),
            "min": ordered[0] if ordered else 0.0,
            "max": ordered[-1] if ordered else 0.0,
            "mean": (sum(ordered) / len(ordered)) if ordered else 0.0,
            "p50": _percentile(ordered, 0.50),
            "p90": _percentile(ordered, 0.90),
            "p95": _percentile(ordered, 0.95),
            "p99": _percentile(ordered, 0.99),
        }
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


def reset() -> None:
    """Clear every counter, gauge, and histogram (tests, fresh daemons)."""
    with _lock:
        _counters.clear()
        _gauges.clear()
        _histograms.clear()
