"""repro.telemetry — span tracing, metrics, and logging for the whole stack.

Three small, zero-dependency pieces:

* :mod:`repro.telemetry.spans` — ``with span("execute.evolve"): ...`` tracing
  with parent links and cross-process propagation, off by default
  (``REPRO_TRACE=1`` to enable), writing JSONL trace files per process;
* :mod:`repro.telemetry.metrics` — always-on counters/gauges/histograms
  (cache hits, fusion ratio, lease churn) with :func:`snapshot`;
* :mod:`repro.telemetry.logs` — the ``repro.*`` logger hierarchy and the
  ``REPRO_LOG``-driven :func:`configure_logging` for entry points.

Plus the live-observability layer built on top of them:

* :mod:`repro.telemetry.timeseries` — :class:`MetricsSampler`, a bounded
  ring buffer of periodic registry snapshots with derived rates (points/s,
  cache hit rate, queue depth) that the service daemon runs and serves
  through its ``series`` op;
* :mod:`repro.telemetry.exporters` — Prometheus/OpenMetrics text exposition
  (plus a scrape endpoint the daemon mounts on ``--metrics-port``) and a
  Chrome trace-event / Perfetto converter for the JSONL trace files;
* :mod:`repro.telemetry.profiler` — a ``REPRO_PROFILE=hz`` sampling stack
  profiler writing folded stacks that merge with the span flame output.

``python -m repro.telemetry report <dir>`` renders merged traces;
``... export --format chrome|prometheus`` feeds the standard tools; see
:mod:`repro.telemetry.report` and :mod:`repro.telemetry.exporters`.
"""

from repro.telemetry import metrics
from repro.telemetry.exporters import (
    MetricsHTTPServer,
    chrome_trace,
    export_chrome_trace,
    parse_prometheus,
    render_prometheus,
)
from repro.telemetry.profiler import (
    PROFILE_DIR_ENV,
    PROFILE_ENV,
    SamplingProfiler,
    maybe_start_profiler,
    profile_rate,
    stop_profiler,
)
from repro.telemetry.timeseries import MetricsSampler
from repro.telemetry.logs import configure_logging, log_level
from repro.telemetry.spans import (
    TRACE_DIR_ENV,
    TRACE_ENV,
    TraceWriter,
    configure,
    current_trace_context,
    reset,
    span,
    trace_context,
    trace_dir,
    tracing_enabled,
)

__all__ = [
    "MetricsHTTPServer",
    "MetricsSampler",
    "PROFILE_DIR_ENV",
    "PROFILE_ENV",
    "SamplingProfiler",
    "TRACE_DIR_ENV",
    "TRACE_ENV",
    "TraceWriter",
    "chrome_trace",
    "configure",
    "configure_logging",
    "current_trace_context",
    "export_chrome_trace",
    "log_level",
    "maybe_start_profiler",
    "metrics",
    "parse_prometheus",
    "profile_rate",
    "render_prometheus",
    "reset",
    "span",
    "stop_profiler",
    "trace_context",
    "trace_dir",
    "tracing_enabled",
]
