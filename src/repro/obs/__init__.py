"""Unified observability for the RESPECT serving stack.

Three pieces, one import surface:

* :mod:`repro.obs.metrics` — thread-safe registry of labeled counters,
  gauges and fixed-bucket streaming histograms, with Prometheus text
  exposition and JSON export;
* :mod:`repro.obs.trace` — per-request span trees with sampling, a
  JSONL exporter, and cross-process propagation via the decode wire
  frames;
* :mod:`repro.obs.telemetry` — the ``Telemetry`` facade that threads
  through ``SchedulingService`` / ``DecodeWorkerPool`` / store /
  cluster / online constructors as
  ``telemetry=``.

See the README "Observability" section for the end-to-end tour and
``examples/trace_a_request.py`` for a printed span tree.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    parse_prometheus_text,
)
from repro.obs.telemetry import Telemetry
from repro.obs.trace import (
    InMemorySpanExporter,
    JsonlSpanExporter,
    NOOP_SPAN,
    NoopSpan,
    Span,
    Tracer,
    build_trace_tree,
    current_span,
    format_span_tree,
    new_trace_id,
    use_span,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "parse_prometheus_text",
    "Telemetry",
    "Span",
    "NoopSpan",
    "NOOP_SPAN",
    "Tracer",
    "current_span",
    "use_span",
    "JsonlSpanExporter",
    "InMemorySpanExporter",
    "build_trace_tree",
    "format_span_tree",
    "new_trace_id",
]
