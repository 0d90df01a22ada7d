"""The ``Telemetry`` facade threaded through serving-stack constructors.

One object bundles the two halves of the subsystem:

* a :class:`~repro.obs.metrics.MetricsRegistry` — **always real**, even
  for the default facade, because the ``*Stats`` dataclasses are views
  over registry instruments and must keep working when nobody asked for
  observability.  Counter upkeep replaces the legacy ad-hoc ints the
  services used to maintain, so the default facade adds no bookkeeping
  the stack wasn't already doing (the observability benchmark pins this
  at ~0% overhead);
* an optional :class:`~repro.obs.trace.Tracer` — ``None`` by default, in
  which case every trace entry point returns the falsy
  :data:`~repro.obs.trace.NOOP_SPAN` and the request path never builds
  a span object.

``child(**labels)`` derives a facade sharing the registry and tracer
but stamping extra constant labels on every instrument it resolves —
this is how ``SchedulingService`` gives each of its shards its own
``shard="N"`` series while scraping stays a single registry-wide call.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import NOOP_SPAN, Tracer, current_span

__all__ = ["Telemetry"]


class Telemetry:
    """Facade over one metrics registry plus (optionally) one tracer."""

    __slots__ = ("registry", "tracer", "labels")

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        labels: Optional[Mapping[str, str]] = None,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer
        self.labels = dict(labels) if labels else {}

    # -- construction helpers ------------------------------------------

    @classmethod
    def default(cls) -> "Telemetry":
        """Metrics-only facade: private registry, tracing off.

        This is what constructors fall back to when ``telemetry=`` is
        not passed — stats views keep working, tracing costs nothing.
        """
        return cls()

    @classmethod
    def with_tracing(
        cls,
        exporter,
        sample_rate: float = 1.0,
        registry: Optional[MetricsRegistry] = None,
        seed: Optional[int] = None,
    ) -> "Telemetry":
        """Facade with sampled tracing into ``exporter``."""
        return cls(
            registry=registry,
            tracer=Tracer(
                exporter=exporter, sample_rate=sample_rate, seed=seed
            ),
        )

    def child(self, **labels: str) -> "Telemetry":
        """Derived facade with extra constant labels, shared backends."""
        merged = dict(self.labels)
        merged.update({k: str(v) for k, v in labels.items()})
        return Telemetry(
            registry=self.registry, tracer=self.tracer, labels=merged
        )

    # -- metrics -------------------------------------------------------

    def _merge(self, labels: Mapping[str, str]) -> Mapping[str, str]:
        if not self.labels:
            return labels
        merged = dict(self.labels)
        merged.update(labels)
        return merged

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self.registry.counter(name, help=help, **self._merge(labels))

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self.registry.gauge(name, help=help, **self._merge(labels))

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self.registry.histogram(
            name, help=help, buckets=buckets, **self._merge(labels)
        )

    # -- tracing -------------------------------------------------------

    @property
    def tracing_enabled(self) -> bool:
        return self.tracer is not None and self.tracer.enabled

    def start_trace(self, name: str, **attrs: Any):
        """Root span for a new request trace (NOOP when tracing is off)."""
        if self.tracer is None:
            return NOOP_SPAN
        span = self.tracer.start_trace(name, **attrs)
        if span and self.labels:
            for key, value in self.labels.items():
                span.set_attr(key, value)
        return span

    def root_span(self, name: str, **attrs: Any):
        """Root span after a positive ``tracer.sample()`` decision.

        The hot-path split of :meth:`start_trace`: serve paths call
        ``tracer.sample()`` first (an attribute read and at most one
        PRNG draw) and only build the root span's attributes — the
        expensive part of rooting a trace — for sampled requests.
        """
        tracer = self.tracer
        if tracer is None:
            return NOOP_SPAN
        span = tracer.root_span(name, **attrs)
        if self.labels:
            for key, value in self.labels.items():
                span.set_attr(key, value)
        return span

    def span(self, name: str, parent=None, **attrs: Any):
        """Child span of ``parent`` (default: this thread's active span)."""
        if self.tracer is None:
            return NOOP_SPAN
        return self.tracer.span(name, parent=parent, **attrs)

    def trace_or_current(self, name: str, **attrs: Any):
        """Join the active span's trace, or start a fresh sampled trace.

        Returns ``(span, started)`` where ``started`` says whether this
        call created a root (and therefore owns ending it).  This is the
        entry-point idiom ``SchedulingService.submit`` follows: it joins
        a caller's active request span, but roots its own trace when it
        is the entry point.
        """
        active = current_span()
        if active is not None:
            return active, False
        return self.start_trace(name, **attrs), True
