"""Observability: qlog-style tracing, metrics, profiling, and progress.

One :class:`Observability` bundle is threaded through every layer of the
simulator — event loop, network, load balancers, server engines, the
telescope, and the sanitization pipeline.  The default :data:`NULL_OBS`
carries an inert tracer and no registry, so uninstrumented runs pay only
a falsy attribute check on hot paths.

The bundle's two planes:

* ``tracer`` — flat qlog-style event stream (:mod:`repro.obs.trace`),
* ``metrics`` — counters/gauges/histograms and stage timers
  (:mod:`repro.obs.metrics`); :meth:`Observability.span` is the one
  stage clock, booking each stage's wall time into ``metrics.timers``
  and, when the tracer is live too, emitting a ``span:*`` event with
  ``span``/``parent`` ids.  ``--profile`` renders those timers
  (:mod:`repro.obs.prof`).

The Prometheus publishers (:mod:`repro.obs.export`, which brings in
``http.server``) are not re-exported here: whoever publishes imports
that module, so that emitting into the bundle costs nobody the exporter.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    load_snapshot,
)
from repro.obs.sinks import (
    DEFAULT_ALWAYS_KEEP,
    RingBufferTracer,
    SamplingTracer,
    install_signal_dump,
    open_tracer,
)
from repro.obs.spans import NULL_SPAN, Span, merge_span_timelines
from repro.obs.trace import (
    CAT_CAPSTORE,
    CAT_CONNECTIVITY,
    CAT_LB,
    CAT_NET,
    CAT_RECOVERY,
    CAT_SANITIZE,
    CAT_SECURITY,
    CAT_SIM,
    CAT_SPAN,
    CAT_SWEEP,
    CAT_TELESCOPE,
    CAT_TRANSPORT,
    CAT_WORKLOAD,
    NULL_TRACER,
    JsonlTracer,
    NullTracer,
    Tracer,
    read_trace,
)

__all__ = [
    "Observability",
    "NULL_OBS",
    "Tracer",
    "NullTracer",
    "JsonlTracer",
    "SamplingTracer",
    "RingBufferTracer",
    "install_signal_dump",
    "open_tracer",
    "DEFAULT_ALWAYS_KEEP",
    "NULL_TRACER",
    "read_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "load_snapshot",
    "validate_speedscope",
    "Span",
    "NULL_SPAN",
    "merge_span_timelines",
    "CAT_CAPSTORE",
    "CAT_CONNECTIVITY",
    "CAT_LB",
    "CAT_NET",
    "CAT_RECOVERY",
    "CAT_SANITIZE",
    "CAT_SECURITY",
    "CAT_SIM",
    "CAT_SPAN",
    "CAT_SWEEP",
    "CAT_TELESCOPE",
    "CAT_TRANSPORT",
    "CAT_WORKLOAD",
]


def __getattr__(name: str):
    """``validate_speedscope``: the profile renderer loads when asked for."""
    if name == "validate_speedscope":
        from repro.obs.prof import validate_speedscope

        return validate_speedscope
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


class Observability:
    """A tracer and an optional metrics registry, plus the open spans."""

    __slots__ = ("tracer", "metrics", "open_spans", "_span_count")

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.metrics = metrics
        #: ``(path, span id)`` of every open span, under a root entry.
        self.open_spans: List[Tuple[str, int]] = [("", 0)]
        self._span_count = 0

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled or self.metrics is not None

    def span(self, name: str, **fields):
        """Open a stage span: time it into ``metrics.timers`` (see
        :mod:`repro.obs.spans`).

        Returns the shared inert :data:`NULL_SPAN` unless a registry is
        attached; the flat tracer alone keeps its event vocabulary, so
        ``--trace`` output without ``--metrics`` or ``--profile`` holds no
        span events.
        """
        if self.metrics is None:
            return NULL_SPAN
        return Span(self, name, fields)

    def next_span_id(self) -> int:
        """A fresh span id: a plain per-bundle counter, so a sampling
        tracer never renumbers the span tree."""
        self._span_count += 1
        return self._span_count

    def close(self) -> None:
        self.tracer.close()


#: Shared inert bundle: falsy tracer, no registry.
NULL_OBS = Observability()
