"""Observability: qlog-style tracing, metrics, profiling, and progress.

One :class:`Observability` bundle is threaded through every layer of the
simulator — event loop, network, load balancers, server engines, the
telescope, and the sanitization pipeline.  The default :data:`NULL_OBS`
carries an inert tracer, no registry, and no profiler, so uninstrumented
runs pay only a falsy attribute check on hot paths.

The bundle's three planes:

* ``tracer`` — flat qlog-style event stream (:mod:`repro.obs.trace`),
* ``metrics`` — counters/gauges/histograms (:mod:`repro.obs.metrics`),
* ``prof`` — the hierarchical stage profiler (:mod:`repro.obs.prof`);
  :meth:`Observability.span` opens a stage on it and, when the tracer is
  live too, emits a ``span:*`` event with ``span``/``parent`` ids.

The Prometheus publishers (:mod:`repro.obs.export`, which brings in
``http.server``) are not re-exported here: whoever publishes imports
that module, so that emitting into the bundle costs nobody the exporter.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Optional

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    load_snapshot,
)
from repro.obs.prof import Profiler, validate_speedscope
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
    "Profiler",
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


class Observability:
    """A tracer, optional metrics registry, and optional profiler."""

    __slots__ = ("tracer", "metrics", "prof")

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        prof: Optional[Profiler] = None,
    ) -> None:
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.metrics = metrics
        self.prof = prof

    @property
    def enabled(self) -> bool:
        return (
            self.tracer.enabled or self.metrics is not None or self.prof is not None
        )

    def span(self, name: str, **fields):
        """Open a hierarchical stage span (see :mod:`repro.obs.spans`).

        Returns the shared inert :data:`NULL_SPAN` unless a profiler is
        attached — spans exist to feed the profiler's stage tree; the
        flat tracer alone keeps its existing event vocabulary, so
        ``--trace`` output without ``--profile`` is unchanged.
        """
        if self.prof is None:
            return NULL_SPAN
        return Span(self, name, fields)

    def timed(self, stage: str):
        """Context manager booking the block's wall time to ``stage``.

        The registry's :meth:`~MetricsRegistry.time_block` when metrics
        are attached, otherwise an inert context.
        """
        if self.metrics is None:
            return nullcontext()
        return self.metrics.time_block(stage)

    def close(self) -> None:
        self.tracer.close()


#: Shared inert bundle: falsy tracer, no registry, no profiler.
NULL_OBS = Observability()
