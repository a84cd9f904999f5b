"""Prometheus text-format export for the metrics registry.

Long simulations should be *watchable*, not just post-mortem-analyzable.
This module renders a :class:`~repro.obs.metrics.MetricsRegistry` into the
Prometheus exposition format (text version 0.0.4) and publishes it two
ways:

* :class:`PromFileWriter` atomically rewrites a ``.prom`` file — the
  node_exporter *textfile collector* contract (write to a temp file in
  the same directory, then rename), so a collector never scrapes a
  half-written file.  It is rewritten on wall-clock ticks the command
  already has — each heartbeat write of a serial ``simulate`` (at most
  twice a second), each ``live`` poll, each finished ``sweep run`` cell
  — and once more at exit, never from inside the event loop;
* :func:`start_http_exporter` serves ``GET /metrics`` from a stdlib
  ``http.server`` on a daemon thread, scrapeable with curl or a real
  Prometheus while ``repro simulate`` runs.

Rendering rules follow the conventions: dots in instrument names become
underscores, counters gain a ``_total`` suffix, histograms expose
cumulative ``_bucket{le=…}`` series plus ``_sum``/``_count``, and stage
timers surface as ``repro_stage_seconds_total``/``repro_stage_calls_total``
labeled by stage.

Multiprocess runs (``repro simulate --workers N``) keep a single
exporter: worker registries never publish directly; the parent folds
their snapshots in via
:meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot`
(pushgateway-style) and both publishers here render the aggregated
registry.

Key entry points: :func:`render_prometheus`, :class:`PromFileWriter`,
:func:`start_http_exporter`.
"""

from __future__ import annotations

import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, List, Sequence, Tuple

from repro.atomic import atomic_output

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.obs.metrics import MetricsRegistry

PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str) -> str:
    name = _NAME_SANITIZE.sub("_", name)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _label_name(name: str) -> str:
    name = _LABEL_SANITIZE.sub("_", name)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _labels_text(
    label_names: Sequence[str], key: Tuple[str, ...], extra: Sequence[Tuple[str, str]] = ()
) -> str:
    pairs = [
        '%s="%s"' % (_label_name(n), _escape_label_value(v))
        for n, v in zip(label_names, key)
    ]
    pairs.extend('%s="%s"' % (n, _escape_label_value(v)) for n, v in extra)
    return "{%s}" % ",".join(pairs) if pairs else ""


def render_prometheus(registry: "MetricsRegistry") -> str:
    """The whole registry in Prometheus exposition format (one string)."""
    lines: List[str] = []

    for counter in sorted(registry._counters.values(), key=lambda c: c.name):
        name = _metric_name(counter.name)
        if not name.endswith("_total"):
            name += "_total"
        lines.append("# TYPE %s counter" % name)
        for key, value in sorted(counter.values.items()):
            lines.append(
                "%s%s %s"
                % (name, _labels_text(counter.label_names, key), _format_value(value))
            )

    for gauge in sorted(registry._gauges.values(), key=lambda g: g.name):
        name = _metric_name(gauge.name)
        lines.append("# TYPE %s gauge" % name)
        for key, value in sorted(gauge.values.items()):
            lines.append(
                "%s%s %s"
                % (name, _labels_text(gauge.label_names, key), _format_value(value))
            )

    for hist in sorted(registry._histograms.values(), key=lambda h: h.name):
        name = _metric_name(hist.name)
        lines.append("# TYPE %s histogram" % name)
        les = ["%g" % bound for bound in hist.bounds] + ["+Inf"]
        for key, series in sorted(hist.series.items()):
            cumulative = 0
            for le, bucket_count in zip(les, series.counts):
                cumulative += bucket_count
                lines.append(
                    "%s_bucket%s %d"
                    % (
                        name,
                        _labels_text(hist.label_names, key, extra=(("le", le),)),
                        cumulative,
                    )
                )
            labels = _labels_text(hist.label_names, key)
            lines.append("%s_sum%s %s" % (name, labels, _format_value(series.sum)))
            lines.append("%s_count%s %d" % (name, labels, series.count))

    timers = registry.timers
    if timers:
        lines.append("# TYPE repro_stage_seconds_total counter")
        for stage, (seconds, _calls) in sorted(timers.items()):
            lines.append(
                'repro_stage_seconds_total{stage="%s"} %s'
                % (_escape_label_value(stage), _format_value(seconds))
            )
        lines.append("# TYPE repro_stage_calls_total counter")
        for stage, (_seconds, calls) in sorted(timers.items()):
            lines.append(
                'repro_stage_calls_total{stage="%s"} %d'
                % (_escape_label_value(stage), calls)
            )

    return "\n".join(lines) + "\n" if lines else ""


class PromFileWriter:
    """Atomically rewrite a textfile-collector ``.prom`` file on demand.

    ``write()`` renders the registry through
    :func:`~repro.atomic.atomic_output` — the atomic replace node_exporter's
    textfile collector expects, so a scrape never sees a torn file.
    """

    def __init__(self, registry: "MetricsRegistry", path: str) -> None:
        self.registry = registry
        self.path = path
        self.writes = 0

    def write(self) -> None:
        with atomic_output(self.path) as fileobj:
            fileobj.write(render_prometheus(self.registry))
        self.writes += 1


class _MetricsHandler(BaseHTTPRequestHandler):
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if self.path.split("?", 1)[0] not in ("/metrics", "/"):
            self.send_error(404, "try /metrics")
            return
        # The registry mutates concurrently on the simulation thread; a
        # scrape that races a dict resize simply retries.
        for attempt in range(3):
            try:
                body = render_prometheus(self.server.registry).encode("utf-8")
                break
            except RuntimeError:
                if attempt == 2:
                    self.send_error(503, "registry busy")
                    return
        self.send_response(200)
        self.send_header("Content-Type", PROM_CONTENT_TYPE)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:
        pass  # scrapes should not spam the CLI's stdout


class MetricsHttpExporter:
    """A ``/metrics`` endpoint on a daemon thread (stdlib only)."""

    def __init__(
        self, registry: "MetricsRegistry", port: int = 0, host: str = ""
    ) -> None:
        self._server = ThreadingHTTPServer((host, port), _MetricsHandler)
        self._server.registry = registry
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-metrics-http",
            daemon=True,
        )
        self._thread.start()

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return "http://127.0.0.1:%d/metrics" % self.port

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)


def start_http_exporter(
    registry: "MetricsRegistry", port: int = 0, host: str = ""
) -> MetricsHttpExporter:
    """Serve ``registry`` at ``http://host:port/metrics``; port 0 = ephemeral."""
    return MetricsHttpExporter(registry, port=port, host=host)
