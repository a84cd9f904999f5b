"""Prometheus text-format export: rendering, file writer, HTTP endpoint."""

import os
import urllib.error
import urllib.request

import pytest

from repro.obs import MetricsRegistry
from repro.obs.export import PromFileWriter, render_prometheus, start_http_exporter


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    counter = reg.counter("transport.datagrams_sent", ["profile"])
    counter.inc_key(("cloud",), 7)
    counter.inc_key(("cdn",), 3)
    reg.gauge("sim.events_per_sec").set_key((), 1234.5)
    hist = reg.histogram("transport.datagram_bytes", [100, 1000], ["profile"])
    for value in (50, 500, 5000):
        hist.observe_key(("cloud",), value)
    reg.add_time("simulate", 0.5)
    return reg


class TestRenderPrometheus:
    def test_counter_gets_total_suffix_and_labels(self, registry):
        text = render_prometheus(registry)
        assert "# TYPE transport_datagrams_sent_total counter" in text
        assert 'transport_datagrams_sent_total{profile="cloud"} 7' in text
        assert 'transport_datagrams_sent_total{profile="cdn"} 3' in text

    def test_gauge_rendered_without_suffix(self, registry):
        text = render_prometheus(registry)
        assert "# TYPE sim_events_per_sec gauge" in text
        assert "sim_events_per_sec 1234.5" in text

    def test_histogram_buckets_are_cumulative(self, registry):
        text = render_prometheus(registry)
        assert 'transport_datagram_bytes_bucket{profile="cloud",le="100"} 1' in text
        assert 'transport_datagram_bytes_bucket{profile="cloud",le="1000"} 2' in text
        assert 'transport_datagram_bytes_bucket{profile="cloud",le="+Inf"} 3' in text
        assert 'transport_datagram_bytes_sum{profile="cloud"} 5550' in text
        assert 'transport_datagram_bytes_count{profile="cloud"} 3' in text

    def test_stage_timers_become_labeled_counters(self, registry):
        text = render_prometheus(registry)
        assert 'repro_stage_calls_total{stage="simulate"} 1' in text
        assert 'repro_stage_seconds_total{stage="simulate"}' in text

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("drops", ["reason"]).inc_key(('quo"te\\back\nline',))
        text = render_prometheus(reg)
        assert 'reason="quo\\"te\\\\back\\nline"' in text

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_ends_with_newline(self, registry):
        assert render_prometheus(registry).endswith("\n")


class TestPromFileWriter:
    def test_write_produces_parseable_file(self, registry, tmp_path):
        path = str(tmp_path / "repro.prom")
        writer = PromFileWriter(registry, path)
        writer.write()
        with open(path) as fileobj:
            content = fileobj.read()
        assert content == render_prometheus(registry)
        assert writer.writes == 1

    def test_rewrite_is_atomic_rename(self, registry, tmp_path):
        path = str(tmp_path / "repro.prom")
        writer = PromFileWriter(registry, path)
        writer.write()
        registry.counter("transport.datagrams_sent", ["profile"]).inc_key(
            ("cloud",), 1
        )
        writer.write()
        # The temp file never survives a completed write.
        assert not os.path.exists(path + ".tmp")
        with open(path) as fileobj:
            assert 'transport_datagrams_sent_total{profile="cloud"} 8' in fileobj.read()


class TestHttpExporter:
    def test_serves_metrics_endpoint(self, registry):
        exporter = start_http_exporter(registry, port=0)
        try:
            with urllib.request.urlopen(exporter.url, timeout=5) as response:
                assert response.status == 200
                assert response.headers["Content-Type"].startswith("text/plain")
                body = response.read().decode("utf-8")
            assert 'transport_datagrams_sent_total{profile="cloud"} 7' in body
        finally:
            exporter.close()

    def test_unknown_path_is_404(self, registry):
        exporter = start_http_exporter(registry, port=0)
        try:
            url = "http://127.0.0.1:%d/nope" % exporter.port
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(url, timeout=5)
            assert excinfo.value.code == 404
        finally:
            exporter.close()

    def test_scrape_reflects_live_updates(self, registry):
        exporter = start_http_exporter(registry, port=0)
        try:
            registry.counter("transport.datagrams_sent", ["profile"]).inc_key(
                ("cloud",), 5
            )
            with urllib.request.urlopen(exporter.url, timeout=5) as response:
                body = response.read().decode("utf-8")
            assert 'transport_datagrams_sent_total{profile="cloud"} 12' in body
        finally:
            exporter.close()
