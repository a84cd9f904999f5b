"""CLI observability surface: --trace, --metrics, --json, and `repro stats`."""

import json

import pytest

from repro.cli import main
from repro.obs import load_snapshot
from repro.obs.trace import read_trace


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One traced + metered simulate, shared by the assertions below."""
    root = tmp_path_factory.mktemp("obs")
    pcap = str(root / "month.pcap")
    trace = str(root / "month.qlog.jsonl")
    metrics = str(root / "month.metrics.json")
    code = main(
        [
            "simulate", pcap, "--scale", "0.05", "--seed", "42",
            "--trace", trace, "--metrics", metrics,
        ]
    )
    assert code == 0
    return pcap, trace, metrics


class TestSimulateTracing:
    def test_trace_is_valid_jsonl_with_required_fields(self, traced_run):
        _pcap, trace, _metrics = traced_run
        events = list(read_trace(trace))
        assert len(events) > 1000
        for event in events[:50] + events[-50:]:
            assert set(("time", "category", "name")) <= set(event)

    def test_at_least_eight_distinct_categories(self, traced_run):
        _pcap, trace, _metrics = traced_run
        categories = {event["category"] for event in read_trace(trace)}
        assert len(categories) >= 8, categories

    def test_metrics_snapshot_contents(self, traced_run):
        _pcap, _trace, metrics = traced_run
        snapshot = load_snapshot(metrics)
        assert snapshot["counters"]["net.delivered"]["values"]
        assert snapshot["counters"]["engine.events"]["values"]
        hist = snapshot["histograms"]["telescope.payload_bytes"]
        assert hist["label_names"] == ["kind"]
        assert any(series["count"] for series in hist["values"].values())
        for stage in ("simulate.build", "simulate.run", "simulate.write"):
            assert snapshot["timers"][stage]["calls"] == 1

    def test_untraced_output_identical(self, traced_run, tmp_path):
        """Tracing must not perturb the simulation (pure observation)."""
        pcap, _trace, _metrics = traced_run
        plain = str(tmp_path / "plain.pcap")
        assert main(["simulate", plain, "--scale", "0.05", "--seed", "42"]) == 0
        with open(pcap, "rb") as a, open(plain, "rb") as b:
            assert a.read() == b.read()


class TestClassifyObs:
    def test_json_mode(self, traced_run, capsys):
        pcap, _trace, _metrics = traced_run
        assert main(["classify", pcap, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        stats = payload["stats"]
        assert stats["total_records"] > 0
        kept = stats["backscatter"] + stats["scans"]
        assert kept + stats["removed"] == stats["total_records"]
        counters = payload["metrics"]["counters"]["sanitize.packets"]["values"]
        assert counters["kept_backscatter"] == stats["backscatter"]
        assert "classify" in payload["metrics"]["timers"]

    def test_classify_metrics_flag(self, traced_run, tmp_path, capsys):
        pcap, _trace, _metrics = traced_run
        out = str(tmp_path / "classify.metrics.json")
        assert main(["classify", pcap, "--metrics", out]) == 0
        snapshot = load_snapshot(out)
        assert snapshot["counters"]["sanitize.packets"]["values"]


class TestStatsCommand:
    def test_renders_tables_and_histograms(self, traced_run, capsys):
        _pcap, _trace, metrics = traced_run
        assert main(["stats", metrics]) == 0
        out = capsys.readouterr().out
        assert "Stage timings" in out
        assert "Counters" in out
        assert "net.delivered" in out
        assert "telescope.payload_bytes" in out
        assert "#" in out  # histogram bars

    def test_probe_with_metrics(self, tmp_path, capsys):
        out = str(tmp_path / "probe.metrics.json")
        assert main(
            ["probe", "enumerate", "--hosts", "4", "--handshakes", "60",
             "--metrics", out]
        ) == 0
        snapshot = load_snapshot(out)
        assert "probe.enumerate" in snapshot["timers"]
        assert snapshot["counters"]["lb.dispatch"]["values"]

    def test_analyze_with_metrics(self, traced_run, tmp_path, capsys):
        pcap, _trace, _metrics = traced_run
        out = str(tmp_path / "analyze.metrics.json")
        assert main(["analyze", pcap, "--tables", "2", "--metrics", out]) == 0
        snapshot = load_snapshot(out)
        timers = snapshot["timers"]
        assert "analyze.render" in timers
        # Cold runs build the columnar index, warm runs load the sidecar —
        # either way the capstore stage shows up in the timings.
        assert "index.build" in timers or "index.load" in timers
        cache = snapshot["counters"]["capstore.cache"]["values"]
        assert sum(cache.values()) == 1


class TestStatsDiff:
    def test_diff_reports_deltas_and_percentages(self, traced_run, tmp_path, capsys):
        _pcap, _trace, metrics = traced_run
        other_pcap = str(tmp_path / "small.pcap")
        other_metrics = str(tmp_path / "small.metrics.json")
        assert main(
            ["simulate", other_pcap, "--scale", "0.02", "--seed", "42",
             "--metrics", other_metrics]
        ) == 0
        assert main(["stats", "--diff", metrics, other_metrics]) == 0
        out = capsys.readouterr().out
        assert "Snapshot diff" in out
        assert "net.delivered" in out
        assert "%" in out
        assert "changed," in out and "unchanged" in out

    def test_diff_identical_snapshots(self, traced_run, capsys):
        _pcap, _trace, metrics = traced_run
        assert main(["stats", "--diff", metrics, metrics]) == 0
        out = capsys.readouterr().out
        assert "0 changed" in out

    def test_stats_without_args_errors(self, capsys):
        assert main(["stats"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "repro stats: give a snapshot file, or --diff A.json B.json\n"
        )


class TestTraceSummarize:
    def test_summarize_full_trace(self, traced_run, capsys):
        _pcap, trace, _metrics = traced_run
        assert main(["trace", "summarize", trace]) == 0
        out = capsys.readouterr().out
        assert "events" in out and "types" in out
        assert "Events per category" in out
        assert "Top" in out
        assert "transport:" in out

    def test_summarize_missing_events(self, tmp_path, capsys):
        empty = str(tmp_path / "empty.jsonl")
        open(empty, "w").close()
        assert main(["trace", "summarize", empty]) == 1

    def test_truncated_tail_notice_goes_to_stderr(self, traced_run, tmp_path, capsys):
        """Crash-dump tails are reported on stderr; stdout stays clean."""
        _pcap, trace, _metrics = traced_run
        truncated = str(tmp_path / "truncated.jsonl")
        with open(trace) as src, open(truncated, "w") as dst:
            for _ in range(20):
                dst.write(src.readline())
            dst.write('{"time": 1.0, "category": "sim", "na')  # torn write
        assert main(["trace", "summarize", truncated]) == 0
        captured = capsys.readouterr()
        assert "truncated" in captured.err
        assert truncated in captured.err
        assert "truncated write" not in captured.out
        assert "Events per category" in captured.out


class TestAlwaysOnSinks:
    @pytest.fixture(scope="class")
    def sampled_run(self, tmp_path_factory):
        """simulate with sampling, a ring dump, and Prometheus file export."""
        root = tmp_path_factory.mktemp("sinks")
        pcap = str(root / "s.pcap")
        trace = str(root / "s.qlog.jsonl")
        ring = str(root / "ring.qlog.jsonl")
        prom = str(root / "repro.prom")
        assert main(
            ["simulate", pcap, "--scale", "0.05", "--seed", "42",
             "--trace", trace, "--trace-sample", "16", "--prom-file", prom]
        ) == 0
        ring_pcap = str(root / "r.pcap")
        assert main(
            ["simulate", ring_pcap, "--scale", "0.05", "--seed", "42",
             "--trace", ring, "--trace-ring", "256"]
        ) == 0
        return pcap, trace, ring, prom

    def test_sampled_trace_is_thinner_but_typed(self, traced_run, sampled_run):
        _pcap, full_trace, _metrics = traced_run
        _pcap2, sampled_trace, _ring, _prom = sampled_run
        full = list(read_trace(full_trace))
        sampled = list(read_trace(sampled_trace))
        assert 0 < len(sampled) < len(full) / 2
        assert all("sampled" in e.get("data", {}) for e in sampled)

    def test_sampling_does_not_perturb_simulation(self, traced_run, sampled_run):
        pcap_full, _trace, _metrics = traced_run
        pcap_sampled, _strace, _ring, _prom = sampled_run
        with open(pcap_full, "rb") as a, open(pcap_sampled, "rb") as b:
            assert a.read() == b.read()

    def test_summarize_reports_presampling_estimate(self, sampled_run, capsys):
        _pcap, trace, _ring, _prom = sampled_run
        assert main(["trace", "summarize", trace]) == 0
        out = capsys.readouterr().out
        assert "sampled; estimated" in out
        assert "estimated" in out  # rescaled column present

    def test_ring_dump_holds_last_events(self, sampled_run):
        _pcap, _trace, ring, _prom = sampled_run
        events = list(read_trace(ring))
        assert len(events) == 256
        # the dump is the tail of the run: run_end is in the window
        assert events[-1]["category"] == "sim"
        assert events[-1]["name"] == "run_end"

    def test_prom_file_written_with_transport_counters(self, sampled_run):
        _pcap, _trace, _ring, prom = sampled_run
        with open(prom) as fileobj:
            content = fileobj.read()
        assert "# TYPE transport_datagrams_sent_total counter" in content
        assert "transport_datagrams_sent_total{profile=" in content
        assert "transport_datagram_bytes_bucket" in content
        assert "net_delivered_total" in content

    def test_ring_without_trace_file_rejected(self, tmp_path, capsys):
        pcap = str(tmp_path / "x.pcap")
        assert main(["simulate", pcap, "--scale", "0.02", "--trace-ring", "64"]) == 2
        assert capsys.readouterr().err == (
            "repro simulate: --trace-ring needs --trace FILE to dump into\n"
        )

    def test_ring_signal_flag_installs_live_dump(self, tmp_path):
        """--trace-ring-signal arms SIGUSR1; a kill mid-process dumps the ring."""
        import os
        import signal

        if not hasattr(signal, "SIGUSR1"):
            pytest.skip("platform without SIGUSR1")
        previous = signal.getsignal(signal.SIGUSR1)
        pcap = str(tmp_path / "sig.pcap")
        ring = str(tmp_path / "sig.qlog.jsonl")
        try:
            assert main(
                ["simulate", pcap, "--scale", "0.02", "--seed", "42",
                 "--trace", ring, "--trace-ring", "128", "--trace-ring-signal"]
            ) == 0
            # The handler stays armed after main() returns; firing it now
            # re-dumps the retained window over the close-time dump.
            os.unlink(ring)
            os.kill(os.getpid(), signal.SIGUSR1)
            events = list(read_trace(ring))
            assert events
            assert events[-1]["name"] == "run_end"
        finally:
            signal.signal(signal.SIGUSR1, previous)
