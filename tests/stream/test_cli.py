"""CLI surface of the streaming plane: live parity, trace tail, stats --follow.

The load-bearing assertion is byte parity: a ``repro live`` run driven
to completion prints exactly what batch ``repro analyze`` prints for the
same capture — for a single pcap and for a ``--no-merge`` shard set.
"""

import json

import pytest

from repro.cli import main
from repro.netstack.pcap import write_pcap
from repro.obs.metrics import MetricsRegistry
from repro.simnet.shard import plan_shards, run_shard
from repro.workloads.scenario import ScenarioConfig


def live_args(paths, *extra):
    return (
        ["live"]
        + list(paths)
        + ["--quiet", "--interval", "0", "--exit-idle", "1"]
        + list(extra)
    )


class TestLiveParity:
    def test_single_pcap_matches_analyze_byte_for_byte(self, pcap_copy, capsys):
        assert main(["analyze", pcap_copy, "--no-cache"]) == 0
        batch = capsys.readouterr().out
        assert main(live_args([pcap_copy], "--no-cache")) == 0
        live = capsys.readouterr().out
        assert live == batch

    def test_shard_set_matches_analyze_byte_for_byte(self, tmp_path, capsys):
        config = ScenarioConfig(seed=9).scaled(0.02)
        shards = plan_shards(config, 3)
        paths = []
        for shard in shards:
            records = run_shard(config, [unit.name for unit in shard.units])
            path = str(tmp_path / ("out.pcap.shard%d" % shard.index))
            write_pcap(path, records)
            paths.append(path)
        assert main(["analyze"] + paths + ["--no-cache"]) == 0
        batch = capsys.readouterr().out
        assert main(live_args(paths, "--no-cache")) == 0
        live = capsys.readouterr().out
        assert live == batch

    def test_cached_live_matches_uncached(self, pcap_copy, capsys):
        assert main(live_args([pcap_copy], "--no-cache")) == 0
        uncached = capsys.readouterr().out
        assert main(live_args([pcap_copy])) == 0  # builds + persists sidecar
        warm_build = capsys.readouterr().out
        assert main(live_args([pcap_copy])) == 0  # seeds from the sidecar
        warm_hit = capsys.readouterr().out
        assert warm_build == uncached
        assert warm_hit == uncached

    def test_missing_capture_fails_with_one_line(self, tmp_path, capsys):
        path = str(tmp_path / "never.pcap")
        assert main(live_args([path])) == 2
        captured = capsys.readouterr()
        assert captured.err == "repro live: %s: no capture appeared\n" % path

    def test_missing_shard_fails_with_one_line(self, pcap_copy, tmp_path, capsys):
        never = str(tmp_path / "never.pcap")
        assert main(live_args([pcap_copy, never], "--no-cache")) == 2
        captured = capsys.readouterr()
        assert captured.err == "repro live: shard pcap(s) never appeared: %s\n" % never

    def test_dashboard_and_prom_file(self, pcap_copy, tmp_path, capsys):
        prom = str(tmp_path / "live.prom")
        assert (
            main(
                ["live", pcap_copy, "--interval", "0", "--exit-idle", "1",
                 "--no-cache", "--prom-file", prom]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Version mix (online)" in out
        assert "Table 2 — version adoption" in out  # final batch render
        text = open(prom).read()
        assert "stream_rows_fed" in text
        assert "stream_offnet_servers" in text


class TestTraceTail:
    def write_trace(self, path, events, tail_bytes=b""):
        with open(path, "wb") as fileobj:
            for event in events:
                fileobj.write(json.dumps(event).encode() + b"\n")
            fileobj.write(tail_bytes)

    def events(self):
        return [
            {"time": 1.5, "category": "engine", "name": "flight",
             "data": {"n": 1}},
            {"time": 2.0, "category": "quic", "name": "initial", "data": {}},
        ]

    def test_formats_events_one_per_line(self, tmp_path, capsys):
        path = str(tmp_path / "run.trace")
        self.write_trace(path, self.events())
        assert (
            main(["trace", "tail", path, "--interval", "0", "--exit-idle", "1"])
            == 0
        )
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2
        assert "engine:flight" in out[0] and '{"n":1}' in out[0]
        assert "quic:initial" in out[1]

    def test_raw_passthrough_and_malformed_note(self, tmp_path, capsys):
        path = str(tmp_path / "run.trace")
        self.write_trace(path, self.events(), tail_bytes=b"{torn garbage\n")
        assert (
            main(
                ["trace", "tail", path, "--raw", "--interval", "0",
                 "--exit-idle", "1"]
            )
            == 0
        )
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert [json.loads(line) for line in lines] == self.events()
        assert "skipped 1 malformed line(s)" in captured.err

    def test_waiting_note_for_missing_file(self, tmp_path, capsys):
        path = str(tmp_path / "never.trace")
        assert (
            main(["trace", "tail", path, "--interval", "0", "--exit-idle", "2"])
            == 0
        )
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "waiting for" in captured.err


class TestStatsFollow:
    def snapshot_file(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("stream.polls").inc_key((), 4)
        registry.gauge("stream.rows_fed").set_key((), 123)
        path = str(tmp_path / "metrics.json")
        with open(path, "w") as fileobj:
            json.dump(registry.snapshot(), fileobj)
        return path

    def test_first_load_prints_the_full_snapshot(self, tmp_path, capsys):
        path = self.snapshot_file(tmp_path)
        assert main(["stats", path, "--follow", "0.01", "--updates", "1"]) == 0
        out = capsys.readouterr().out
        assert "stream.polls" in out
        assert "stream.rows_fed" in out

    def test_follow_matches_plain_stats_render(self, tmp_path, capsys):
        path = self.snapshot_file(tmp_path)
        assert main(["stats", path]) == 0
        plain = capsys.readouterr().out
        assert main(["stats", path, "--follow", "0.01", "--updates", "1"]) == 0
        followed = capsys.readouterr().out
        assert followed == plain
