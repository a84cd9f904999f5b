"""Remaining CLI surfaces: length histograms and analyze-all flow."""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def pcap_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli2") / "m.pcap")
    assert main(["simulate", path, "--scale", "0.05", "--seed", "77"]) == 0
    return path


def test_lengths_output(pcap_path, capsys):
    assert main(["analyze", pcap_path, "--tables", "lengths"]) == 0
    out = capsys.readouterr().out
    assert "Facebook" in out
    assert "1200" in out


def test_combined_selection(pcap_path, capsys):
    assert main(["analyze", pcap_path, "--tables", "1", "4"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out and "Table 4" in out
    assert "Table 2" not in out


def test_seed_changes_capture(tmp_path):
    from repro.netstack.pcap import read_pcap

    a = str(tmp_path / "a.pcap")
    b = str(tmp_path / "b.pcap")
    main(["simulate", a, "--scale", "0.02", "--seed", "1"])
    main(["simulate", b, "--scale", "0.02", "--seed", "2"])
    assert read_pcap(a)[0].data != read_pcap(b)[0].data


def test_same_seed_reproducible(tmp_path):
    from repro.netstack.pcap import read_pcap

    a = str(tmp_path / "a.pcap")
    b = str(tmp_path / "b.pcap")
    main(["simulate", a, "--scale", "0.02", "--seed", "5"])
    main(["simulate", b, "--scale", "0.02", "--seed", "5"])
    records_a, records_b = read_pcap(a), read_pcap(b)
    assert len(records_a) == len(records_b)
    assert all(x.data == y.data for x, y in zip(records_a, records_b))


class TestSimulateWorkers:
    """`simulate --workers N`: the sharded runner behind the CLI flag."""

    def classify_stats(self, pcap, capsys):
        import json

        assert main(["classify", pcap, "--json"]) == 0
        return json.loads(capsys.readouterr().out)["stats"]

    def test_sharded_classifies_identically_to_serial(self, tmp_path, capsys):
        serial = str(tmp_path / "serial.pcap")
        sharded = str(tmp_path / "sharded.pcap")
        assert main(["simulate", serial, "--scale", "0.02", "--seed", "9"]) == 0
        out = capsys.readouterr().out
        assert "workers" not in out
        assert main(
            ["simulate", sharded, "--scale", "0.02", "--seed", "9",
             "--workers", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "2 workers" in out and "merged from" in out
        assert self.classify_stats(sharded, capsys) == self.classify_stats(
            serial, capsys
        )

    def test_workers_one_is_byte_identical_serial_path(self, tmp_path):
        a = str(tmp_path / "a.pcap")
        b = str(tmp_path / "b.pcap")
        assert main(["simulate", a, "--scale", "0.02", "--seed", "9"]) == 0
        assert main(
            ["simulate", b, "--scale", "0.02", "--seed", "9", "--workers", "1"]
        ) == 0
        with open(a, "rb") as x, open(b, "rb") as y:
            assert x.read() == y.read()

    def test_workers_auto_matches_serial(self, tmp_path):
        auto = str(tmp_path / "auto.pcap")
        serial = str(tmp_path / "serial.pcap")
        assert main(
            ["simulate", auto, "--scale", "0.02", "--seed", "42", "--workers", "auto"]
        ) == 0
        assert main(["simulate", serial, "--scale", "0.02", "--seed", "42"]) == 0
        with open(auto, "rb") as x, open(serial, "rb") as y:
            assert x.read() == y.read()

    def test_workers_rejects_garbage(self):
        with pytest.raises(SystemExit):
            main(["simulate", "/tmp/x.pcap", "--workers", "many"])

    def test_sharded_metrics_and_worker_traces(self, tmp_path):
        from repro.obs import load_snapshot
        from repro.obs.trace import read_trace

        pcap = str(tmp_path / "m.pcap")
        trace = str(tmp_path / "t.jsonl")
        metrics = str(tmp_path / "m.json")
        assert main(
            ["simulate", pcap, "--scale", "0.02", "--seed", "9",
             "--workers", "2", "--trace", trace, "--metrics", metrics]
        ) == 0
        snapshot = load_snapshot(metrics)
        assert snapshot["counters"]["net.delivered"]["values"]
        parent = list(read_trace(trace))
        assert any(e["name"] == "shard_plan" for e in parent)
        import glob

        worker_traces = sorted(glob.glob(trace + ".worker*"))
        assert worker_traces
        for worker_trace in worker_traces:
            assert list(read_trace(worker_trace))

    def test_worker_traces_follow_sample_and_ring_flags(self, tmp_path):
        from repro.obs import DEFAULT_ALWAYS_KEEP
        from repro.obs.trace import read_trace

        def worker_traces(name, *flags):
            trace = str(tmp_path / name)
            assert main(
                ["simulate", str(tmp_path / (name + ".pcap")), "--scale", "0.02",
                 "--seed", "9", "--workers", "2", "--trace", trace, *flags]
            ) == 0
            return [list(read_trace("%s.worker%d" % (trace, k))) for k in range(2)]

        def always_kept(events):
            return sorted(
                (e["time"], e["category"], e["name"])
                for e in events
                if e["category"] in DEFAULT_ALWAYS_KEEP
                or "%s:%s" % (e["category"], e["name"]) in DEFAULT_ALWAYS_KEEP
            )

        full = worker_traces("full")
        sampled = worker_traces("sampled", "--trace-sample", "16")
        ring = worker_traces("ring", "--trace-ring", "64")
        for whole, thinned, window in zip(full, sampled, ring):
            assert 4 * len(thinned) < len(whole)
            assert always_kept(whole)
            assert always_kept(thinned) == always_kept(whole)
            assert 0 < len(window) <= 64
