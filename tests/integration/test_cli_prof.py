"""CLI profiling plane: --profile, progress, trace merge, shard analyze."""

import glob
import json
import os

import pytest

from repro.cli import main
from repro.obs import validate_speedscope
from repro.obs.trace import read_trace

SCALE = "0.02"
SEED = "9"


@pytest.fixture(scope="module")
def profiled_run(tmp_path_factory):
    """One serial profiled simulate shared by the assertions below."""
    root = tmp_path_factory.mktemp("prof")
    pcap = str(root / "month.pcap")
    trace = str(root / "month.trace.jsonl")
    code = main(
        ["simulate", pcap, "--scale", SCALE, "--seed", SEED,
         "--profile", "--trace", trace]
    )
    assert code == 0
    return pcap, trace


@pytest.fixture(scope="module")
def sharded_run(tmp_path_factory):
    """A 4-worker profiled simulate with per-worker traces."""
    root = tmp_path_factory.mktemp("prof_sharded")
    pcap = str(root / "month.pcap")
    trace = str(root / "month.trace.jsonl")
    code = main(
        ["simulate", pcap, "--scale", SCALE, "--seed", SEED,
         "--workers", "4", "--profile", "--trace", trace]
    )
    assert code == 0
    return pcap, trace


class TestSimulateProfile:
    def test_speedscope_written_next_to_output_and_valid(self, profiled_run):
        pcap, _trace = profiled_run
        path = pcap + ".speedscope.json"
        assert os.path.exists(path)
        with open(path) as fileobj:
            doc = json.load(fileobj)
        assert validate_speedscope(doc) == []
        names = {frame["name"] for frame in doc["shared"]["frames"]}
        assert any(name.startswith("engine.flight") for name in names)
        assert "simulate.run" in names

    def test_summary_table_printed(self, tmp_path, capsys):
        pcap = str(tmp_path / "small.pcap")
        assert main(["simulate", pcap, "--scale", "0.01", "--seed", "3",
                     "--profile"]) == 0
        out = capsys.readouterr().out
        assert "Profile (sampled every" in out
        assert "engine.flight" in out
        assert "Wrote speedscope profile" in out

    def test_span_events_present_in_trace(self, profiled_run):
        _pcap, trace = profiled_run
        spans = [e for e in read_trace(trace) if e["category"] == "span"]
        names = {event["name"] for event in spans}
        assert {"simulate.unit", "engine.flight", "simulate.run"} <= names
        flights = [e for e in spans if e["name"] == "engine.flight"]
        assert all(e["data"]["span"] > e["data"]["parent"] >= 0 for e in flights)

    def test_profile_does_not_perturb_the_simulation(self, profiled_run, tmp_path):
        pcap, _trace = profiled_run
        plain = str(tmp_path / "plain.pcap")
        assert main(["simulate", plain, "--scale", SCALE, "--seed", SEED]) == 0
        with open(pcap, "rb") as a, open(plain, "rb") as b:
            assert a.read() == b.read()


class TestProgressCommand:
    def test_serial_run_leaves_a_done_heartbeat(self, profiled_run):
        pcap, _trace = profiled_run
        beats = glob.glob(os.path.join(pcap + ".progress", "*.hb.json"))
        assert len(beats) == 1
        with open(beats[0]) as fileobj:
            doc = json.load(fileobj)
        assert doc["status"] == "done"
        assert doc["done"] > 0

    def test_progress_renders_finished_run(self, profiled_run, capsys):
        pcap, _trace = profiled_run
        assert main(["progress", pcap]) == 0
        out = capsys.readouterr().out
        assert "worker" in out
        assert "done" in out
        assert "0/1 workers running" in out

    def test_sharded_run_heartbeats_per_worker(self, sharded_run, capsys):
        pcap, _trace = sharded_run
        assert main(["progress", pcap]) == 0
        out = capsys.readouterr().out
        assert "0/4 workers running" in out

    def test_missing_target_is_a_one_line_error(self, tmp_path, capsys):
        assert main(["progress", str(tmp_path / "never_ran.pcap")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro progress: no progress directory at ")
        assert err.count("\n") == 1


class TestTraceMerge:
    def test_merged_timeline_identical_serial_vs_sharded(
        self, profiled_run, sharded_run, tmp_path, capsys
    ):
        """The satellite contract: one canonical timeline, any worker count."""
        _pcap1, trace1 = profiled_run
        _pcap2, trace2 = sharded_run
        worker_traces = sorted(glob.glob(trace2 + ".worker*"))
        assert len(worker_traces) == 4
        merged1 = str(tmp_path / "serial.jsonl")
        merged2 = str(tmp_path / "sharded.jsonl")
        assert main(["trace", "merge", merged1, trace1]) == 0
        assert main(["trace", "merge", merged2] + worker_traces) == 0
        out = capsys.readouterr().out
        assert "Merged" in out
        with open(merged1, "rb") as a, open(merged2, "rb") as b:
            serial_bytes = a.read()
            assert serial_bytes == b.read()
        assert serial_bytes  # non-trivial timeline

    def test_missing_input_is_a_one_line_error(self, tmp_path, capsys):
        out = str(tmp_path / "merged.jsonl")
        gone = str(tmp_path / "gone.jsonl")
        assert main(["trace", "merge", out, gone]) == 2
        assert capsys.readouterr().err == (
            "repro trace merge: %s: No such file or directory\n" % gone
        )
        assert os.listdir(str(tmp_path)) == []  # no output, no temp


class TestShardConsumers:
    @pytest.fixture(scope="class")
    def unmerged_run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("shards")
        pcap = str(root / "month.pcap")
        code = main(
            ["simulate", pcap, "--scale", SCALE, "--seed", SEED,
             "--workers", "2", "--no-merge"]
        )
        assert code == 0
        shards = sorted(glob.glob(pcap + ".shard*"))
        assert len(shards) == 2
        assert not os.path.exists(pcap)  # merge really skipped
        return pcap, shards

    def test_analyze_from_shards_equals_merged_analyze(
        self, unmerged_run, sharded_run, capsys
    ):
        _pcap, shards = unmerged_run
        merged_pcap, _trace = sharded_run
        assert main(["analyze"] + shards) == 0
        from_shards = capsys.readouterr().out
        assert main(["analyze", merged_pcap]) == 0
        from_merged = capsys.readouterr().out
        assert from_shards == from_merged

    def test_index_from_shards_reports_in_memory(self, unmerged_run, capsys):
        _pcap, shards = unmerged_run
        assert main(["index"] + shards) == 0
        out = capsys.readouterr().out
        assert "Indexed 2 shard pcaps in memory" in out
        assert "no sidecar written" in out
        assert not any(os.path.exists(path + ".capidx") for path in shards)

    def test_index_shards_reject_single_pcap_flags(self, unmerged_run, capsys):
        _pcap, shards = unmerged_run
        assert main(["index", "--info"] + shards) == 2
        assert capsys.readouterr().err == (
            "repro index: --info/--force apply to a single pcap, not shards\n"
        )

    def test_missing_shard_is_a_one_line_error(self, unmerged_run, tmp_path, capsys):
        # The same line and exit status as a missing single pcap.
        _pcap, shards = unmerged_run
        gone = str(tmp_path / "gone.shard1")
        assert main(["analyze", shards[0], gone]) == 2
        err = capsys.readouterr().err
        assert err == "repro analyze: %s: No such file or directory\n" % gone

    def test_keep_shards_leaves_both_merged_and_shards(self, tmp_path):
        pcap = str(tmp_path / "kept.pcap")
        assert main(["simulate", pcap, "--scale", "0.01", "--seed", "3",
                     "--workers", "2", "--keep-shards"]) == 0
        assert os.path.exists(pcap)
        assert len(glob.glob(pcap + ".shard*")) == 2

    def test_shard_flags_require_workers(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "x.pcap"), "--scale", "0.01",
                     "--no-merge"]) == 2
        assert capsys.readouterr().err == (
            "repro simulate: --keep-shards/--no-merge need --workers N >= 2\n"
        )


class TestOneLineErrors:
    def test_stats_diff_missing_snapshot(self, tmp_path, capsys):
        present = str(tmp_path / "a.json")
        with open(present, "w") as fileobj:
            fileobj.write("{}")
        gone = str(tmp_path / "b.json")
        assert main(["stats", "--diff", present, gone]) == 2
        assert capsys.readouterr().err == (
            "repro stats: %s: No such file or directory\n" % gone
        )

    def test_stats_diff_truncated_snapshot(self, tmp_path, capsys):
        good = str(tmp_path / "a.json")
        bad = str(tmp_path / "b.json")
        with open(good, "w") as fileobj:
            fileobj.write("{}")
        with open(bad, "w") as fileobj:
            fileobj.write('{"counters": {"x"')  # torn mid-write
        assert main(["stats", "--diff", good, bad]) == 2
        assert capsys.readouterr().err == (
            "repro stats: %s: invalid snapshot JSON at line 1 (truncated write?)\n"
            % bad
        )

    def test_trace_summarize_missing_file(self, tmp_path, capsys):
        gone = str(tmp_path / "gone.jsonl")
        assert main(["trace", "summarize", gone]) == 2
        assert capsys.readouterr().err == (
            "repro trace summarize: %s: No such file or directory\n" % gone
        )
