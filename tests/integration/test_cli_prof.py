"""CLI profiling plane: --profile, progress, trace merge."""

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


def _table_stages(out):
    """The stage column of the ``--profile`` exit table printed in ``out``."""
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("-----")) + 1
    stages = set()
    for line in lines[start:]:
        if not line.strip() or line.startswith("Wrote"):
            break
        stages.add(line.split()[0])
    return stages


class TestSimulateProfile:
    def test_speedscope_written_next_to_output_and_valid(self, profiled_run):
        pcap, _trace = profiled_run
        path = pcap + ".speedscope.json"
        assert os.path.exists(path)
        with open(path) as fileobj:
            doc = json.load(fileobj)
        assert validate_speedscope(doc) == []
        names = {frame["name"] for frame in doc["shared"]["frames"]}
        assert {"simulate.build", "simulate.unit", "simulate.run"} <= names
        assert "simulate.write" in names

    def test_summary_table_printed(self, tmp_path, capsys):
        pcap = str(tmp_path / "small.pcap")
        assert main(["simulate", pcap, "--scale", "0.01", "--seed", "3",
                     "--profile"]) == 0
        out = capsys.readouterr().out
        assert "Profile (" in out
        assert "simulate.build/simulate.unit" in out
        assert "Wrote speedscope profile" in out

    def test_one_stage_set_in_table_speedscope_and_metrics(self, tmp_path, capsys):
        """The exit table, the speedscope stacks and the snapshot's timers
        are three readings of the same stage timers."""
        pcap = str(tmp_path / "m.pcap")
        metrics = str(tmp_path / "m.json")
        assert main(["simulate", pcap, "--scale", SCALE, "--metrics", metrics,
                     "--profile"]) == 0
        table = _table_stages(capsys.readouterr().out)
        with open(pcap + ".speedscope.json") as fileobj:
            doc = json.load(fileobj)
        frames = [frame["name"] for frame in doc["shared"]["frames"]]
        stacks = {
            "/".join(frames[i] for i in sample)
            for sample in doc["profiles"][0]["samples"]
        }
        with open(metrics) as fileobj:
            timers = set(json.load(fileobj)["timers"])
        assert table == stacks == timers == {
            "simulate.build",
            "simulate.build/simulate.unit",
            "simulate.run",
            "simulate.write",
        }

    def test_a_sharded_snapshot_holds_every_stage(self, tmp_path):
        """Worker timers merge into the parent's ``--metrics`` snapshot."""
        metrics = str(tmp_path / "m.json")
        assert main(["simulate", str(tmp_path / "m.pcap"), "--scale", SCALE,
                     "--workers", "2", "--metrics", metrics]) == 0
        with open(metrics) as fileobj:
            timers = json.load(fileobj)["timers"]
        assert set(timers) == {
            "simulate.build",
            "simulate.build/simulate.unit",
            "simulate.run",
            "simulate.write",
            "simulate.merge",
        }
        assert timers["simulate.run"]["calls"] == 2
        assert timers["simulate.merge"]["calls"] == 1

    def test_span_events_present_in_trace(self, profiled_run):
        _pcap, trace = profiled_run
        spans = [e for e in read_trace(trace) if e["category"] == "span"]
        names = {event["name"] for event in spans}
        assert {"simulate.build", "simulate.unit", "simulate.run"} <= names
        units = [e for e in spans if e["name"] == "simulate.unit"]
        assert all(e["data"]["span"] > e["data"]["parent"] > 0 for e in units)

    def test_profile_does_not_perturb_the_simulation(self, profiled_run, tmp_path):
        """Serial and ``--workers 2``: a profiled run writes the bytes an
        unprofiled one does."""
        pcap, _trace = profiled_run
        sharded = str(tmp_path / "sharded.pcap")
        assert main(["simulate", sharded, "--scale", SCALE, "--seed", SEED,
                     "--workers", "2", "--profile", "--metrics",
                     str(tmp_path / "sharded.json")]) == 0
        for profiled, workers in ((pcap, "1"), (sharded, "2")):
            plain = str(tmp_path / ("plain%s.pcap" % workers))
            assert main(["simulate", plain, "--scale", SCALE, "--seed", SEED,
                         "--workers", workers]) == 0
            with open(profiled, "rb") as a, open(plain, "rb") as b:
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


class TestOneLineErrors:
    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["index", "{pcap}", "--speedscope", "{out}"], "--speedscope needs --profile"),
            (["simulate", "{out}", "--speedscope", "{out}.json"],
             "--speedscope needs --profile"),
            (["simulate", "{out}", "--trace", "{out}.jsonl", "--trace-ring-signal"],
             "--trace-ring-signal needs --trace-ring K"),
        ],
        ids=["index-speedscope", "simulate-speedscope", "ring-signal"],
    )
    def test_a_flag_that_would_do_nothing_is_refused(
        self, argv, reason, profiled_run, tmp_path, capsys
    ):
        pcap, _trace = profiled_run
        out = str(tmp_path / "out")
        argv = [arg.format(pcap=pcap, out=out) for arg in argv]
        assert main(argv) == 2
        assert capsys.readouterr().err == "repro %s: %s\n" % (argv[0], reason)
        assert os.listdir(str(tmp_path)) == []

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

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("[1, 2, 3]", "a JSON list, not an object"),
            ('{"counters": {"x": "y"}}', "counters 'x' is not an object"),
            (
                '{"timers": {"run": {"seconds": NaN, "calls": 1}}}',
                "timers 'run' lacks a numeric 'seconds' or 'calls'",
            ),
        ],
        ids=["list", "counter-not-an-object", "nan-seconds"],
    )
    @pytest.mark.parametrize("diff", [False, True], ids=["stats", "diff"])
    def test_stats_json_that_is_not_a_snapshot(self, text, reason, diff, tmp_path, capsys):
        good = str(tmp_path / "a.json")
        bad = str(tmp_path / "b.json")
        with open(good, "w") as fileobj:
            fileobj.write("{}")
        with open(bad, "w") as fileobj:
            fileobj.write(text)
        argv = ["stats", "--diff", good, bad] if diff else ["stats", bad]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "repro stats: %s: not a metrics snapshot: %s\n" % (bad, reason)
        )

    def test_trace_summarize_missing_file(self, tmp_path, capsys):
        gone = str(tmp_path / "gone.jsonl")
        assert main(["trace", "summarize", gone]) == 2
        assert capsys.readouterr().err == (
            "repro trace summarize: %s: No such file or directory\n" % gone
        )
