"""The cross-process progress plane: heartbeat files and rendering."""

import json
import multiprocessing
import os
import time
from dataclasses import replace

import pytest

from repro.errors import InputFileError
from repro.obs.progress import (
    EVENTS_PER_WEIGHT,
    HeartbeatWriter,
    aggregate,
    clean_progress_dir,
    expected_events,
    read_heartbeats,
    render_progress,
    resolve_progress_dir,
)
from repro.simnet.shard import run_scenario
from repro.workloads.scenario import ScenarioConfig
from tests.integration.test_golden_pcap import ONE_SIDED


class TestHeartbeatWriter:
    def test_document_contents(self, tmp_path):
        directory = str(tmp_path / "progress")
        writer = HeartbeatWriter(directory, worker=3, total=200.0)
        assert writer.update("run", done=50.0, records=12)
        with open(writer.path) as fileobj:
            doc = json.load(fileobj)
        assert doc["worker"] == 3
        assert doc["pid"] == os.getpid()
        assert doc["stage"] == "run"
        assert doc["done"] == 50.0
        assert doc["total"] == 200.0
        assert doc["records"] == 12
        assert "span" not in doc
        assert doc["status"] == "running"
        assert doc["eta"] is None or doc["eta"] >= 0

    def test_rate_limit_skips_but_final_always_writes(self, tmp_path):
        writer = HeartbeatWriter(str(tmp_path), worker=0, min_interval=3600.0)
        assert writer.update("run", done=1.0)
        assert not writer.update("run", done=2.0)  # inside the interval
        assert writer.update("done", done=3.0, final=True)
        with open(writer.path) as fileobj:
            doc = json.load(fileobj)
        assert doc["status"] == "done"
        assert doc["done"] == 3.0

    def test_tmp_staging_file_invisible_to_readers(self, tmp_path):
        directory = str(tmp_path)
        writer = HeartbeatWriter(directory, worker=0, min_interval=0.0)
        writer.update("run")
        assert not any(name.endswith(".tmp") for name in os.listdir(directory))
        assert len(read_heartbeats(directory)) == 1


def _hammer(directory, worker, rounds):
    writer = HeartbeatWriter(directory, worker=worker, total=rounds, min_interval=0.0)
    for i in range(rounds):
        writer.update("run", done=float(i), records=i)
    writer.update("done", done=float(rounds), final=True)


class TestAtomicity:
    def test_concurrent_writers_never_tear(self, tmp_path):
        """Readers racing hammering writers always parse complete docs."""
        directory = str(tmp_path / "progress")
        os.makedirs(directory)
        ctx = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        rounds = 400
        procs = [
            ctx.Process(target=_hammer, args=(directory, worker, rounds))
            for worker in range(3)
        ]
        for proc in procs:
            proc.start()
        reads = 0
        deadline = time.time() + 30.0
        try:
            while any(proc.is_alive() for proc in procs):
                assert time.time() < deadline, "writers did not finish"
                for beat in read_heartbeats(directory):
                    # read_heartbeats already json-parses: a torn write
                    # would have raised / been skipped; assert shape too.
                    assert beat["stage"] in ("run", "done")
                    assert 0 <= beat["done"] <= rounds
                    reads += 1
        finally:
            for proc in procs:
                proc.join()
        beats = read_heartbeats(directory)
        assert [beat["worker"] for beat in beats] == [0, 1, 2]
        assert all(beat["status"] == "done" for beat in beats)
        assert reads > 0


class TestReaders:
    def test_read_skips_garbage_files(self, tmp_path):
        directory = str(tmp_path)
        HeartbeatWriter(directory, worker=1, min_interval=0.0).update("run")
        with open(os.path.join(directory, "worker9.hb.json"), "w") as fileobj:
            fileobj.write("{torn")
        beats = read_heartbeats(directory)
        assert [beat["worker"] for beat in beats] == [1]

    def test_skipped_collects_unreadable_basenames(self, tmp_path):
        directory = str(tmp_path)
        HeartbeatWriter(directory, worker=1, min_interval=0.0).update("run")
        with open(os.path.join(directory, "worker8.hb.json"), "wb") as fileobj:
            fileobj.write(b"\xff\xfe not utf-8 \x00")
        with open(os.path.join(directory, "worker9.hb.json"), "w") as fileobj:
            fileobj.write("{torn")
        skipped: list = []
        beats = read_heartbeats(directory, skipped=skipped)
        assert [beat["worker"] for beat in beats] == [1]
        assert sorted(skipped) == ["worker8.hb.json", "worker9.hb.json"]

    def test_cli_progress_notes_skipped_heartbeats(self, tmp_path, capsys):
        from repro.cli import main

        directory = str(tmp_path / "run.pcap.progress")
        os.makedirs(directory)
        HeartbeatWriter(directory, worker=0, min_interval=0.0).update(
            "done", done=1.0, final=True
        )
        with open(os.path.join(directory, "worker7.hb.json"), "w") as fileobj:
            fileobj.write("{caught mid-write")
        assert main(["progress", directory]) == 0
        captured = capsys.readouterr()
        assert "worker" in captured.out  # the table still renders
        assert "skipped 1 unreadable heartbeat(s): worker7.hb.json" in (
            captured.err
        )

    def test_clean_progress_dir(self, tmp_path):
        directory = str(tmp_path)
        HeartbeatWriter(directory, worker=0, min_interval=0.0).update("run")
        clean_progress_dir(directory)
        assert read_heartbeats(directory) == []

    def test_resolve_accepts_dir_or_output_path(self, tmp_path):
        output = str(tmp_path / "month.pcap")
        directory = output + ".progress"
        os.makedirs(directory)
        assert resolve_progress_dir(directory) == directory
        assert resolve_progress_dir(output) == directory

    def test_resolve_missing_exits_one_line(self, tmp_path):
        with pytest.raises(InputFileError) as excinfo:  # exit 2 at main's boundary
            resolve_progress_dir(str(tmp_path / "nope.pcap"))
        message = str(excinfo.value)
        assert "no progress directory" in message
        assert "\n" not in message


class TestAggregateRender:
    def _beats(self):
        return [
            {"worker": 0, "stage": "run", "done": 50.0, "total": 100.0,
             "records": 20, "eta": 5.0, "status": "running",
             "sim_time": 10.0, "updated": time.time()},
            {"worker": 1, "stage": "done", "done": 100.0, "total": 100.0,
             "records": 44, "eta": None, "status": "done",
             "sim_time": 30.0, "updated": time.time()},
        ]

    def test_aggregate_totals(self):
        totals = aggregate(self._beats())
        assert totals["workers"] == 2
        assert totals["running"] == 1
        assert totals["done"] == 150.0
        assert totals["percent"] == pytest.approx(75.0)
        assert totals["eta"] == 5.0

    def test_render_table_and_summary(self):
        text = render_progress(self._beats())
        assert "worker" in text and "eta" in text
        assert "75.0%" in text
        assert "1/2 workers running" in text

    def test_render_empty(self):
        assert "no heartbeats" in render_progress([])

    def test_expected_events_calibration(self):
        assert expected_events(100) == pytest.approx(100 * EVENTS_PER_WEIGHT)

    @pytest.mark.parametrize("scans_only", [False, True], ids=["month", "scans-only"])
    def test_a_finished_run_ends_near_its_expected_total(self, scans_only, tmp_path):
        """``repro progress`` must neither stall at 50% nor pass 130%: the
        calibration has to follow what the loop counts as an event."""
        config = ScenarioConfig(seed=5).scaled(0.02)
        if scans_only:
            knobs = ONE_SIDED["scans-only-20220101-x0.05"]
            config = replace(config, **{knob: 0 for knob in knobs})
        run_scenario(config, heartbeat=HeartbeatWriter(str(tmp_path), worker=0))
        (beat,) = read_heartbeats(str(tmp_path))
        assert beat["status"] == "done"
        assert 0.75 <= beat["done"] / beat["total"] <= 1.33
